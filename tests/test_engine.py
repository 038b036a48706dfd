import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valadj import (
    CashflowSchedule,
    CloseoutSpec,
    CreditCurve,
    InvariantError,
    JointDefaultModel,
    MarketRates,
    TermCurve,
    adjustment_correlated,
    adjustment_independent,
    engine,
    panel_grid,
    solve_linear_adjustment,
)
from valadj.engine import _check_coefficients

from _reference import dense_duhamel_u0, flat_adjustment_u0

# frozen closed-form/dense-quadrature references for the mixed schedule
# (flows +1 @ 2.5y, -1 @ 5y; r=0.01, r_X=0.005, lam_I=0.02, R_bond=0.4,
# closeout recoveries 0.4/0.4, lam_bar=0.02, lam_C=0.03, theta=1)
RISKFREE_MIXED_U0 = 0.03759875399598275
INDEP_MIXED_U0 = 0.03309301327503845
CORR_MIXED_THETA1_U0 = 0.041026394498562


class TestPanelGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            panel_grid(0.0)
        with pytest.raises(ValueError):
            panel_grid(-1.0)
        with pytest.raises(ValueError):
            panel_grid(1.0, panels_per_year=0)

    def test_uniform_count(self):
        g = panel_grid(2.0, panels_per_year=512)
        assert len(g) == 1025
        assert g[0] == 0.0 and g[-1] == 2.0

    def test_short_maturity_still_has_a_panel(self):
        g = panel_grid(0.25, panels_per_year=2)
        assert len(g) >= 2

    def test_breakpoints_inserted(self):
        g = panel_grid(1.0, breakpoints=[1.0 / 3.0], panels_per_year=4)
        assert 1.0 / 3.0 in g

    def test_exterior_breakpoints_dropped(self):
        g = panel_grid(1.0, breakpoints=[0.0, 1.0, 2.0, -0.5], panels_per_year=4)
        assert len(g) == 5


def constant(c):
    """Coefficient ``t -> c``; its left limit is the same."""
    return lambda t, left=False: np.full_like(np.asarray(t, float), c)


def solve_constant(alpha, beta, **kwargs):
    """Solve with constant ``alpha`` and ``beta`` and ``v_X = 0``."""
    return solve_linear_adjustment(
        constant(alpha),
        lambda t: alpha * np.asarray(t, float),
        lambda t, left: (constant(beta)(t), constant(0.0)(t)),
        **kwargs,
    )


class TestSolver:
    def test_constant_coefficients_closed_form(self):
        alpha, beta, maturity = 0.07, 0.013, 4.0
        prof = solve_constant(alpha, beta, maturity=maturity)
        expected = beta / alpha * -np.expm1(-alpha * (maturity - prof.grid))
        np.testing.assert_allclose(prof.u, expected, rtol=1e-13, atol=1e-16)

    def test_zero_alpha(self):
        prof = solve_constant(0.0, 0.02, maturity=3.0)
        np.testing.assert_allclose(prof.u, 0.02 * (3.0 - prof.grid), rtol=1e-13)

    def test_non_finite_coefficient_raises(self):
        with pytest.raises(InvariantError, match="non-finite beta coefficient at t = 0.0"):
            solve_constant(0.0, np.nan, maturity=1.0, panels_per_year=4)

    def test_non_finite_coefficient_names_its_first_time(self):
        # beta is NaN after 0.6: with four panels a year the edges 0.75
        # and 1 fail, and so do the Gauss nodes past 0.6; the error names
        # the earliest of them, the midpoint of [0.5, 0.75]
        def beta(t, left):
            t = np.asarray(t, float)
            return np.where(t > 0.6, np.nan, 0.01), np.zeros_like(t)

        with pytest.raises(InvariantError, match=r"non-finite beta coefficient at t = 0\.625$"):
            solve_linear_adjustment(
                constant(0.1), lambda t: 0.1 * np.asarray(t, float), beta,
                maturity=1.0, panels_per_year=4,
            )

    def test_set_up_check_names_where_a_coefficient_breaks(self):
        # beta is NaN after 0.6, between the check points 0 and 1: the
        # check bisects to the first double past 0.6
        def beta(t, left):
            t = np.asarray(t, float)
            return np.where(t > 0.6, np.nan, 0.01), np.zeros_like(t)

        with pytest.raises(InvariantError) as info:
            _check_coefficients(
                constant(0.1), lambda t: 0.1 * np.asarray(t, float), beta, [], maturity=1.0
            )
        first = float(np.nextafter(0.6, 1.0))
        assert info.value.t == first
        assert str(info.value) == f"non-finite beta coefficient at t = {first!r}"

    def test_propagation_overflow_names_where_it_broke(self):
        # exp(-int alpha) over one panel of a year is exp(800): the first
        # panel propagated, [0.75, 1], overflows at its left edge
        with pytest.raises(
            InvariantError, match=r"overflowed during panel propagation at t = 0\.75$"
        ) as info:
            solve_constant(-3200.0, 1.0, maturity=1.0, panels_per_year=4)
        assert info.value.t == 0.75

    def test_terminal_condition(self):
        prof = solve_constant(0.1, 1.0, maturity=1.0, panels_per_year=8)
        assert prof.u[-1] == 0.0


@pytest.mark.parametrize("regime", ["independent", "correlated"])
def test_collateral_value_once_per_coefficient_grid(
    regime, monkeypatch, flat_market, investor, counterparty, closeout, mixed
):
    # the edges, then each of the three Gauss nodes of every panel: the
    # reported v_X on the edges is the one beta was built from, not a
    # fifth call
    points = []

    def counted(schedule, collateral, t, left=False):
        points.append((np.size(t), left))
        return real(schedule, collateral, t, left=left)

    real = engine.collateral_value
    monkeypatch.setattr(engine, "collateral_value", counted)
    if regime == "independent":
        prof = adjustment_independent(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout
        )
    else:
        model = JointDefaultModel(investor, counterparty, 1.0)
        prof = adjustment_correlated(flat_market, model, mixed, closeout)
    n = len(prof.grid)
    assert points == [(n, False)] + [(n - 1, False)] * 3
    np.testing.assert_array_equal(prof.v_x, real(mixed, flat_market.collateral, prof.grid))


class TestRiskfreeRegime:
    def test_pure_funding_closed_form(self, flat_market, investor, closeout, bullet):
        # lam_bar = 0: u(0) = exp(-r_F T) - exp(-r_X T)
        prof = adjustment_independent(flat_market, investor, None, 0.4, 0.0, bullet, closeout)
        target = math.exp(-0.022 * 5.0) - math.exp(-0.005 * 5.0)
        assert prof.adjustment() == pytest.approx(target, abs=1e-9)
        # far tighter in practice
        assert prof.adjustment() == pytest.approx(target, abs=1e-13)

    def test_mixed_schedule_frozen(self, flat_market, investor, closeout, mixed):
        prof = adjustment_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout)
        assert prof.adjustment() == pytest.approx(RISKFREE_MIXED_U0, abs=1e-12)

    def test_coupon_schedule_interval_exact(
        self, flat_market, investor, closeout, coupon
    ):
        prof = adjustment_independent(flat_market, investor, None, 0.4, 0.02, coupon, closeout)
        target = flat_adjustment_u0(
            list(zip(coupon.times, coupon.amounts)),
            5.0,
            r_x=0.005,
            alpha=0.03,
            r_bar=0.01,
            lam_bar=0.02,
            lam_c=0.0,
            rec_i=0.4,
            rec_c=0.4,
        )
        assert prof.adjustment() == pytest.approx(target, abs=1e-12)

    def test_profile_consistency(self, flat_market, investor, closeout, mixed):
        prof = adjustment_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout)
        np.testing.assert_array_equal(prof.v, prof.v_x + prof.u)
        assert prof.grid[0] == 0.0 and prof.grid[-1] == 5.0
        assert 2.5 in prof.grid
        assert prof.u[-1] == 0.0
        assert prof.value() == prof.v[0]

    def test_term_structure_against_dense_quadrature(self, closeout):
        r = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.03)])
        r_x = TermCurve.from_nodes([(0.0, 0.005), (2.0, 0.0)])
        market = MarketRates(r, r_x)
        inv = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.02), (1.5, 0.04)]))
        lam_bar = TermCurve.from_nodes([(0.0, 0.01), (3.0, 0.02)])
        flows = [(2.5, 1.0), (4.0, -0.7)]
        schedule = CashflowSchedule.from_flows(flows)
        prof = adjustment_independent(market, inv, None, 0.4, lam_bar, schedule, closeout)

        rec = 0.4

        def r_bar_val(s):
            s = np.asarray(s, float)
            r_f = r.value(s) + 0.6 * inv.intensity.value(s)
            return r_f - 0.6 * lam_bar.value(s)

        def alpha_fn(s):
            return r_bar_val(s) + lam_bar.value(np.asarray(s, float))

        def beta_fn(s, remaining):
            s = np.asarray(s, float)
            p = np.zeros_like(s)
            for t, amt in remaining:
                p += amt * np.exp(-r_x.integrated_rate(0.0, t)) * np.exp(
                    r_x.cumulative(s)
                )
            lb = lam_bar.value(s)
            return (1.0 - rec) * lb * np.maximum(-p, 0.0) - (
                r_bar_val(s) - r_x.value(s)
            ) * p

        target = dense_duhamel_u0(
            alpha_fn,
            beta_fn,
            flows,
            4.0,
            steps_per_interval=100_000,
            breakpoints=(1.0, 1.5, 2.0, 3.0),
        )
        assert prof.adjustment() == pytest.approx(target, abs=1e-9)


class TestIndependentRegime:
    def test_mixed_schedule_frozen(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        prof = adjustment_independent(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout
        )
        assert prof.adjustment() == pytest.approx(INDEP_MIXED_U0, abs=1e-12)

    def test_collapses_to_riskfree_without_counterparty_risk(
        self, flat_market, investor, closeout, mixed
    ):
        # riskfree_cpty is independent without a counterparty: the same
        # profile to the last bit as a counterparty that never defaults,
        # on flat curves and on multi-node ones
        term_structure = (
            MarketRates(
                TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.03), (3.5, 0.02)]),
                TermCurve.from_nodes([(0.0, 0.005), (2.0, 0.0)]),
            ),
            CreditCurve("I", TermCurve.from_nodes([(0.0, 0.02), (1.5, 0.04)])),
            TermCurve.from_nodes([(0.0, 0.01), (3.0, 0.02)]),
            CashflowSchedule.from_flows([(1.0, 0.3), (2.5, 1.0), (4.0, -0.7)]),
        )
        dead = CreditCurve("C", TermCurve.flat(0.0))
        for market, inv, lam_bar, schedule in (
            (flat_market, investor, 0.02, mixed),
            term_structure,
        ):
            a = adjustment_independent(market, inv, dead, 0.4, lam_bar, schedule, closeout)
            b = adjustment_independent(market, inv, None, 0.4, lam_bar, schedule, closeout)
            for column in ("grid", "v_x", "u", "v", "alpha", "beta"):
                assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column

    def test_counterparty_risk_lowers_value_on_receivable(
        self, flat_market, investor, counterparty, closeout, bullet
    ):
        with_c = adjustment_independent(
            flat_market, investor, counterparty, 0.4, 0.0, bullet, closeout
        )
        without = adjustment_independent(flat_market, investor, None, 0.4, 0.0, bullet, closeout)
        assert with_c.adjustment() < without.adjustment()

    def test_coupon_schedule_interval_exact(
        self, flat_market, investor, counterparty, closeout, coupon
    ):
        prof = adjustment_independent(
            flat_market, investor, counterparty, 0.4, 0.01, coupon, closeout
        )
        target = flat_adjustment_u0(
            list(zip(coupon.times, coupon.amounts)),
            5.0,
            r_x=0.005,
            alpha=0.016 + 0.01 + 0.03,
            r_bar=0.016,
            lam_bar=0.01,
            lam_c=0.03,
            rec_i=0.4,
            rec_c=0.4,
        )
        assert prof.adjustment() == pytest.approx(target, abs=1e-12)


class TestCorrelatedRegime:
    def test_mixed_schedule_frozen(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        model = JointDefaultModel(investor, counterparty, 1.0)
        prof = adjustment_correlated(flat_market, model, mixed, closeout)
        assert prof.adjustment() == pytest.approx(CORR_MIXED_THETA1_U0, abs=1e-12)

    def test_theta_zero_is_independent_zero_recovery(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        model = JointDefaultModel(investor, counterparty, 0.0)
        a = adjustment_correlated(flat_market, model, mixed, closeout)
        b = adjustment_independent(
            flat_market, investor, counterparty, 0.0, 0.0, mixed, closeout
        )
        np.testing.assert_array_equal(a.grid, b.grid)
        assert abs(a.adjustment() - b.adjustment()) <= 1e-15

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 3.0])
    def test_zero_recovery_bullet_at_sixteen_panels_a_year(self, theta):
        # correlated_bond.json: the flow is paid only if neither name has
        # defaulted, so v0 = exp(-r T) U(T, T).  The Monte Carlo oracle is
        # exact there, with a standard error of 0, so the engine must be
        # within 1e-12 of it at any grid the benchmark runs, 16 panels a
        # year included
        market = MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))
        model = JointDefaultModel(
            CreditCurve("I", TermCurve.flat(0.02)), CreditCurve("C", TermCurve.flat(0.03)), theta
        )
        prof = adjustment_correlated(
            market, model, CashflowSchedule.from_flows([(1.0, 1.0)]),
            CloseoutSpec(recovery_investor=0.0, recovery_counterparty=0.0), panels_per_year=16,
        )
        assert prof.value() == pytest.approx(
            math.exp(-0.01) * float(model.joint_survival(1.0, 1.0)), abs=1e-14
        )

    @pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e-22])
    def test_product_law_below_threshold(self, counterparty, closeout, mixed, theta):
        market = MarketRates(
            TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.02)]), TermCurve.flat(0.005)
        )
        inv = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.02), (3.0, 0.04)]))
        a, b = (
            adjustment_correlated(market, JointDefaultModel(inv, counterparty, th), mixed, closeout)
            for th in (theta, 0.0)
        )
        for field in ("grid", "v_x", "u", "v", "alpha", "beta"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_small_theta_continuity(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        tiny = JointDefaultModel(investor, counterparty, 1e-8)
        zero = JointDefaultModel(investor, counterparty, 0.0)
        a = adjustment_correlated(flat_market, tiny, mixed, closeout)
        b = adjustment_correlated(flat_market, zero, mixed, closeout)
        assert abs(a.adjustment() - b.adjustment()) <= 1e-6

    def test_term_structure_against_dense_quadrature(self, closeout):
        r = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.02)])
        r_x = TermCurve.flat(0.005)
        market = MarketRates(r, r_x)
        inv = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.02), (2.0, 0.03)]))
        cpty = CreditCurve("C", TermCurve.flat(0.03))
        model = JointDefaultModel(inv, cpty, 1.5)
        flows = [(1.5, 1.0), (3.0, -0.5)]
        schedule = CashflowSchedule.from_flows(flows)
        prof = adjustment_correlated(market, model, schedule, closeout)

        def alpha_fn(s):
            s = np.asarray(s, float)
            return (
                r.value(s)
                + np.asarray(model.ftd_intensity(s)[0])
                + np.asarray(model.ftd_intensity(s)[1])
            )

        def beta_fn(s, remaining):
            s = np.asarray(s, float)
            p = np.zeros_like(s)
            for t, amt in remaining:
                p += amt * math.exp(-0.005 * t) * np.exp(0.005 * s)
            lc = cpty.intensity.value(s)
            carry = alpha_fn(s) - lc - r_x.value(s)
            return -0.6 * lc * np.maximum(p, 0.0) - carry * p

        target = dense_duhamel_u0(
            alpha_fn,
            beta_fn,
            flows,
            3.0,
            steps_per_interval=100_000,
            breakpoints=(1.0, 2.0),
        )
        assert prof.adjustment() == pytest.approx(target, abs=1e-9)


class TestRefinement:
    def test_doubling_panels_is_converged(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        model = JointDefaultModel(investor, counterparty, 1.0)
        runs = {
            "riskfree_cpty": lambda ppy: adjustment_independent(
                flat_market, investor, None, 0.4, 0.02, mixed, closeout, panels_per_year=ppy
            ),
            "independent": lambda ppy: adjustment_independent(
                flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout,
                panels_per_year=ppy,
            ),
            "correlated": lambda ppy: adjustment_correlated(
                flat_market, model, mixed, closeout, panels_per_year=ppy
            ),
        }
        for regime, run in runs.items():
            coarse = run(512).adjustment()
            fine = run(1024).adjustment()
            assert abs(fine - coarse) <= 1e-9, regime

    def test_flow_beyond_maturity_grid_is_flat_zero(self, flat_market, investor, closeout):
        schedule = CashflowSchedule.from_flows([(1.0, 1.0)], maturity=2.0)
        prof = adjustment_independent(
            flat_market, investor, None, 0.4, 0.01, schedule, closeout, panels_per_year=8
        )
        tail = prof.u[prof.grid >= 1.0 - 1e-12]
        np.testing.assert_array_equal(tail, np.zeros_like(tail))


@given(
    r=st.floats(min_value=-0.02, max_value=0.06),
    r_x=st.floats(min_value=-0.02, max_value=0.06),
    lam_i=st.floats(min_value=0.0, max_value=0.15),
    lam_bar=st.floats(min_value=0.0, max_value=0.15),
    lam_c=st.floats(min_value=0.0, max_value=0.15),
    rec_bond=st.floats(min_value=0.0, max_value=1.0),
    rec_i=st.floats(min_value=0.0, max_value=1.0),
    rec_c=st.floats(min_value=0.0, max_value=1.0),
    t1=st.floats(min_value=0.3, max_value=4.0),
    gap=st.floats(min_value=0.25, max_value=6.0),
    a1=st.floats(min_value=-2.0, max_value=2.0),
    a2=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_independent_regime_matches_flat_closed_form(
    r, r_x, lam_i, lam_bar, lam_c, rec_bond, rec_i, rec_c, t1, gap, a1, a2
):
    market = MarketRates(TermCurve.flat(r), TermCurve.flat(r_x))
    inv = CreditCurve("I", TermCurve.flat(lam_i))
    cpty = CreditCurve("C", TermCurve.flat(lam_c))
    flows = [(t1, a1), (t1 + gap, a2)]
    schedule = CashflowSchedule.from_flows(flows)
    closeout = CloseoutSpec(rec_i, rec_c)
    prof = adjustment_independent(
        market, inv, cpty, rec_bond, lam_bar, schedule, closeout
    )
    r_bar = r + (1.0 - rec_bond) * (lam_i - lam_bar)
    target = flat_adjustment_u0(
        flows,
        t1 + gap,
        r_x=r_x,
        alpha=r_bar + lam_bar + lam_c,
        r_bar=r_bar,
        lam_bar=lam_bar,
        lam_c=lam_c,
        rec_i=rec_i,
        rec_c=rec_c,
    )
    assert prof.adjustment() == pytest.approx(target, abs=1e-10)
