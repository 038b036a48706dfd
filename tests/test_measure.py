import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valadj import (
    CreditCurve,
    InvariantError,
    JointDefaultModel,
    MarketRates,
    TermCurve,
    bond_price,
    conditional_discount,
    expected_conditional_discount,
    funding_rate,
    internal_bond_price,
    internal_rate,
    pre_default_rate,
    reprice_contingent_bond,
)

# flat market r=0.01, lam_I=0.02, lam_C=0.03, theta=1; checked below
# against central differences of the joint survival function
COND_DISC_THETA1 = 0.9517905238471092
PRE_DEFAULT_THETA1_T5 = 0.024955180456582036
REPRICE_THETA1_TC_HALF = 0.9562793962004827


@pytest.fixture
def model(investor, counterparty):
    def make(theta):
        return JointDefaultModel(investor, counterparty, theta)

    return make


class TestFundingRate:
    def test_flat_composition(self, flat_market, investor):
        r_f = funding_rate(flat_market, investor, 0.4)
        assert r_f.value(0.0) == pytest.approx(0.01 + 0.6 * 0.02, rel=1e-15)

    def test_recovery_validation(self, flat_market, investor):
        with pytest.raises(ValueError, match="recovery out of range"):
            funding_rate(flat_market, investor, 1.5)

    def test_internal_rate_solves_constraint(self, flat_market, investor):
        r_bar = internal_rate(flat_market, investor, 0.4, 0.005)
        assert r_bar.value(0.0) == pytest.approx(0.022 - 0.6 * 0.005, rel=1e-15)

    def test_internal_rate_rejects_negative_intensity(self, flat_market, investor):
        with pytest.raises(ValueError):
            internal_rate(flat_market, investor, 0.4, -0.01)

    def test_market_intensity_recovers_risk_free(self, investor):
        # choosing lam_bar = lam_I must give back r exactly, node by node
        r = TermCurve.from_nodes([(0.0, 0.01), (2.0, 0.03), (7.0, 0.015)])
        market = MarketRates(r, TermCurve.flat(0.005))
        lam = TermCurve.from_nodes([(0.0, 0.02), (3.0, 0.05)])
        inv = CreditCurve("I", lam)
        r_bar = internal_rate(market, inv, 0.4, lam)
        for t in np.linspace(0.0, 12.0, 49):
            assert r_bar.value(t) == pytest.approx(r.value(t), abs=1e-12)

    def test_zero_internal_intensity_gives_funding_rate(self, flat_market, investor):
        r_bar = internal_rate(flat_market, investor, 0.4, 0.0)
        r_f = funding_rate(flat_market, investor, 0.4)
        for t in (0.0, 1.0, 5.0):
            assert r_bar.value(t) == pytest.approx(r_f.value(t), abs=1e-15)


class TestBondInvariance:
    @pytest.mark.parametrize("maturity", [1.0, 5.0, 10.0])
    @pytest.mark.parametrize("lam_bar", [0.0, 0.005, 0.01, 0.02, 0.04])
    def test_flat_sweep(self, flat_market, investor, maturity, lam_bar):
        target = bond_price(flat_market, investor, 0.4, maturity)
        got = internal_bond_price(flat_market, investor, 0.4, lam_bar, maturity)
        assert abs(got - target) / target <= 1e-12

    def test_term_structure_sweep(self):
        r = TermCurve.from_nodes([(0.0, 0.01), (1.5, 0.025), (6.0, 0.0)])
        market = MarketRates(r, TermCurve.flat(0.004))
        inv = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.01), (4.0, 0.06)]))
        lam_bar = TermCurve.from_nodes([(0.0, 0.0), (2.0, 0.03)])
        for maturity in (0.5, 3.0, 8.0):
            target = bond_price(market, inv, 0.25, maturity)
            got = internal_bond_price(market, inv, 0.25, lam_bar, maturity)
            assert abs(got - target) / target <= 1e-12

    def test_maturity_validation(self, flat_market, investor):
        with pytest.raises(ValueError):
            bond_price(flat_market, investor, 0.4, 0.0)
        with pytest.raises(ValueError):
            internal_bond_price(flat_market, investor, 0.4, 0.0, -1.0)


class TestPreDefaultRate:
    def test_independent_reduces_to_internal_rate(self, flat_market, model):
        rate = pre_default_rate(flat_market, model(0.0))
        # r + lam_I + lam_C - lam_C
        for t in (0.0, 2.0, 7.5):
            assert rate(t) == pytest.approx(0.03, abs=1e-15)

    def test_frozen_value(self, flat_market, model):
        rate = pre_default_rate(flat_market, model(1.0))
        assert rate(5.0) == pytest.approx(PRE_DEFAULT_THETA1_T5, abs=1e-15)

    def test_log_derivative_oracle(self, flat_market, model):
        # the survival-branch discount must decay at exactly this rate
        m = model(1.0)
        rate = pre_default_rate(flat_market, m)
        h = 1e-5
        for t in (0.5, 2.0, 5.0):
            lo = math.log(conditional_discount(flat_market, m, t - h, math.inf))
            hi = math.log(conditional_discount(flat_market, m, t + h, math.inf))
            assert rate(t) == pytest.approx(-(hi - lo) / (2 * h), abs=1e-6)

    def test_vectorized(self, flat_market, model):
        rate = pre_default_rate(flat_market, model(2.0))
        ts = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(rate(ts), [rate(float(t)) for t in ts], rtol=1e-15)


class TestConditionalDiscount:
    def test_independent_is_constant_in_default_time(self, flat_market, model):
        m = model(0.0)
        target = math.exp(-0.01) * math.exp(-0.02)
        for t_c in (0.1, 0.5, 0.999, 1.0, 2.0, math.inf):
            got = conditional_discount(flat_market, m, 1.0, t_c)
            assert got == pytest.approx(target, rel=1e-14)

    def test_frozen_value(self, flat_market, model):
        got = conditional_discount(flat_market, model(1.0), 1.0, 0.5)
        assert got == pytest.approx(COND_DISC_THETA1, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("t_c", [0.2, 0.5, 0.9])
    def test_default_branch_against_difference_quotient(
        self, flat_market, model, theta, t_c
    ):
        m = model(theta)
        h = 1e-5
        dens = 0.03 * math.exp(-0.03 * t_c)
        fd = (
            math.exp(-0.01)
            * (m.joint_survival(1.0, t_c + h) - m.joint_survival(1.0, t_c - h))
            / (2 * h)
            / -dens
        )
        got = conditional_discount(flat_market, m, 1.0, t_c)
        assert got == pytest.approx(fd, abs=1e-9)

    def test_default_at_horizon_uses_survival_branch(self, flat_market, model):
        m = model(1.0)
        at = conditional_discount(flat_market, m, 1.0, 1.0)
        beyond = conditional_discount(flat_market, m, 1.0, math.inf)
        assert at == beyond

    def test_branch_gap_at_horizon(self, flat_market, model):
        # the conditional discount jumps at t_C = T_I: a default exactly
        # at the horizon is worth the survival branch scaled by the
        # first-to-default / marginal intensity ratio
        m = model(1.0)
        left = conditional_discount(flat_market, m, 1.0, 1.0 - 1e-9)
        surv = conditional_discount(flat_market, m, 1.0, math.inf)
        ratio = m.ftd_intensity(1.0)[1] / 0.03
        assert left / surv == pytest.approx(ratio, rel=1e-6)
        assert ratio < 1.0

    def test_input_validation(self, flat_market, model):
        m = model(1.0)
        with pytest.raises(ValueError):
            conditional_discount(flat_market, m, 0.0, 0.5)
        with pytest.raises(ValueError):
            conditional_discount(flat_market, m, 1.0, -0.5)
        with pytest.raises(ValueError):
            conditional_discount(flat_market, m, 1.0, math.nan)

    def test_vanishing_intensity_is_singular(self, flat_market, investor):
        dead = CreditCurve("C", TermCurve.flat(0.0))
        m = JointDefaultModel(investor, dead, 1.0)
        with pytest.raises(ValueError, match="singular"):
            conditional_discount(flat_market, m, 1.0, 0.5)


class TestRepricing:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 3.0])
    def test_quadrature_identity(self, flat_market, model, theta):
        got = expected_conditional_discount(flat_market, model(theta), 1.0)
        target = math.exp(-0.01) * math.exp(-0.02)
        assert abs(got - target) <= 1e-8

    def test_identity_longer_horizon(self, flat_market, model):
        got = expected_conditional_discount(flat_market, model(2.0), 5.0)
        target = math.exp(-0.05) * math.exp(-0.10)
        assert abs(got - target) <= 1e-8

    def test_reprice_no_contingency(self, flat_market, model):
        px = reprice_contingent_bond(flat_market, model(1.0), 1.0)
        assert px == pytest.approx(math.exp(-0.03), rel=1e-14)

    def test_reprice_with_contingency(self, flat_market, model):
        px = reprice_contingent_bond(flat_market, model(1.0), 1.0, 0.5)
        assert px == pytest.approx(REPRICE_THETA1_TC_HALF, abs=1e-15)
        # external leg recomputed from raw pieces
        ext = math.exp(-0.01) * model(1.0).joint_survival(1.0, 0.5)
        assert px == ext

    def test_reprice_reports_quadrature_gap(self, flat_market, model):
        # starved quadrature cannot hit an impossible tolerance; the
        # check must fail loudly instead of returning a price
        with pytest.raises(InvariantError, match="repricing gap"):
            reprice_contingent_bond(
                flat_market, model(3.0), 1.0, tolerance=1e-18, panels=4
            )

    def test_bond_spec_validation(self, flat_market, model):
        m = model(1.0)
        for maturity in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon must be positive"):
                reprice_contingent_bond(flat_market, m, maturity)
        for contingency in (-0.5, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match="contingency"):
                reprice_contingent_bond(flat_market, m, 1.0, contingency)


@given(
    r=st.floats(min_value=-0.02, max_value=0.08),
    lam_i=st.floats(min_value=0.0, max_value=0.2),
    rec=st.floats(min_value=0.0, max_value=1.0),
    lam_bar=st.floats(min_value=0.0, max_value=0.2),
    maturity=st.floats(min_value=0.1, max_value=30.0),
)
@settings(max_examples=200, deadline=None)
def test_bond_invariance_property(r, lam_i, rec, lam_bar, maturity):
    market = MarketRates(TermCurve.flat(r), TermCurve.flat(0.0))
    inv = CreditCurve("I", TermCurve.flat(lam_i))
    target = bond_price(market, inv, rec, maturity)
    got = internal_bond_price(market, inv, rec, lam_bar, maturity)
    assert got == pytest.approx(target, rel=1e-12)
