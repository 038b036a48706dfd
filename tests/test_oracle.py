import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    closeout_values,
    combined,
    mc_value_correlated,
    mc_value_independent,
    sample_joint_defaults,
)
from valadj import as_curve, cli, oracle
from valadj.measure import internal_rate

from _reference import chunked_mean_m2, naive_collateral_value, naive_locate, piecewise_integral

N = 200_000
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class PathOutcome:
    """One drawn path: its level, its first default time (``inf`` =
    never) and the payoff discounted to time 0."""

    level: float
    tau: float
    discounted_payoff: float


class Sample(NamedTuple):
    """Every drawn path, with what the estimate adds for the paths it
    does not draw."""

    outcomes: list
    boundary: float
    paid_all: float


def first_default_curve(counterparty, lambda_bar):
    """The first default's law: its hazard ``lambda_bar + lambda_C``."""
    lam_c = TermCurve.flat(0.0) if counterparty is None else counterparty.intensity
    return CreditCurve("first", combined((as_curve(lambda_bar), lam_c), np.add))


def counterparty_share(counterparty, lambda_bar, tau):
    """``lambda_C / (lambda_bar + lambda_C)`` at ``tau``: the probability
    that a first default at ``tau`` is the counterparty's."""
    if counterparty is None:
        return 0.0
    lam_c = counterparty.intensity.value(tau)
    total = as_curve(lambda_bar).value(tau) + lam_c
    return lam_c / total if total > 0.0 else 0.0


def stratified_levels(paths, seed, boundary):
    """The levels of the at-risk stratum's paths: ``max(2, round(paths *
    p))`` of them where ``p = 1 - boundary`` is positive, path ``i`` at
    ``boundary + p u_i`` for draw ``u_i`` of one ``PCG64`` stream."""
    p = 1.0 - boundary
    n = max(2, round(paths * p)) if p > 0.0 else 0
    return boundary + p * np.random.Generator(np.random.PCG64(seed)).random(n)


def drawn_levels(simulator, paths, seed):
    """``(levels, payoffs)`` of every path the pipeline draws for a
    simulator's ``(boundary, payoffs, paid_all, bound)``, in its order."""
    boundary, payoffs, paid_all, bound = simulator
    batches = [(np.empty(0), np.empty(0))]

    def keep(levels, out):
        payoffs(levels, out)
        batches.append((levels.copy(), out.copy()))

    oracle._simulate(paths, seed, boundary, keep, paid_all, bound)
    return tuple(np.concatenate(cols) for cols in zip(*batches))


def sample_path_outcomes(
    market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout, paths, seed
) -> Sample:
    """Per-path view of the simulator behind :func:`mc_value_independent`:
    the same pipeline and payoff map, keeping each drawn path's first
    default time and payoff.

    The pipeline must hand the map the levels of :func:`stratified_levels`
    in their order.  The default times come from the inverse survival map
    of the first default's hazard, which the level map agrees with."""
    simulator = oracle._first_default(
        market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
    )
    boundary, _, paid_all, _ = simulator
    levels, payoff = drawn_levels(simulator, paths, seed)
    np.testing.assert_array_equal(levels, stratified_levels(paths, seed, boundary))
    taus = first_default_curve(counterparty, lambda_bar).inverse_survival(levels)
    outcomes = [PathOutcome(float(w), float(t), float(x)) for w, t, x in zip(levels, taus, payoff)]
    return Sample(outcomes, boundary, paid_all)


def reference_estimate(sample, chunk=None):
    """``(mean, std_error)`` of a sample by the reference fold: the drawn
    payoffs chunk by chunk, in path order, then ``b * paid_all + p *
    mean`` and ``sqrt(p**2 M2 / (n - 1) / n)`` with ``p = 1 - b``."""
    b, p = sample.boundary, 1.0 - sample.boundary
    mean, variance = b * sample.paid_all, 0.0
    payoffs = [o.discounted_payoff for o in sample.outcomes]
    if payoffs:
        n, drawn_mean, m2 = chunked_mean_m2(payoffs, chunk or oracle._CHUNK)
        mean += p * drawn_mean
        variance += p * p * (m2 / (n - 1) / n)
    return mean, math.sqrt(variance)


def path_payoffs(simulator, w):
    """The payoff the pipeline pays each path of levels ``w`` for a
    simulator's ``(boundary, payoffs, paid_all, bound)``: the flow sum
    below the boundary, elsewhere the map's payoff, in one batch."""
    boundary, payoffs, paid_all, _ = simulator
    out = np.full(len(w), paid_all)
    drawn = np.flatnonzero(w >= boundary)
    mapped = np.empty(len(drawn))
    payoffs(np.ascontiguousarray(w[drawn]), mapped)
    out[drawn] = mapped
    return out


class TestRandomnessContract:
    def test_same_seed_same_estimate(self, flat_market, investor, closeout, mixed):
        a = mc_value_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout, 5000, 3)
        b = mc_value_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout, 5000, 3)
        assert a == b

    def test_different_seed_different_estimate(
        self, flat_market, investor, closeout, mixed
    ):
        a = mc_value_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout, 5000, 3)
        b = mc_value_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout, 5000, 4)
        assert a.mean != b.mean

    def test_prefix_paths_are_a_substream(self, flat_market, investor, counterparty, closeout, mixed):
        # the paths a 1000-path run draws are the first ones of a
        # 5000-path run, and path i takes draw i, so a worker owning its
        # paths from p0 on jumps the stream by p0 draws
        args = (flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout)
        big, small = (sample_path_outcomes(*args, paths, 17) for paths in (5000, 1000))
        assert 40 < len(small.outcomes) < len(big.outcomes)
        assert big.outcomes[: len(small.outcomes)] == small.outcomes
        b = big.boundary
        first = first_default_curve(counterparty, 0.02)
        for p0 in (0, len(small.outcomes) - 40, len(big.outcomes) - 40):
            bit = np.random.PCG64(17)
            bit.advance(p0)
            w = b + (1.0 - b) * np.random.Generator(bit).random(40)
            taus = [o.tau for o in big.outcomes[p0 : p0 + 40]]
            np.testing.assert_array_equal(taus, first.inverse_survival(w))

    def test_no_counterparty_draws_one_uniform_per_path(self):
        # drawn path i's tau is the internal curve's inverse survival of
        # b + (1 - b) u, u draw i of the seed's PCG64 stream: one uniform
        # per path, none spent on the counterparty that never defaults
        m = TestMultiFlowPayoffs
        paths, seed = 5003, 23
        args = (
            m.market, m.investor, None, 0.4, m.lambda_bar, m.schedule, m.closeout, paths, seed
        )
        sample = sample_path_outcomes(*args)
        b = sample.boundary
        assert len(sample.outcomes) == round(paths * (1.0 - b))
        w = b + (1.0 - b) * np.random.Generator(np.random.PCG64(seed)).random(len(sample.outcomes))
        internal = CreditCurve("internal", m.lambda_bar)
        tau = np.array([o.tau for o in sample.outcomes])
        np.testing.assert_array_equal(tau, internal.inverse_survival(w))
        assert np.all(tau <= m.schedule.maturity)
        # the estimate reduces exactly these paths
        mc = mc_value_independent(*args)
        assert (mc.mean, mc.std_error, mc.paths) == (*reference_estimate(sample), paths)

    @pytest.mark.parametrize("names", [1, 2])
    @pytest.mark.parametrize("p0", [60, 61, 2**18 + 3])
    def test_worker_partition_by_advance(self, monkeypatch, names, p0):
        # path i of the at-risk stratum takes draw i, with one name that
        # can default or two, and PCG64 spends one word per double, so a
        # worker owning paths [p0, p0 + 40) jumps the stream by p0 draws,
        # for any p0, and sees identical levels; a boundary of 0 draws
        # every path at its draw
        m = TestMultiFlowPayoffs
        monkeypatch.setattr(oracle, "_boundary", lambda intensity, seg, level_map: 0.0)
        counterparty = m.counterparty if names == 2 else None
        simulator = oracle._first_default(
            m.market, m.investor, counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout
        )
        seed, paths = 123, p0 + 40
        levels, _ = drawn_levels(simulator, paths, seed)
        assert len(levels) == paths
        bit = np.random.PCG64(seed)
        bit.advance(p0)
        np.testing.assert_array_equal(levels[p0:], np.random.Generator(bit).random(40))

    def test_input_validation(self, flat_market, investor, closeout, mixed):
        with pytest.raises(ValueError):
            mc_value_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout, 1, 3)
        with pytest.raises(ValueError):
            mc_value_independent(flat_market, investor, None, 0.4, 0.02, mixed, closeout, 100, -1)


class TestRiskfreeCptySimulator:
    def test_agrees_with_engine(self, flat_market, investor, closeout, mixed):
        engine = adjustment_independent(
            flat_market, investor, None, 0.4, 0.02, mixed, closeout
        ).value()
        mc = mc_value_independent(
            flat_market, investor, None, 0.4, 0.02, mixed, closeout, N, 42
        )
        assert abs(mc.mean - engine) <= 3.0 * mc.std_error
        assert mc.std_error < 1e-3

    def test_default_free_limit_is_exact(self, flat_market, investor, closeout, bullet):
        # lam_bar = 0: no randomness left, the MC price is the
        # discounted cashflow sum itself
        engine = adjustment_independent(
            flat_market, investor, None, 0.4, 0.0, bullet, closeout
        ).value()
        mc = mc_value_independent(flat_market, investor, None, 0.4, 0.0, bullet, closeout, 1000, 5)
        # every path is identical; the std error collapses to rounding noise
        assert mc.std_error <= 1e-15
        assert mc.mean == pytest.approx(engine, abs=1e-12)
        assert mc.mean == pytest.approx(math.exp(-0.022 * 5.0), rel=1e-14)

    @pytest.mark.parametrize("paths", [2, oracle._CHUNK + 3])
    def test_all_survivor_limit_is_exact(self, flat_market, investor, closeout, bullet, paths):
        # lam_bar = 0: the boundary is 1, every path is in the survivor
        # stratum, paid the flow sum, with no rounding left to collapse
        args = (flat_market, investor, None, 0.4, 0.0, bullet, closeout)
        simulator = oracle._first_default(*args)
        assert simulator[0] == 1.0
        mc = mc_value_independent(*args, paths, 5)
        assert mc.mean == simulator[2]
        assert mc.std_error == 0.0

    def test_estimate_metadata(self, flat_market, investor, closeout, bullet):
        mc = mc_value_independent(flat_market, investor, None, 0.4, 0.01, bullet, closeout, 2500, 8)
        assert mc.paths == 2500
        assert mc.seed == 8

    def test_zero_hazard_counterparty_is_none(self):
        # riskfree_cpty is independent with lambda_C = 0: a counterparty
        # of zero hazard samples the same time from the same draws as none,
        # on every point of the shipped sweep and on a piecewise lambda_bar
        cfg = cli.load_config(ROOT / "configs" / "independent_nocpty_bullet.json")
        zero = cfg.counterparty
        assert zero.intensity == TermCurve.flat(0.0)
        piecewise = TermCurve.from_nodes([(0.0, 0.01), (0.3, 0.05), (0.7, 0.0)])
        for seed, lambda_bar in enumerate([*cfg.lambda_bar_sweep, piecewise]):
            estimates = [
                mc_value_independent(
                    cfg.market, cfg.investor, counterparty, cfg.bond_recovery, lambda_bar,
                    cfg.schedule, cfg.closeout, 20_000, seed,
                )
                for counterparty in (None, zero)
            ]
            assert [(e.mean, e.std_error) for e in estimates[1:]] == [
                (estimates[0].mean, estimates[0].std_error)
            ]


class TestDrawless:
    """Where nothing can default, the boundary is 1: the simulation draws
    nothing, and its estimate is the flow sum."""

    @pytest.mark.parametrize("paths", [2, oracle._CHUNK + 3])
    def test_no_uniform_drawn(self, monkeypatch, flat_market, investor, closeout, mixed, paths):
        calls = []

        class Spy(np.random.Generator):
            def random(self, *args, **kwargs):
                calls.append(kwargs)
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        zero = CreditCurve("C", TermCurve.flat(0.0))
        cases = [
            ("riskfree_cpty", oracle._first_default, mc_value_independent,
             (flat_market, investor, None, 0.4, 0.0, mixed, closeout)),
            ("independent", oracle._first_default, mc_value_independent,
             (flat_market, investor, zero, 0.4, 0.0, mixed, closeout)),
            ("correlated", oracle._dependent_default, mc_value_correlated,
             (flat_market, JointDefaultModel(investor, zero, 1.5), mixed, closeout)),
        ]
        for name, build, simulate, args in cases:
            boundary, _, paid_all, _ = build(*args)
            assert boundary == 1.0, name
            est = simulate(*args, paths, 11)
            assert calls == [], name
            assert (est.mean, est.std_error, est.paths) == (paid_all, 0.0, paths)
        # the spy sees the draws of a name that can default
        mc_value_independent(flat_market, investor, zero, 0.4, 0.02, mixed, closeout, 2, 11)
        assert len(calls) == 1


class TestIndependentSimulator:
    def test_agrees_with_engine_mixed(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        engine = adjustment_independent(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout
        ).value()
        mc = mc_value_independent(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, N, 7
        )
        assert abs(mc.mean - engine) <= 3.0 * mc.std_error

    def test_agrees_with_engine_bullet(
        self, flat_market, investor, counterparty, closeout, bullet
    ):
        engine = adjustment_independent(
            flat_market, investor, counterparty, 0.4, 0.0, bullet, closeout
        ).value()
        mc = mc_value_independent(
            flat_market, investor, counterparty, 0.4, 0.0, bullet, closeout, N, 7
        )
        assert abs(mc.mean - engine) <= 3.0 * mc.std_error

    def test_estimate_matches_path_outcomes(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        n = 4000
        mc = mc_value_independent(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, n, 21
        )
        sample = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, n, 21
        )
        assert (mc.mean, mc.std_error) == reference_estimate(sample)

    def test_agrees_with_two_sampled_names(self):
        # competing risks: sampling both default times and settling the
        # closeout of whoever defaults first has the same mean as the
        # first default of lambda_bar + lambda_C settling the mix of the
        # two closeouts; crude two-name paths, paid flow by flow
        m, table = TestMultiFlowPayoffs, TestSegmentTable()
        args = (m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout)
        mc = mc_value_independent(*args, 100_000, 3)
        w = np.random.Generator(np.random.PCG64(4)).random((2, 8000))
        tau_i = CreditCurve("internal", m.lambda_bar).inverse_survival(w[0])
        tau_c = m.counterparty.inverse_survival(w[1])
        r_bar = internal_rate(m.market, m.investor, 0.4, m.lambda_bar)
        crude = [
            table.first_default_expected(m.schedule, min(ti, tc), r_bar, share=float(tc < ti))
            for ti, tc in zip(tau_i.tolist(), tau_c.tolist())
        ]
        se = math.hypot(mc.std_error, float(np.std(crude, ddof=1)) / math.sqrt(len(crude)))
        assert abs(mc.mean - float(np.mean(crude))) <= 3.0 * se


class TestCorrelatedSimulator:
    def test_agrees_with_engine_theta_one(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        model = JointDefaultModel(investor, counterparty, 1.0)
        engine = adjustment_correlated(flat_market, model, mixed, closeout).value()
        mc = mc_value_correlated(flat_market, model, mixed, closeout, N, 11)
        assert abs(mc.mean - engine) <= 3.0 * mc.std_error

    def test_agrees_with_engine_theta_three(
        self, flat_market, investor, counterparty, closeout, bullet
    ):
        model = JointDefaultModel(investor, counterparty, 3.0)
        engine = adjustment_correlated(flat_market, model, bullet, closeout).value()
        mc = mc_value_correlated(flat_market, model, bullet, closeout, N, 11)
        assert abs(mc.mean - engine) <= 3.0 * mc.std_error

    def test_theta_zero_agrees_with_independent_engine(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        model = JointDefaultModel(investor, counterparty, 0.0)
        engine = adjustment_independent(
            flat_market, investor, counterparty, 0.0, 0.0, mixed, closeout
        ).value()
        mc = mc_value_correlated(flat_market, model, mixed, closeout, N, 13)
        assert abs(mc.mean - engine) <= 3.0 * mc.std_error


    @pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e-22])
    def test_product_law_below_threshold(
        self, flat_market, investor, counterparty, closeout, mixed, theta
    ):
        tiny, zero = (
            mc_value_correlated(
                flat_market, JointDefaultModel(investor, counterparty, th), mixed, closeout, 4096, 23
            )
            for th in (theta, 0.0)
        )
        assert (tiny.mean, tiny.std_error) == (zero.mean, zero.std_error)


class TestJointSampling:
    def test_empirical_joint_survival(self, investor, counterparty):
        model = JointDefaultModel(investor, counterparty, 1.0)
        tau_i, tau_c = sample_joint_defaults(model, N, 5)
        for a, b in [(1.0, 2.0), (3.0, 1.0), (5.0, 5.0)]:
            p = model.joint_survival(a, b)
            se = math.sqrt(p * (1.0 - p) / N)
            p_hat = float(np.mean((tau_i > a) & (tau_c > b)))
            assert abs(p_hat - p) <= 3.0 * se

    def test_empirical_marginals(self, investor, counterparty):
        # the copula must not distort either marginal law
        model = JointDefaultModel(investor, counterparty, 1.0)
        tau_i, tau_c = sample_joint_defaults(model, N, 5)
        for t in (1.0, 4.0):
            for tau, lam in ((tau_i, 0.02), (tau_c, 0.03)):
                p = math.exp(-lam * t)
                se = math.sqrt(p * (1.0 - p) / N)
                assert abs(float(np.mean(tau > t)) - p) <= 3.0 * se

    def test_theta_zero_sampling_is_independent(self, investor, counterparty):
        model = JointDefaultModel(investor, counterparty, 0.0)
        tau_i, tau_c = sample_joint_defaults(model, N, 9)
        x = (tau_i > 5.0).astype(float)
        y = (tau_c > 5.0).astype(float)
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) <= 3.0 / math.sqrt(N)

    def test_subnormal_theta_samples_as_independent(self, investor, counterparty):
        # below the independence threshold the copula is the product law
        # at double precision; the sampler must not feed a subnormal
        # exponent into the inversion formula
        indep = JointDefaultModel(investor, counterparty, 0.0)
        tiny = JointDefaultModel(investor, counterparty, 5e-324)
        ti0, tc0 = sample_joint_defaults(indep, 4000, 21)
        ti1, tc1 = sample_joint_defaults(tiny, 4000, 21)
        np.testing.assert_array_equal(ti1, ti0)
        np.testing.assert_array_equal(tc1, tc0)

    def test_weak_dependence_stays_close_to_independent(
        self, investor, counterparty
    ):
        # theta = 1e-16 once collapsed every counterparty default to t = 0
        # through the 1 - w**theta cancellation; the expm1 form keeps the
        # perturbation at the theta * H**2 scale
        indep = JointDefaultModel(investor, counterparty, 0.0)
        weak = JointDefaultModel(investor, counterparty, 1e-16)
        ti0, tc0 = sample_joint_defaults(indep, 4000, 21)
        ti1, tc1 = sample_joint_defaults(weak, 4000, 21)
        np.testing.assert_array_equal(ti1, ti0)
        finite = np.isfinite(tc0)
        assert np.array_equal(finite, np.isfinite(tc1))
        assert float(np.max(np.abs(tc1[finite] - tc0[finite]))) < 1e-9

    def test_dependence_raises_joint_survival(self, investor, counterparty):
        loose = JointDefaultModel(investor, counterparty, 0.0)
        tight = JointDefaultModel(investor, counterparty, 3.0)
        ti0, tc0 = sample_joint_defaults(loose, N, 31)
        ti3, tc3 = sample_joint_defaults(tight, N, 31)
        both0 = float(np.mean((ti0 > 5.0) & (tc0 > 5.0)))
        both3 = float(np.mean((ti3 > 5.0) & (tc3 > 5.0)))
        assert both3 > both0

    def test_never_defaulting_name(self, counterparty):
        immortal = CreditCurve("I", TermCurve.flat(0.0))
        model = JointDefaultModel(immortal, counterparty, 0.0)
        tau_i, tau_c = sample_joint_defaults(model, 1000, 2)
        assert np.all(np.isinf(tau_i))
        assert np.all(np.isfinite(tau_c))


class TestPathOutcomes:
    def test_payoff_reconstruction(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        sample = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, 500, 33
        )
        # r_bar = 0.01 for this configuration; a default is the
        # counterparty's with probability 0.03 / (0.02 + 0.03)
        from valadj import collateral_value

        share = 0.03 / (0.02 + 0.03)
        for o in sample.outcomes:
            expected = sum(
                a * math.exp(-0.01 * t)
                for t, a in zip(mixed.times, mixed.amounts)
                if o.tau > t
            )
            if o.tau <= mixed.maturity:
                vx = collateral_value(mixed, flat_market.collateral, o.tau)
                k_i, k_c = closeout_values(closeout, vx)
                expected += (k_i + share * (k_c - k_i)) * math.exp(-0.01 * o.tau)
            assert o.discounted_payoff == pytest.approx(expected, abs=1e-12)

    def test_survivor_paths_collect_all_flows(
        self, flat_market, investor, counterparty, closeout, bullet
    ):
        # survivors are not drawn: the survivor stratum, every level
        # below the boundary, is paid the flow sum, as the map pays the
        # level just below the boundary
        args = (flat_market, investor, counterparty, 0.4, 0.02, bullet, closeout)
        sample = sample_path_outcomes(*args, 500, 4)
        assert all(o.tau <= 5.0 for o in sample.outcomes)
        assert sample.paid_all == pytest.approx(math.exp(-0.01 * 5.0), rel=1e-14)
        below = np.nextafter(sample.boundary, 0.0)
        _, payoffs, _, _ = oracle._first_default(*args)
        out = np.empty(1)
        payoffs(np.array([below]), out)
        assert out[0] == sample.paid_all


class TestMultiFlowPayoffs:
    """Flow payoffs on a multi-flow schedule under piecewise curves,
    rebuilt path by path from the default times."""

    market = MarketRates(
        TermCurve.from_nodes([(0.0, 0.01), (1.25, 0.03), (3.0, 0.02)]),
        TermCurve.from_nodes([(0.0, 0.004), (2.0, 0.015), (4.5, 0.01)]),
    )
    investor = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.1), (2.0, 0.2)]))
    counterparty = CreditCurve("C", TermCurve.from_nodes([(0.0, 0.15), (1.5, 0.08)]))
    lambda_bar = TermCurve.from_nodes([(0.0, 0.05), (3.0, 0.12)])
    closeout = CloseoutSpec(recovery_investor=0.3, recovery_counterparty=0.55)
    # v_X changes sign; no flow between the last date and maturity
    schedule = CashflowSchedule.from_flows(
        [(0.5, 0.3), (1.0, -0.7), (1.5, 0.4), (2.25, 1.1), (3.0, -0.2), (4.0, -0.9)],
        maturity=6.0,
    )
    flows = list(zip(schedule.times, schedule.amounts))

    def test_path_outcomes_reconstruction(self):
        sample = sample_path_outcomes(
            self.market, self.investor, self.counterparty, 0.4, self.lambda_bar,
            self.schedule, self.closeout, 3000, 41,
        )
        r_bar = internal_rate(self.market, self.investor, 0.4, self.lambda_bar)
        all_flows = sum(a * math.exp(-r_bar.integrated_rate(0.0, t)) for t, a in self.flows)
        # the survivor stratum, not drawn
        assert sample.paid_all == pytest.approx(all_flows, abs=1e-15)
        kinds = {"before_last_flow": 0, "after_last_flow": 0}
        for o in sample.outcomes:
            expected = sum(
                a * math.exp(-r_bar.integrated_rate(0.0, t)) for t, a in self.flows if o.tau > t
            )
            if o.tau <= self.schedule.maturity:
                vx = naive_collateral_value(self.flows, self.market.collateral, o.tau)
                k_i, k_c = closeout_values(self.closeout, vx)
                share = counterparty_share(self.counterparty, self.lambda_bar, o.tau)
                expected += (k_i + share * (k_c - k_i)) * math.exp(
                    -r_bar.integrated_rate(0.0, o.tau)
                )
            assert o.discounted_payoff == pytest.approx(expected, abs=1e-12)
            assert o.tau <= self.schedule.maturity
            if o.tau > self.schedule.times[-1]:
                # every flow paid, nothing left to close out
                kinds["after_last_flow"] += 1
                assert o.discounted_payoff == pytest.approx(all_flows, abs=1e-15)
            else:
                kinds["before_last_flow"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_correlated_matches_per_path_loop(self):
        model = JointDefaultModel(self.investor, self.counterparty, 1.5)
        paths, seed = 4000, 29
        mc = mc_value_correlated(self.market, model, self.schedule, self.closeout, paths, seed)

        # the survivor stratum below b pays every flow; the paths drawn
        # above it default by maturity
        b, _, _, _ = oracle._dependent_default(self.market, model, self.schedule, self.closeout)
        n = round(paths * (1.0 - b))
        w = b + (1.0 - b) * np.random.Generator(np.random.PCG64(seed)).random(n)
        taus = model.counterparty.inverse_survival(w)
        r = self.market.risk_free

        def weight(t):
            return math.exp(
                -r.integrated_rate(0.0, t)
                + model.log_joint_survival(t, t)
                + model.counterparty.cumulative_hazard(t)
            )

        payoffs = []
        for tau in taus:
            p = sum(a * weight(t) for t, a in self.flows if tau > t)
            if tau <= self.schedule.maturity:
                vx = naive_collateral_value(self.flows, self.market.collateral, tau)
                p += closeout_values(self.closeout, vx)[1] * weight(tau)
            payoffs.append(p)
        payoffs = np.array(payoffs)
        assert np.all(taus <= self.schedule.maturity)
        assert np.count_nonzero(taus > self.schedule.times[-1]) > 0
        all_flows = sum(a * weight(t) for t, a in self.flows)
        mean = b * all_flows + (1.0 - b) * float(np.mean(payoffs))
        assert mc.mean == pytest.approx(mean, abs=1e-12)
        assert mc.std_error == pytest.approx(
            (1.0 - b) * float(np.std(payoffs, ddof=1) / math.sqrt(n)), abs=1e-12
        )


class TestBlockSize:
    """Paths run in blocks sized for the cache; the block size must not
    show in any estimate or path."""

    def test_results_do_not_depend_on_block_size(self, monkeypatch):
        m = TestMultiFlowPayoffs
        model = JointDefaultModel(m.investor, m.counterparty, 1.5)
        paths, seed = 5003, 19  # a multiple of neither block size below
        args = (m.market, m.investor)
        sims = {
            "riskfree_cpty": lambda: mc_value_independent(
                *args, None, 0.4, m.lambda_bar, m.schedule, m.closeout, paths, seed
            ),
            "independent": lambda: mc_value_independent(
                *args, m.counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout, paths, seed
            ),
            "correlated": lambda: mc_value_correlated(
                m.market, model, m.schedule, m.closeout, paths, seed
            ),
            "path_outcomes": lambda: sample_path_outcomes(
                *args, m.counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout, paths, seed
            ),
        }
        runs = {}
        for block in (7, 4096, paths, 2**20):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            runs[block] = {name: sim() for name, sim in sims.items()}
        for block in (4096, paths, 2**20):
            assert runs[block] == runs[7]
        sample = runs[7]["path_outcomes"]
        assert len(sample.outcomes) == round(paths * (1.0 - sample.boundary)) == 3329
        assert all(o.tau <= m.schedule.maturity for o in sample.outcomes)

    def test_chunked_results_do_not_depend_on_block_size(self, monkeypatch):
        # 3329 at-risk paths in chunks of 1000, the last partial; blocks
        # of 7 and 4096 paths divide neither, 2**20 is cut down to a chunk
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        self.test_results_do_not_depend_on_block_size(monkeypatch)

    @pytest.mark.parametrize(
        "lambda_bar, chunk, boundary_off",
        [(0.0, None, False), (0.0, 1000, False), (1e-4, 1000, False),
         (TestMultiFlowPayoffs.lambda_bar, None, True),
         (TestMultiFlowPayoffs.lambda_bar, 1000, True)],
        ids=["none_at_risk", "none_at_risk_six_chunks", "a_chunk_without_risk_of_six",
             "every_path_at_risk", "every_path_at_risk_six_chunks"],
    )
    def test_chunks_without_survivors_or_at_risk_paths(
        self, monkeypatch, lambda_bar, chunk, boundary_off
    ):
        # where no path can default nothing is drawn; where one in 1700
        # can, 3 paths are, where most of a crude run's six chunks would
        # hold none; a boundary of 0 draws every path, survivors too, as
        # crude sampling does
        m = TestMultiFlowPayoffs
        paths, seed = 5003, 19
        if chunk:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
        if boundary_off:
            monkeypatch.setattr(oracle, "_boundary", lambda intensity, seg, level_map: 0.0)
        counterparty = m.counterparty if boundary_off else None
        args = (m.market, m.investor, counterparty, 0.4, lambda_bar, m.schedule, m.closeout)
        sims = {
            "estimate": lambda: mc_value_independent(*args, paths, seed),
            "path_outcomes": lambda: sample_path_outcomes(*args, paths, seed),
        }
        runs = {}
        for block in (7, 4096, paths, 2**20):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            runs[block] = {name: sim() for name, sim in sims.items()}
        for block in (4096, paths, 2**20):
            assert runs[block] == runs[7]
        sample, mc = runs[7]["path_outcomes"], runs[7]["estimate"]
        assert (mc.mean, mc.std_error, mc.paths) == (*reference_estimate(sample, chunk), paths)
        if boundary_off:
            assert len(sample.outcomes) == paths
            survived = sum(o.tau > m.schedule.maturity for o in sample.outcomes)
            assert 0 < survived < paths
        else:
            assert len(sample.outcomes) == (3 if lambda_bar > 0.0 else 0)


class TestContiguousColumns:
    """The levels reach the level map, and each name's levels the inverse
    survival maps, as a contiguous column, where the elementwise passes
    run at unit stride."""

    m = TestMultiFlowPayoffs

    def spy(self, monkeypatch, owner, name):
        seen = []
        original = getattr(owner, name)

        def spying(*args):
            seen.extend(a for a in args if isinstance(a, np.ndarray))
            return original(*args)

        monkeypatch.setattr(owner, name, spying)
        return seen

    def test_simulator_columns_are_contiguous(self, monkeypatch):
        m = self.m
        monkeypatch.setattr(oracle, "_BLOCK", 1000)
        args = (m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout)
        seen = []
        levels = oracle._Segments.levels

        def spying(seg, intensity):
            level_map = levels(seg, intensity)

            def level(w):
                seen.append(w)
                return level_map(w)

            return level

        monkeypatch.setattr(oracle._Segments, "levels", spying)
        boundary = oracle._first_default(*args)[0]
        seen.clear()
        mc_value_independent(*args, 5000, 3)
        assert all(w.ndim == 1 and w.flags.c_contiguous for w in seen)
        # the at-risk stratum's blocks, after the boundary search
        n = round(5000 * (1.0 - boundary))
        blocks = [min(1000, n - start) for start in range(0, n, 1000)]
        assert [len(w) for w in seen[-len(blocks) :]] == blocks and len(seen) > len(blocks)

    def test_joint_sampling_columns_are_contiguous(self, monkeypatch):
        m = self.m
        levels = self.spy(monkeypatch, CreditCurve, "inverse_survival")
        copula = self.spy(monkeypatch, oracle, "_conditional_inverse")
        sample_joint_defaults(JointDefaultModel(m.investor, m.counterparty, 1.5), 5000, 3)
        assert len(levels) == 2 and len(copula) == 2
        assert all(w.ndim == 1 and w.flags.c_contiguous for w in levels + copula)

    def test_copy_moves_no_bit(self):
        m = self.m
        _, payoffs, _, _ = oracle._first_default(
            m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout
        )
        wide = np.random.Generator(np.random.PCG64(8)).random((4000, 4))
        strided = wide[:, ::2]
        assert not strided[:, 0].flags.c_contiguous
        got, want = np.empty(len(wide)), np.empty(len(wide))
        payoffs(strided[:, 0], got)
        payoffs(strided[:, 0].copy(), want)
        assert got.tobytes() == want.tobytes()
        # the maps themselves do not depend on the stride of their levels
        for curve in (m.investor, m.counterparty):
            got = curve.inverse_survival(strided[:, 1])
            assert got.tobytes() == curve.inverse_survival(strided[:, 1].copy()).tobytes()


class TestChunkedReduction:
    """Payoffs are reduced in chunks of ``_CHUNK`` paths, each to
    ``(n, mean, M2)``, and the chunks are merged in index order."""

    m = TestMultiFlowPayoffs
    paths = 5003  # six chunks of 1000, the last one partial

    def test_matches_reference_fold(self, monkeypatch):
        m = self.m
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        args = (
            m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule,
            m.closeout, self.paths, 29,
        )
        mc = mc_value_independent(*args)
        sample = sample_path_outcomes(*args)
        assert (mc.paths, mc.mean, mc.std_error) == (self.paths, *reference_estimate(sample, 1000))
        payoffs = np.array([o.discounted_payoff for o in sample.outcomes])
        assert len(payoffs) > 3000  # four chunks
        n, mean, m2 = chunked_mean_m2(payoffs, 1000)
        # the whole stratum's statistics, up to the merge's rounding
        for got, want in ((mean, np.mean(payoffs)), (m2 / (n - 1), np.var(payoffs, ddof=1))):
            assert abs(got - want) <= 4 * np.spacing(abs(want))

    @pytest.mark.parametrize("exponent", [400, 600, 1000])
    def test_scaled_reduction_is_exact(self, monkeypatch, exponent):
        # payoffs whose squares could overflow (past 2**504 at 5003 paths)
        # reduce scaled by a power of two, and scale back to the bits of
        # the unscaled reduction
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        payoffs = np.random.Generator(np.random.PCG64(3)).normal(1.0, 0.5, self.paths)
        bound = float(np.max(np.abs(payoffs)))

        def simulate(factor):
            # a boundary of 0 draws every path
            done = [0]

            def mapped(levels, out):
                out[:] = payoffs[done[0] : done[0] + len(out)] * factor
                done[0] += len(out)

            with np.errstate(over="raise", invalid="raise"):
                return oracle._simulate(self.paths, 1, 0.0, mapped, 0.0, bound * factor)

        small, large = simulate(1.0), simulate(2.0**exponent)
        assert large.mean == small.mean * 2.0**exponent
        assert large.std_error == small.std_error * 2.0**exponent
        scaled = oracle._scale(self.paths, bound * 2.0**exponent) < 1.0
        assert scaled == (exponent > 500)

    def test_default_free_limit_is_exact_across_chunks(
        self, monkeypatch, flat_market, investor, closeout, bullet
    ):
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        mc = mc_value_independent(
            flat_market, investor, None, 0.4, 0.0, bullet, closeout, self.paths, 5
        )
        assert mc.std_error <= 1e-15
        assert mc.mean == pytest.approx(math.exp(-0.022 * 5.0), rel=1e-14)

    def test_memory_is_flat_in_paths(
        self, monkeypatch, flat_market, investor, counterparty, closeout, mixed
    ):
        # numpy reports its buffers to tracemalloc.  The first call warms
        # one-time caches; then 56 more chunks must not raise the peak by
        # more than rounding noise, where a payoff vector would add 3.7 MB
        monkeypatch.setattr(oracle, "_CHUNK", 4096)
        peaks = []
        for paths in (8 * 4096, 8 * 4096, 64 * 4096):
            tracemalloc.start()
            try:
                mc_value_independent(
                    flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, paths, 3
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] <= 2**14, peaks


class TestHeapPeak:
    """A simulation of ``_CHUNK`` paths keeps its heap peak under the
    ~4 MiB trim threshold that freeing the chunk buffer sets, so the heap
    keeps the block and batch temporaries instead of trimming and
    refaulting them every batch.  The trade is long_mc-shaped: 10-node
    curves, 120 quarterly flows and both names, where most paths default
    and where just under a quarter can."""

    @staticmethod
    def curve(lo, hi):
        times = [0.0] + [3.0 * k for k in range(1, 10)]
        return TermCurve.from_nodes([(t, lo + (hi - lo) * (7 * k % 10) / 9) for k, t in
                                     enumerate(times)])

    @pytest.mark.parametrize(
        "hazards, most", [((0.05, 0.07), True), ((0.0031, 0.0062), False)],
        ids=["most_default", "just_under_a_quarter"],
    )
    def test_peak_at_most_3_75_mib(self, hazards, most):
        market = MarketRates(self.curve(0.01, 0.04), self.curve(0.005, 0.03))
        investor = CreditCurve("I", self.curve(0.01, 0.025))
        counterparty = CreditCurve("C", self.curve(*hazards))
        lambda_bar = self.curve(*hazards)
        schedule = CashflowSchedule.from_flows(
            [(k / 4, (-1.25 if k <= 60 else 1.0) * (0.5 + k % 7 / 6)) for k in range(1, 121)]
        )
        closeout = CloseoutSpec(0.4, 0.3)
        model = JointDefaultModel(investor, counterparty, 1.5)
        if most:
            for curve in (lambda_bar, counterparty.intensity):
                assert CreditCurve("N", curve).survival(schedule.maturity) < 0.25
        first = (market, investor, None, 0.2, lambda_bar, schedule, closeout)
        both = (market, investor, counterparty, 0.2, lambda_bar, schedule, closeout)
        sims = {
            "riskfree_cpty": (oracle._first_default(*first), mc_value_independent, first),
            "independent": (oracle._first_default(*both), mc_value_independent, both),
            "correlated": (
                oracle._dependent_default(market, model, schedule, closeout),
                mc_value_correlated, (market, model, schedule, closeout),
            ),
        }
        if not most:
            # with both names' hazards, 24.3% of the paths can default
            (boundary, _, _, _), _, _ = sims["independent"]
            assert 0.75 <= boundary < 0.76
        peaks = {}
        for name, (_, simulate, args) in sims.items():
            simulate(*args, oracle._CHUNK, 5)  # warms one-time caches
            tracemalloc.start()
            try:
                simulate(*args, oracle._CHUNK, 5)
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 3.75, peaks


class TestSegmentTable:
    """Per-path payoffs at chosen default times, against a flow-by-flow
    rebuild: each default lands on a flow date, on a curve node that is
    not a flow date, at 0, at maturity or after the last flow.

    The level map is replaced by a plain lookup of default times in the
    grid, so the simulator's uniforms are the default times themselves.
    The simulation returns the payoff map's vector over every default
    time instead of the estimate.
    """

    m = TestMultiFlowPayoffs
    theta = 1.5
    # each node on a time of its own; r_bar has those of r, lam_I and
    # lambda_bar
    investor = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.1), (2.6, 0.2)]))
    counterparty = CreditCurve("C", TermCurve.from_nodes([(0.0, 0.15), (3.5, 0.08)]))
    lambda_bar = TermCurve.from_nodes([(0.0, 0.05), (0.8, 0.12)])
    # flows at 0.5, 1, 1.5, 2.25, 3, 4 and maturity 6.  Nodes off the
    # flow dates: r at 1.25, r_X at 2 and 4.5, lam_I at 2.6, lam_C at
    # 3.5, lambda_bar at 0.8; r has one at 3, a flow date
    taus = [
        0.0, 0.5, 1.0, 1.5, 3.0, 4.0,  # flow dates
        1.25, 2.0, 4.5, 2.6, 3.5, 0.8,  # nodes that are not flow dates
        0.3, 2.7, 5.0, 5.999,  # inside segments, the last two after the last flow
        0.9, 1.3, 2.1, 2.8, 3.7, 4.7,  # just past each node
        np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
        6.0, 6.5, math.inf,  # maturity, then surviving paths
    ]
    at_last_flow = CashflowSchedule.from_flows(list(zip(m.schedule.times, m.schedule.amounts)))

    def payoffs(self, monkeypatch, simulate, taus):
        def payoff_vector(paths, seed, boundary, payoffs, paid_all, bound):
            out = np.empty(len(taus))
            payoffs(np.array(taus), out)
            return out

        monkeypatch.setattr(
            oracle._Segments, "levels", lambda seg, intensity: lambda tau: naive_locate(seg, tau)
        )
        monkeypatch.setattr(oracle, "_simulate", payoff_vector)
        return simulate()

    def first_default_expected(self, schedule, tau, r_bar, share=0.0, market=m.market):
        """Flows before a first default at ``tau``, and the closeout
        ``k_I + share (k_C - k_I)`` if it is by maturity."""
        flows = list(zip(schedule.times, schedule.amounts))
        out = sum(
            a * math.exp(-piecewise_integral(r_bar, 0.0, t)) for t, a in flows if t < tau
        )
        if tau <= schedule.maturity:
            vx = naive_collateral_value(flows, market.collateral, tau)
            k_i, k_c = closeout_values(self.m.closeout, vx)
            out += (k_i + share * (k_c - k_i)) * math.exp(-piecewise_integral(r_bar, 0.0, tau))
        return out

    def correlated_expected(self, schedule, tau):
        flows = list(zip(schedule.times, schedule.amounts))
        m = self.m

        def weight(t):
            h_i = piecewise_integral(self.investor.intensity, 0.0, t)
            h_c = piecewise_integral(self.counterparty.intensity, 0.0, t)
            diagonal = (
                math.exp(self.theta * h_i) + math.exp(self.theta * h_c) - 1.0
            ) ** (-1.0 / self.theta)
            return math.exp(-piecewise_integral(m.market.risk_free, 0.0, t) + h_c) * diagonal

        out = sum(a * weight(t) for t, a in flows if t < tau)
        if tau <= schedule.maturity:
            vx = naive_collateral_value(flows, m.market.collateral, tau)
            out += closeout_values(m.closeout, vx)[1] * weight(tau)
        return out

    @pytest.mark.parametrize("maturity_after_last_flow", [True, False])
    def test_riskfree_cpty(self, monkeypatch, maturity_after_last_flow):
        m = self.m
        schedule = m.schedule if maturity_after_last_flow else self.at_last_flow
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_independent(
                m.market, self.investor, None, 0.4, self.lambda_bar, schedule, m.closeout,
                len(self.taus), 1,
            ),
            self.taus,
        )
        r_bar = internal_rate(m.market, self.investor, 0.4, self.lambda_bar)
        for tau, p in zip(self.taus, got):
            expected = self.first_default_expected(schedule, tau, r_bar)
            assert p == pytest.approx(expected, abs=1e-12), tau

    @pytest.mark.parametrize("maturity_after_last_flow", [True, False])
    def test_independent(self, monkeypatch, maturity_after_last_flow):
        # a first default settles the closeouts mixed by the names' shares
        # of the hazard there, right-continuous at a node, so lambda_C's
        # node at 3.5 moves the share but no flow or v_X
        m = self.m
        schedule = m.schedule if maturity_after_last_flow else self.at_last_flow
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_independent(
                m.market, self.investor, self.counterparty, 0.4, self.lambda_bar,
                schedule, m.closeout, len(self.taus), 1,
            ),
            self.taus,
        )
        r_bar = internal_rate(m.market, self.investor, 0.4, self.lambda_bar)
        shares = set()
        for tau, p in zip(self.taus, got):
            share = 0.0  # no closeout past maturity
            if tau <= schedule.maturity:
                share = counterparty_share(self.counterparty, self.lambda_bar, tau)
                shares.add(share)
            expected = self.first_default_expected(schedule, tau, r_bar, share)
            assert p == pytest.approx(expected, abs=1e-12), tau
        assert len(shares) == 3  # the hazard mixes before 0.8, before 3.5 and after

    @pytest.mark.parametrize("maturity_after_last_flow", [True, False])
    def test_correlated(self, monkeypatch, maturity_after_last_flow):
        m = self.m
        schedule = m.schedule if maturity_after_last_flow else self.at_last_flow
        model = JointDefaultModel(self.investor, self.counterparty, self.theta)
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_correlated(m.market, model, schedule, m.closeout, len(self.taus), 1),
            self.taus,
        )
        for tau, p in zip(self.taus, got):
            assert p == pytest.approx(self.correlated_expected(schedule, tau), abs=1e-12), tau

    def test_long_segments_at_a_high_collateral_rate(self, monkeypatch):
        # v_X(0) = exp(-999) underflows, yet a default at 999.5 settles
        # against exp(-0.5); past the last flow, r_X grows by exp(790)
        # over a segment whose v_X is 0
        market = MarketRates(TermCurve.flat(0.0), TermCurve.flat(1.0))
        investor = CreditCurve("I", TermCurve.flat(0.02))
        schedule = CashflowSchedule.from_flows([(1.0, 1.0), (1000.0, 1.0)], maturity=1800.0)
        taus = [0.5, 999.5, 1000.0, 1790.0, math.inf]
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_independent(
                market, investor, None, 0.4, 0.02, schedule, self.m.closeout, len(taus), 1
            ),
            taus,
        )
        r_bar = internal_rate(market, investor, 0.4, 0.02)
        assert got[1] > 1e-6
        for tau, p in zip(taus, got):
            expected = self.first_default_expected(schedule, tau, r_bar, market=market)
            assert p == pytest.approx(expected, abs=1e-12), tau

    def test_one_collateral_value_per_simulation(self, monkeypatch):
        m = self.m
        calls = []
        original = oracle.collateral_value

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "collateral_value", counting)
        monkeypatch.setattr(oracle, "_BLOCK", 1000)
        mc_value_independent(
            m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule,
            m.closeout, 5000, 3,
        )
        model = JointDefaultModel(m.investor, m.counterparty, self.theta)
        mc_value_correlated(m.market, model, m.schedule, m.closeout, 5000, 3)
        assert len(calls) == 2


class TestLevelMap:
    """A simulator locates a path by one lookup of its hazard level ``-log
    w`` among the sampled hazard's cumulative values on the grid.  It
    agrees with the inverse survival map followed by a plain lookup of
    the default time in the grid, and a level on a knot defaults exactly
    at that grid point, the first one where zero hazard leaves several."""

    m = TestMultiFlowPayoffs
    LOG2 = math.log(2.0)  # -log(0.5), exactly

    def segments(self, schedule, intensity):
        collateral = self.m.market.collateral
        grid = oracle._segment_grid(schedule, (collateral, intensity))
        return oracle._Segments(schedule, collateral, grid, np.zeros(len(grid)))

    @pytest.mark.parametrize(
        "nodes",
        [
            [(0.0, 0.0), (1.25, 0.2), (3.0, 0.1)],
            [(0.0, 0.1), (1.5, 0.0), (3.0, 0.2)],
            [(0.0, 0.1), (3.5, 0.0)],
            [(0.0, 0.15)],
        ],
        ids=["leading_zero", "interior_zero", "zero_tail", "flat"],
    )
    def test_agrees_with_inverse_survival(self, nodes):
        curve = CreditCurve("N", TermCurve.from_nodes(nodes))
        seg = self.segments(self.m.schedule, curve.intensity)
        # enough levels for the bucket lookup, and the extreme draws
        w = np.random.Generator(np.random.PCG64(5)).random(4000)
        w[:3] = [0.0, 2.0**-53, 1.0 - 2.0**-53]
        j, dt, paid = seg.levels(curve.intensity)(w)
        want_j, want_dt, want_paid = naive_locate(seg, curve.inverse_survival(w))
        np.testing.assert_array_equal(j, want_j)
        np.testing.assert_allclose(dt, want_dt, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(paid, want_paid)
        survived = j == len(seg.grid)
        assert survived[0] and 0 < np.count_nonzero(survived) < len(w)
        assert np.all(dt[survived] == 0.0) and np.all(paid[survived] == seg.paid_all)

    @pytest.mark.parametrize(
        "nodes, at",
        [
            ([(0.0, LOG2)], 1.0),  # a flow date
            ([(0.0, 0.0), (1.0, LOG2)], 2.0),  # an r_X node, past a leading zero run
            ([(0.0, LOG2), (1.0, 0.0), (2.5, 0.2)], 1.0),  # the first point of a zero run
            ([(0.0, 0.0), (2.5, LOG2), (3.5, 0.0)], 3.5),  # the first point of a zero tail
        ],
        ids=["flow_date", "after_leading_zero", "interior_zero", "zero_tail"],
    )
    def test_level_on_a_knot(self, nodes, at):
        # H(at) = log 2 exactly, so level 0.5 defaults exactly at ``at``:
        # paid the flows dated before it, where inverse_survival returns
        # the same time up to rounding
        curve = CreditCurve("N", TermCurve.from_nodes(nodes))
        seg = self.segments(self.m.schedule, curve.intensity)
        assert curve.intensity.cumulative(at) == -math.log(0.5)
        j, dt, paid = seg.levels(curve.intensity)(np.array([0.5]))
        assert (seg.grid[j[0]], dt[0], paid[0]) == (at, 0.0, seg.paid_before[j[0]])
        assert curve.inverse_survival(0.5) == pytest.approx(at, abs=1e-12)

    @pytest.mark.parametrize("maturity", [4.0, 8.0], ids=["at_last_flow", "after_last_flow"])
    def test_default_at_maturity(self, maturity):
        # lambda_bar = log 2 / maturity: U(maturity) = 0.5 exactly, so
        # level 0.5 defaults at maturity and the level one ulp below it
        # survives
        m, table = self.m, TestSegmentTable()
        schedule = CashflowSchedule.from_flows(m.flows, maturity=maturity)
        lambda_bar = TermCurve.flat(self.LOG2 / maturity)
        seg = self.segments(schedule, lambda_bar)
        levels = np.array([0.5, np.nextafter(0.5, 0.0)])
        j, dt, _ = seg.levels(lambda_bar)(levels)
        n = len(seg.grid)
        assert j[1] == n and dt[1] == 0.0
        assert j[0] == n - 1 and seg.grid[-1] + dt[0] == pytest.approx(maturity, abs=1e-12)
        assert (dt[0] == 0.0) == (seg.grid[-1] == maturity)
        # the boundary is 0.5 itself, and the payoffs are the flows
        # before maturity and the closeout there, or every flow below it
        simulator = oracle._first_default(
            m.market, m.investor, None, 0.4, lambda_bar, schedule, m.closeout
        )
        assert simulator[0] == 0.5
        got = path_payoffs(simulator, levels)
        r_bar = internal_rate(m.market, m.investor, 0.4, lambda_bar)
        for tau, p in zip((maturity, math.inf), got):
            expected = table.first_default_expected(schedule, tau, r_bar)
            assert p == pytest.approx(expected, abs=1e-12), tau
        all_flows = table.first_default_expected(schedule, math.inf, r_bar)
        assert (got[0] == pytest.approx(all_flows, abs=1e-12)) == (maturity > m.flows[-1][0])

    def test_survivor_pays_its_flows_to_the_bit(self):
        # flows that sum to -0.0: the map adds the survivor segment's
        # closeout to them for a level below the boundary, or for level
        # 0, and must keep the sign bit of the survivor stratum's payoff
        m = self.m
        schedule = CashflowSchedule.from_flows([(1.0, -0.0)])
        for counterparty in (None, m.counterparty):
            boundary, payoffs, paid_all, _ = oracle._first_default(
                m.market, m.investor, counterparty, 0.4, 0.02, schedule, m.closeout
            )
            levels = np.array([np.nextafter(boundary, 0.0), 0.0])
            got = np.empty(2)
            payoffs(levels, got)
            assert got.tobytes() == np.array([paid_all, paid_all]).tobytes()
            assert np.array(paid_all).tobytes() == np.array(-0.0).tobytes()

    def test_level_zero_under_a_boundary_of_one_ulp(self):
        # a hazard of 1e307 overflows long before maturity: only level 0
        # survives, so the boundary is the least positive double, and the
        # level map's survivor segment pays level 0 every flow (0 * inf
        # would be NaN); bond recovery 1 keeps r_bar off lambda_bar
        m, table = self.m, TestSegmentTable()
        r_bar = internal_rate(m.market, m.investor, 1.0, 1e307)
        levels = np.array([0.0, 0.5, 2.0**-53])
        for counterparty in (None, CreditCurve("C", TermCurve.flat(1e307))):
            with np.errstate(**cli._RUN_ERRSTATE):
                boundary, payoffs, _, _ = oracle._first_default(
                    m.market, m.investor, counterparty, 1.0, 1e307, m.schedule, m.closeout
                )
                assert boundary == 5e-324
                got = np.empty(len(levels))
                payoffs(levels, got)
            taus = first_default_curve(counterparty, 1e307).inverse_survival(levels)
            share = counterparty_share(counterparty, 1e307, 0.0)  # 0.5 with the counterparty
            for tau, p in zip(taus.tolist(), got):
                expected = table.first_default_expected(m.schedule, tau, r_bar, share)
                assert p == pytest.approx(expected, abs=1e-12), tau


class TestSurvivorKnot:
    """The survivor segment starts one ulp past ``H(maturity)`` in a level
    map.  Where maturity is a grid point, that knot can share the last
    grid point's bucket and cost every key a second fix-up pass, so the
    bucket lookups leave it out: one pass on a long_mc-shaped trade, and
    survivors still pay every flow."""

    def test_one_pass_per_key(self, monkeypatch):
        t = TestHeapPeak
        market = MarketRates(t.curve(0.01, 0.04), t.curve(0.005, 0.03))
        investor = CreditCurve("I", t.curve(0.01, 0.025))
        counterparty = CreditCurve("C", t.curve(0.05, 0.07))
        # 120 quarterly flows: maturity 30 is the last flow date
        schedule = CashflowSchedule.from_flows(
            [(k / 4, 1.0 - (k <= 60) * 2.25) for k in range(1, 121)]
        )
        closeout = CloseoutSpec(0.4, 0.3)
        built = []

        class Recording(oracle._Locator):
            def __init__(self, knots):
                super().__init__(knots)
                built.append(self)

        monkeypatch.setattr(oracle, "_Locator", Recording)
        simulators = [
            oracle._first_default(
                market, investor, name, 0.2, t.curve(0.05, 0.07), schedule, closeout
            )
            for name in (None, counterparty)
        ]
        model = JointDefaultModel(investor, counterparty, 1.5)
        simulators.append(oracle._dependent_default(market, model, schedule, closeout))
        # one level map per simulator, and no other lookup
        assert len(built) == 3
        for _, payoffs, _, _ in simulators:
            payoffs(np.full(3, 0.5), np.empty(3))
        assert len(built) == 3
        assert [lookup._steps for lookup in built] == [1] * 3
        # the last knot is the hazard at maturity, a grid point, not the
        # survivor knot one ulp past it
        hazard = combined((t.curve(0.05, 0.07), counterparty.intensity), np.add)
        assert built[1].knots[-1] == hazard.cumulative(schedule.maturity)

    def test_survivors_pay_every_flow(self):
        m = TestMultiFlowPayoffs
        schedule = CashflowSchedule.from_flows(m.flows)  # maturity 4.0, the last flow
        grid = oracle._segment_grid(schedule, (m.market.collateral, m.lambda_bar))
        seg = oracle._Segments(schedule, m.market.collateral, grid, -0.01 * grid)
        level = seg.levels(m.lambda_bar)
        b = oracle._boundary(m.lambda_bar, seg, level)
        w = np.random.Generator(np.random.PCG64(2)).random(4096)
        w[:4] = [b, np.nextafter(b, 0.0), b * 0.5, 0.0]
        j, dt, paid = level(w)
        # away from the boundary, where the two maps round apart
        tau = CreditCurve("N", m.lambda_bar).inverse_survival(w[2:])
        np.testing.assert_array_equal(j[2:], naive_locate(seg, tau)[0])
        survived = j == len(grid)
        assert list(survived[:4]) == [False, True, True, True]
        assert np.all(dt[survived] == 0.0) and np.all(paid[survived] == seg.paid_all)


class TestSetUpCheck:
    """Each simulator checks its segment table before drawing a path: a
    payoff that could overflow raises, naming the quantity and time."""

    market = MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))
    investor = CreditCurve("I", TermCurve.flat(0.02))
    counterparty = CreditCurve("C", TermCurve.flat(0.03))
    closeout = CloseoutSpec(0.4, 0.4)
    bullet = CashflowSchedule.from_flows([(1.0, 1.0)])

    def test_discount_overflow_at_the_boundary(self):
        # r_bar = 0.022 - 0.6 lambda_bar: the discount at the flow is
        # exp(708.978) for 709 / 0.6 and exp(709.978), past the largest
        # double, for 710 / 0.6
        with np.errstate(over="raise", invalid="raise"):
            est = mc_value_independent(
                self.market, self.investor, None, 0.4, 709.0 / 0.6, self.bullet,
                self.closeout, 4096, 1,
            )
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)
        with pytest.raises(InvariantError, match=r"non-finite discounted \w+ at t = 1\.0$"):
            mc_value_independent(
                self.market, self.investor, None, 0.4, 710.0 / 0.6, self.bullet,
                self.closeout, 4096, 1,
            )

    def test_copula_overflow(self):
        # theta * H_C(1) = 711: expm1 overflows in the copula term, which
        # every default at or before maturity evaluates
        model = JointDefaultModel(self.investor, self.counterparty, 23700.0)
        with pytest.raises(InvariantError, match=r"non-finite log discount at t = 1\.0$"):
            mc_value_correlated(self.market, model, self.bullet, self.closeout, 4096, 1)
        model = JointDefaultModel(self.investor, self.counterparty, 23650.0)
        with np.errstate(over="raise", invalid="raise"):
            est = mc_value_correlated(self.market, model, self.bullet, self.closeout, 4096, 1)
        assert math.isfinite(est.mean)


# intensities at the edges of the double range, and ordinary ones
EXTREME_INTENSITIES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e300, 1e307]),
    st.floats(min_value=0.0, max_value=3.0),
)


def ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.inf if steps > 0 else -math.inf))
    return x


@st.composite
def credit_curves(draw, maturity):
    """Piecewise intensities with nodes at maturity, within ulps of it
    and elsewhere."""
    near = [ulps_from(maturity, k) for k in (-3, -1, 0, 1, 3)]
    times = draw(
        st.lists(
            st.one_of(st.sampled_from(near), st.floats(min_value=1e-3, max_value=2 * maturity)),
            max_size=4, unique=True,
        )
    )
    times = [0.0, *sorted(t for t in times if t > 0.0)]
    values = draw(st.lists(EXTREME_INTENSITIES, min_size=len(times), max_size=len(times)))
    try:
        return CreditCurve("N", TermCurve.from_nodes(list(zip(times, values))))
    except ValueError:  # a node integral past the largest double
        assume(False)


def packed_levels(curve, maturity, boundary, rng):
    """Levels packed around the survival at maturity and the boundary:
    40 ulps either side, and 2**-20 relative either side; the ends of
    ``[0, 1]``, and random levels."""
    out = [0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, *rng.random(200)]
    with np.errstate(over="ignore"):
        at_maturity = float(curve.survival(maturity))
    for centre in (at_maturity, boundary):
        out += [ulps_from(centre, k) for k in range(-40, 41)]
        out += [centre * (1.0 - 2.0**-20), centre * (1.0 + 2.0**-20)]
    return np.clip(out, 0.0, 1.0)


class TestBoundary:
    """The survival boundary is exact under the level map of the sampled
    hazard: the double below it, and every level below that, survives
    maturity, and it and every level above it defaults."""

    market = MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))
    investor = CreditCurve("I", TermCurve.flat(0.02))
    closeout = CloseoutSpec(0.4, 0.3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), maturity=st.sampled_from([0.25, 1.0, 5.0, 30.0, 1e5]))
    def test_levels_below_the_boundary_survive(self, data, maturity):
        sampled = data.draw(credit_curves(maturity))
        counterparty = data.draw(credit_curves(maturity))
        schedule = CashflowSchedule.from_flows([(0.5 * maturity, -1.0), (maturity, 2.0)])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        level_maps = []
        levels = oracle._Segments.levels

        def keep(seg, intensity):
            level_maps.append((seg, intensity, levels(seg, intensity)))
            return level_maps[-1][2]

        # bond recovery 1 keeps r_bar off lambda_bar, whatever its size
        simulators = [
            (oracle._first_default, (self.market, self.investor, None, 1.0, sampled.intensity)),
            (oracle._first_default,
             (self.market, self.investor, counterparty, 1.0, sampled.intensity)),
            (oracle._dependent_default,
             (self.market, JointDefaultModel(self.investor, counterparty, 0.0))),
        ]
        for build, args in simulators:
            level_maps.clear()
            try:
                with mock.patch.object(oracle._Segments, "levels", keep):
                    b = build(*args, schedule, self.closeout)[0]
            except InvariantError:  # a hazard past the copula's range
                continue
            except ValueError:  # the two hazards' sum past the largest double
                assert build is oracle._first_default and args[2] is not None
                continue
            ((seg, intensity, level),) = level_maps

            def survives(w):
                return level(w)[0] == len(seg.grid)

            w = packed_levels(CreditCurve("N", intensity), maturity, b, rng)
            assert survives(np.array([np.nextafter(b, 0.0), b])).tolist() == [True, False]
            np.testing.assert_array_equal(survives(w), w < b)

    def test_zero_recovery_bullet_is_exact(self):
        # zero recoveries and one flow: every default pays exactly 0 and
        # every survivor the flow, so strata on the exact boundary leave no
        # variance, and the mean is v0 to rounding, for every seed; a
        # boundary a little below the exact one draws survivors in the
        # defaulting stratum
        cfg = cli.load_config(ROOT / "configs" / "correlated_bond.json")
        for theta in cfg.theta_sweep:
            args = (cfg.market, JointDefaultModel(cfg.investor, cfg.counterparty, theta),
                    cfg.schedule, cfg.closeout)
            v0 = adjustment_correlated(*args, panels_per_year=cfg.panels_per_year).value()
            for seed in range(17, 57):
                mc = mc_value_correlated(*args, cfg.mc_paths, seed)
                assert mc.std_error <= 1e-15 and abs(mc.mean - v0) <= 1e-12, (theta, seed, mc)
