import contextlib
import math
import tracemalloc
from dataclasses import dataclass
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
    mc_value_correlated,
    mc_value_independent,
    sample_joint_defaults,
)
from valadj import as_curve, cli, oracle
from valadj.measure import internal_rate

from _reference import chunked_mean_m2, naive_collateral_value, piecewise_integral

N = 200_000


@dataclass(frozen=True)
class PathOutcome:
    """One simulated path: default times (``inf`` = never) and the
    payoff discounted to time 0."""

    tau_investor: float
    tau_counterparty: float
    discounted_payoff: float
    at_risk: bool  # a level reached its screen: the path was mapped

    @property
    def tau(self) -> float:
        """First default time on the path."""
        return min(self.tau_investor, self.tau_counterparty)


def sample_path_outcomes(
    market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout, paths, seed
) -> list[PathOutcome]:
    """Per-path view of the simulator behind :func:`mc_value_independent`:
    the same pipeline and payoff map, keeping each path's default times
    and payoff.

    The pipeline maps only the paths whose levels reach a screen, and
    must hand the map their levels in path order; the others are paid the
    flow sum.  Every path is mapped here by the inverse survival maps,
    which the level maps agree with, and one whose levels are all below
    their screens must default after maturity under both names."""
    screens, payoffs, paid_all, bound = oracle._first_default(
        market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
    )
    batches = [(np.empty((len(screens), 0)), np.empty(0))]

    def keep(levels, out):
        payoffs(levels, out)
        batches.append((levels.copy(), out.copy()))

    oracle._simulate(paths, seed, screens, keep, paid_all, bound)
    w = np.random.Generator(np.random.PCG64(seed)).random((paths, len(screens)))
    at_risk = np.any(w >= np.array(screens), axis=1)
    levels, mapped = (np.concatenate(cols, axis=-1) for cols in zip(*batches))
    np.testing.assert_array_equal(levels, w[at_risk].T)
    payoff = np.full(paths, paid_all)
    payoff[at_risk] = mapped
    internal = CreditCurve("internal", as_curve(lambda_bar))
    tau_i = internal.inverse_survival(np.ascontiguousarray(w[:, 0]))
    tau_c = (
        np.full(paths, np.inf) if counterparty is None
        else counterparty.inverse_survival(np.ascontiguousarray(w[:, 1]))
    )
    assert np.all(tau_i[~at_risk] > schedule.maturity)
    assert np.all(tau_c[~at_risk] > schedule.maturity)
    return [
        PathOutcome(float(ti), float(tc), float(p), bool(r))
        for ti, tc, p, r in zip(tau_i, tau_c, payoff, at_risk)
    ]


def reference_estimate(outcomes, chunk=None):
    """``(mean, std_error)`` of the outcomes' payoffs by the reference
    fold: chunk by chunk, the survivors as one group, then the at-risk
    payoffs in path order."""
    n, mean, m2 = chunked_mean_m2(
        [o.discounted_payoff for o in outcomes], [o.at_risk for o in outcomes],
        chunk or oracle._CHUNK,
    )
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def path_payoffs(simulator, w):
    """The payoff the pipeline pays each path of levels ``w``, ``(paths,
    names)``, for a simulator's ``(screens, payoffs, paid_all, bound)``:
    the flow sum where every level is below its screen, the map's
    payoff, in one batch, elsewhere."""
    screens, payoffs, paid_all, _ = simulator
    out = np.full(len(w), paid_all)
    at_risk = np.flatnonzero(np.any(w >= np.array(screens), axis=1))
    mapped = np.empty(len(at_risk))
    payoffs(np.ascontiguousarray(w[at_risk].T), mapped)
    out[at_risk] = mapped
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
        # first 1000 paths of a 5000-path run are the 1000-path run
        big = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, 5000, 17
        )
        small = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, 1000, 17
        )
        assert big[:1000] == small

    def test_no_counterparty_draws_one_uniform_per_path(self):
        # path i's tau_I is the internal curve's inverse survival of draw
        # i of the seed's PCG64 stream: one uniform per path, none spent
        # on the counterparty that never defaults
        m = TestMultiFlowPayoffs
        paths, seed = 5003, 23
        args = (
            m.market, m.investor, None, 0.4, m.lambda_bar, m.schedule, m.closeout, paths, seed
        )
        outcomes = sample_path_outcomes(*args)
        w = np.random.Generator(np.random.PCG64(seed)).random(paths)
        internal = CreditCurve("internal", m.lambda_bar)
        tau_i = np.array([o.tau_investor for o in outcomes])
        np.testing.assert_array_equal(tau_i, internal.inverse_survival(w))
        assert 0 < np.count_nonzero(tau_i <= m.schedule.maturity) < paths
        assert all(o.tau_counterparty == math.inf for o in outcomes)
        # the estimate reduces exactly these paths
        mc = mc_value_independent(*args)
        assert (mc.mean, mc.std_error) == reference_estimate(outcomes)

    @pytest.mark.parametrize("per_path", [1, 2])
    @pytest.mark.parametrize("p0", [60, 61, 2**18 + 3])
    def test_worker_partition_by_advance(self, per_path, p0):
        # path i draws per_path*i .. and PCG64 spends one word per
        # double, so a worker owning paths [p0, p0 + 40) jumps the stream
        # by per_path * p0 draws, for any p0, and sees identical draws
        seed, paths = 123, p0 + 40
        full = oracle._generator(paths, seed).random((paths, per_path))
        bit = np.random.PCG64(seed)
        bit.advance(per_path * p0)
        part = np.random.Generator(bit).random((40, per_path))
        np.testing.assert_array_equal(full[p0:], part)

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
        # lam_bar = 0 screens every draw: each path is counted as a
        # survivor, paid the flow sum, with no rounding left to collapse
        args = (flat_market, investor, None, 0.4, 0.0, bullet, closeout)
        simulator = oracle._first_default(*args)
        assert simulator[0] == (1.0,)
        mc = mc_value_independent(*args, paths, 5)
        assert mc.mean == simulator[2]
        assert mc.std_error == 0.0

    def test_estimate_metadata(self, flat_market, investor, closeout, bullet):
        mc = mc_value_independent(flat_market, investor, None, 0.4, 0.01, bullet, closeout, 2500, 8)
        assert mc.paths == 2500
        assert mc.seed == 8


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
        outcomes = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, n, 21
        )
        assert (mc.mean, mc.std_error) == reference_estimate(outcomes)


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
        outcomes = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout, 500, 33
        )
        # r_bar = 0.01 for this configuration
        from valadj import collateral_value

        for o in outcomes:
            assert o.tau == min(o.tau_investor, o.tau_counterparty)
            expected = sum(
                a * math.exp(-0.01 * t)
                for t, a in zip(mixed.times, mixed.amounts)
                if o.tau > t
            )
            if o.tau <= mixed.maturity:
                vx = collateral_value(mixed, flat_market.collateral, o.tau)
                k_i, k_c = closeout_values(closeout, vx)
                settle = k_i if o.tau_investor <= o.tau_counterparty else k_c
                expected += settle * math.exp(-0.01 * o.tau)
            assert o.discounted_payoff == pytest.approx(expected, abs=1e-12)

    def test_survivor_paths_collect_all_flows(
        self, flat_market, investor, counterparty, closeout, bullet
    ):
        outcomes = sample_path_outcomes(
            flat_market, investor, counterparty, 0.4, 0.02, bullet, closeout, 500, 4
        )
        survivors = [o for o in outcomes if o.tau > 5.0]
        assert survivors
        for o in survivors:
            assert o.discounted_payoff == pytest.approx(math.exp(-0.01 * 5.0), rel=1e-14)


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
        outcomes = sample_path_outcomes(
            self.market, self.investor, self.counterparty, 0.4, self.lambda_bar,
            self.schedule, self.closeout, 3000, 41,
        )
        r_bar = internal_rate(self.market, self.investor, 0.4, self.lambda_bar)
        all_flows = sum(a * math.exp(-r_bar.integrated_rate(0.0, t)) for t, a in self.flows)
        kinds = {"survivor": 0, "before_last_flow": 0, "after_last_flow": 0}
        for o in outcomes:
            expected = sum(
                a * math.exp(-r_bar.integrated_rate(0.0, t)) for t, a in self.flows if o.tau > t
            )
            if o.tau <= self.schedule.maturity:
                vx = naive_collateral_value(self.flows, self.market.collateral, o.tau)
                k_i, k_c = closeout_values(self.closeout, vx)
                settle = k_i if o.tau_investor <= o.tau_counterparty else k_c
                expected += settle * math.exp(-r_bar.integrated_rate(0.0, o.tau))
            assert o.discounted_payoff == pytest.approx(expected, abs=1e-12)
            if o.tau > self.schedule.maturity:
                kinds["survivor"] += 1
                assert o.discounted_payoff == pytest.approx(all_flows, abs=1e-15)
            elif o.tau > self.schedule.times[-1]:
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

        w = np.random.Generator(np.random.PCG64(seed)).random(paths)
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
        hit = taus <= self.schedule.maturity
        assert 0 < np.count_nonzero(hit) < paths
        assert np.count_nonzero(hit & (taus > self.schedule.times[-1])) > 0
        assert mc.mean == pytest.approx(float(np.mean(payoffs)), abs=1e-12)
        assert mc.std_error == pytest.approx(
            float(np.std(payoffs, ddof=1) / math.sqrt(paths)), abs=1e-12
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
        outcomes = runs[7]["path_outcomes"]
        assert len(outcomes) == paths
        assert 0 < sum(o.tau <= m.schedule.maturity for o in outcomes) < paths

    def test_chunked_results_do_not_depend_on_block_size(self, monkeypatch):
        # six chunks of 1000 paths, the last one partial; blocks of 7 and
        # 4096 paths divide neither, 2**20 is cut down to a chunk
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        self.test_results_do_not_depend_on_block_size(monkeypatch)

    @pytest.mark.parametrize(
        "lambda_bar, chunk, screen_off",
        [(0.0, None, False), (0.0, 1000, False), (1e-4, 1000, False),
         (TestMultiFlowPayoffs.lambda_bar, None, True),
         (TestMultiFlowPayoffs.lambda_bar, 1000, True)],
        ids=["none_at_risk", "none_at_risk_six_chunks", "a_chunk_without_risk_of_six",
             "every_path_at_risk", "every_path_at_risk_six_chunks"],
    )
    def test_chunks_without_survivors_or_at_risk_paths(
        self, monkeypatch, lambda_bar, chunk, screen_off
    ):
        # a chunk whose paths all survive is one group, and so is one
        # whose paths are all mapped: a screen of 0 maps every path
        m = TestMultiFlowPayoffs
        paths, seed = 5003, 19
        if chunk:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
        if screen_off:
            monkeypatch.setattr(oracle, "_screen", lambda curve, maturity: 0.0)
        counterparty = m.counterparty if screen_off else None
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
        outcomes, mc = runs[7]["path_outcomes"], runs[7]["estimate"]
        assert (mc.mean, mc.std_error) == reference_estimate(outcomes, chunk)
        size = chunk or paths
        at_risk = [sum(o.at_risk for o in outcomes[k : k + size]) for k in range(0, paths, size)]
        if screen_off:
            assert at_risk == [min(size, paths - k) for k in range(0, paths, size)]
        else:
            assert min(at_risk) == 0 and (sum(at_risk) > 0) == (lambda_bar > 0.0)


class TestContiguousColumns:
    """Each name's levels reach the inverse survival maps as a contiguous
    column, where the elementwise passes run at unit stride."""

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
        seen = self.spy(monkeypatch, CreditCurve, "_inverse_survival")
        mc_value_independent(
            m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule,
            m.closeout, 5000, 3,
        )
        assert len(seen) == 10  # two names, five blocks
        assert all(w.ndim == 1 and w.flags.c_contiguous for w in seen)

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
        assert not strided.flags.c_contiguous
        got, want = np.empty(len(wide)), np.empty(len(wide))
        payoffs(strided.T, got)
        payoffs(np.ascontiguousarray(strided.T), want)
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
        outcomes = sample_path_outcomes(*args)
        payoffs = np.array([o.discounted_payoff for o in outcomes])
        n, mean, m2 = chunked_mean_m2(payoffs, [o.at_risk for o in outcomes], 1000)
        assert (mc.paths, mc.mean) == (n, mean)
        assert mc.std_error == math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        # the whole vector's statistics, up to the merge's rounding
        std_error = float(np.std(payoffs, ddof=1) / math.sqrt(n))
        for got, want in ((mc.mean, float(np.mean(payoffs))), (mc.std_error, std_error)):
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
            # a screen of 0 maps every path
            done = [0]

            def mapped(levels, out):
                out[:] = payoffs[done[0] : done[0] + len(out)] * factor
                done[0] += len(out)

            with np.errstate(over="raise", invalid="raise"):
                return oracle._simulate(self.paths, 1, (0.0,), mapped, 0.0, bound * factor)

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
            # with both names drawn, 24.3% of the paths can default
            (screens, _, _, _), _, _ = sims["independent"]
            assert 0.75 <= math.prod(screens) < 0.76
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
    not a flow date, at 0, at maturity, after the last flow, or ties
    between the two names.

    The level maps are replaced by the identity on default times, so the
    simulator's uniforms are the default times themselves: each name's
    own inverse survival map, and a one-name simulator's hazard-level map,
    which becomes the lookup of the default time in the grid.  Survival
    is replaced by 0, which turns the screen off, and the simulation
    returns the payoff map's vector over every default time instead of
    the estimate.
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
        def payoff_vector(paths, seed, screens, payoffs, paid_all, bound):
            out = np.empty(len(taus))
            payoffs(taus.T.copy(), out)
            return out

        monkeypatch.setattr(CreditCurve, "_inverse_survival", lambda self, w: np.array(w))
        monkeypatch.setattr(oracle._Segments, "levels", lambda seg, intensity: seg.locate)
        monkeypatch.setattr(CreditCurve, "survival", lambda self, t: 0.0)
        monkeypatch.setattr(oracle, "_simulate", payoff_vector)
        return simulate()

    def first_default_expected(self, schedule, tau_i, tau_c, r_bar, market=m.market):
        flows = list(zip(schedule.times, schedule.amounts))
        tau = min(tau_i, tau_c)
        out = sum(
            a * math.exp(-piecewise_integral(r_bar, 0.0, t)) for t, a in flows if t < tau
        )
        if tau <= schedule.maturity:
            vx = naive_collateral_value(flows, market.collateral, tau)
            k_i, k_c = closeout_values(self.m.closeout, vx)
            settle = k_i if tau_i <= tau_c else k_c
            out += settle * math.exp(-piecewise_integral(r_bar, 0.0, tau))
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
        taus = np.array(self.taus)[:, None]
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_independent(
                m.market, self.investor, None, 0.4, self.lambda_bar, schedule, m.closeout,
                len(taus), 1,
            ),
            taus,
        )
        r_bar = internal_rate(m.market, self.investor, 0.4, self.lambda_bar)
        for tau, p in zip(self.taus, got):
            expected = self.first_default_expected(schedule, tau, math.inf, r_bar)
            assert p == pytest.approx(expected, abs=1e-12), tau

    @pytest.mark.parametrize("maturity_after_last_flow", [True, False])
    def test_independent_with_ties(self, monkeypatch, maturity_after_last_flow):
        m = self.m
        schedule = m.schedule if maturity_after_last_flow else self.at_last_flow
        pairs = [(t, t) for t in self.taus]  # ties: the investor's closeout
        pairs += [(t, t + 0.5) for t in self.taus] + [(t + 0.5, t) for t in self.taus]
        pairs += [(math.inf, t) for t in self.taus]
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_independent(
                m.market, self.investor, self.counterparty, 0.4, self.lambda_bar,
                schedule, m.closeout, len(pairs), 1,
            ),
            np.array(pairs),
        )
        r_bar = internal_rate(m.market, self.investor, 0.4, self.lambda_bar)
        for (tau_i, tau_c), p in zip(pairs, got):
            expected = self.first_default_expected(schedule, tau_i, tau_c, r_bar)
            assert p == pytest.approx(expected, abs=1e-12), (tau_i, tau_c)

    @pytest.mark.parametrize("maturity_after_last_flow", [True, False])
    def test_correlated(self, monkeypatch, maturity_after_last_flow):
        m = self.m
        schedule = m.schedule if maturity_after_last_flow else self.at_last_flow
        model = JointDefaultModel(self.investor, self.counterparty, self.theta)
        taus = np.array(self.taus)[:, None]
        got = self.payoffs(
            monkeypatch,
            lambda: mc_value_correlated(m.market, model, schedule, m.closeout, len(taus), 1),
            taus,
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
            np.array(taus)[:, None],
        )
        r_bar = internal_rate(market, investor, 0.4, 0.02)
        assert got[1] > 1e-6
        for tau, p in zip(taus, got):
            expected = self.first_default_expected(schedule, tau, math.inf, r_bar, market)
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
    """A one-name simulator locates a path by one lookup of its hazard
    level ``-log w`` among the name's cumulative hazards on the grid.
    It agrees with the inverse survival map followed by the lookup of
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
        want_j, want_dt, want_paid = seg.locate(curve.inverse_survival(w))
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
        # the payoffs: the flows before maturity and the closeout there
        simulator = oracle._first_default(
            m.market, m.investor, None, 0.4, lambda_bar, schedule, m.closeout
        )
        assert simulator[0][0] < levels[1]
        got = path_payoffs(simulator, levels[:, None])
        r_bar = internal_rate(m.market, m.investor, 0.4, lambda_bar)
        for tau, p in zip((maturity, math.inf), got):
            expected = table.first_default_expected(schedule, tau, math.inf, r_bar)
            assert p == pytest.approx(expected, abs=1e-12), tau
        all_flows = table.first_default_expected(schedule, math.inf, math.inf, r_bar)
        assert (got[0] == pytest.approx(all_flows, abs=1e-12)) == (maturity > m.flows[-1][0])

    def test_survivor_pays_its_flows_to_the_bit(self):
        # flows that sum to -0.0: a located survivor adds the survivor
        # segment's closeout to them, and must keep the sign bit that a
        # screened survivor's payoff has
        m = self.m
        schedule = CashflowSchedule.from_flows([(1.0, -0.0)])
        for counterparty in (None, m.counterparty):
            simulator = oracle._first_default(
                m.market, m.investor, counterparty, 0.4, 0.02, schedule, m.closeout
            )
            screens = simulator[0]
            w = np.array([screens, np.zeros(len(screens))])  # located, then screened
            got = path_payoffs(simulator, w)
            assert got.tobytes() == np.array([-0.0, -0.0]).tobytes()

    def test_level_zero_under_a_screen_of_zero(self):
        # a hazard of 1e307 overflows long before maturity: the screen is
        # 0, so level 0 reaches the level map, whose survivor segment pays
        # every flow (0 * inf would be NaN); bond recovery 1 keeps r_bar
        # off lambda_bar
        m, table = self.m, TestSegmentTable()
        r_bar = internal_rate(m.market, m.investor, 1.0, 1e307)
        levels = np.array([[0.0, 0.0], [0.5, 0.0], [2.0**-53, 0.0], [0.0, 0.5]])
        for counterparty in (None, CreditCurve("C", TermCurve.flat(1e307))):
            with np.errstate(**cli._RUN_ERRSTATE):
                simulator = oracle._first_default(
                    m.market, m.investor, counterparty, 1.0, 1e307, m.schedule, m.closeout
                )
                screens = simulator[0]
                assert screens == (0.0,) * len(screens)
                got = path_payoffs(simulator, levels[:, : len(screens)])
            # both names' hazards are 1e307
            taus = CreditCurve("N", TermCurve.flat(1e307)).inverse_survival(levels)
            for (tau_i, tau_c), p in zip(taus.tolist(), got):
                tau_c = math.inf if counterparty is None else tau_c
                expected = table.first_default_expected(m.schedule, tau_i, tau_c, r_bar)
                assert p == pytest.approx(expected, abs=1e-12), (tau_i, tau_c)


class TestSurvivorKnot:
    """The survivor segment starts one ulp past maturity (past ``H(T)``
    for a level map).  Where maturity is a grid point, that knot would
    share the last grid point's bucket and cost every key a second
    fix-up pass, so the bucket lookups leave it out: one pass on a
    long_mc-shaped trade, and survivors still pay every flow."""

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
        for name in (None, counterparty):
            oracle._first_default(
                market, investor, name, 0.2, t.curve(0.05, 0.07), schedule, closeout
            )
        model = JointDefaultModel(investor, counterparty, 1.5)
        oracle._dependent_default(market, model, schedule, closeout)
        assert len(built) == 5  # one grid lookup per simulator, two level maps
        assert [lookup._steps for lookup in built] == [1] * 5
        # with the survivor knot, the grid lookup would take two passes
        grid = built[0].knots
        assert grid[-1] == schedule.maturity
        assert oracle._Locator(np.append(grid, np.nextafter(grid[-1], math.inf)))._steps == 2

    def test_survivors_pay_every_flow(self):
        m = TestMultiFlowPayoffs
        schedule = CashflowSchedule.from_flows(m.flows)  # maturity 4.0, the last flow
        grid = oracle._segment_grid(schedule, (m.market.collateral,))
        seg = oracle._Segments(schedule, m.market.collateral, grid, -0.01 * grid)
        past = np.nextafter(4.0, math.inf)
        tau = np.random.Generator(np.random.PCG64(2)).uniform(0.0, 4.5, 4096)
        tau[:4] = [4.0, past, 4.5, math.inf]
        want = np.searchsorted(np.append(grid, past), np.minimum(tau, past), "right") - 1
        j, dt, paid = seg.locate(tau.copy())
        np.testing.assert_array_equal(j, want)
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
def screened_curves(draw, maturity):
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


def packed_levels(curve, maturity):
    """Levels packed around the survival at maturity and the screen:
    40 ulps either side, and 2**-20 relative either side."""
    out = [0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53]
    with np.errstate(over="ignore"):
        at_maturity = float(curve.survival(maturity))
    for centre in (at_maturity, oracle._screen(curve, maturity)):
        out += [ulps_from(centre, k) for k in range(-40, 41)]
        out += [centre * (1.0 - 2.0**-20), centre * (1.0 + 2.0**-20)]
    return np.clip(out, 0.0, 1.0)


@contextlib.contextmanager
def spy_lengths(lengths):
    """Note how many levels each call of a level map maps: each name's
    own inverse survival map, and the hazard-level maps that one-name
    simulators built while this is active return."""
    own, levels = CreditCurve._inverse_survival, oracle._Segments.levels

    def spying_own(curve, w):
        lengths.append(len(w))
        return own(curve, w)

    def spying_levels(seg, intensity):
        level = levels(seg, intensity)

        def spying(w):
            lengths.append(len(w))
            return level(w)

        return spying

    with mock.patch.object(CreditCurve, "_inverse_survival", spying_own):
        with mock.patch.object(oracle._Segments, "levels", spying_levels):
            yield


class TestScreen:
    """The pipeline maps to default times only the paths whose level
    reaches some name's screen; every other path survives past maturity,
    paid the flow sum that the map pays a located survivor."""

    market = MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))
    investor = CreditCurve("I", TermCurve.flat(0.02))
    closeout = CloseoutSpec(0.4, 0.3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), maturity=st.sampled_from([0.25, 1.0, 5.0, 30.0, 1e5]))
    def test_screened_blocks_match_screen_off(self, data, maturity):
        sampled = data.draw(screened_curves(maturity))
        counterparty = data.draw(screened_curves(maturity))
        schedule = CashflowSchedule.from_flows([(0.5 * maturity, -1.0), (maturity, 2.0)])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        levels = [packed_levels(c, maturity) for c in (sampled, counterparty)]
        pairs = np.column_stack([rng.choice(x, 400) for x in levels])
        # bond recovery 1 keeps r_bar off lambda_bar, whatever its size
        simulators = [
            (oracle._first_default, (self.market, self.investor, None, 1.0, sampled.intensity),
             (sampled,), pairs[:, :1]),
            (oracle._first_default,
             (self.market, self.investor, counterparty, 1.0, sampled.intensity),
             (sampled, counterparty), pairs),
            (oracle._dependent_default,
             (self.market, JointDefaultModel(self.investor, counterparty, 0.0)),
             (counterparty,), pairs[:, 1:]),
        ]
        for build, args, curves, w in simulators:
            mapped = []
            try:
                with spy_lengths(mapped):
                    simulator = build(*args, schedule, self.closeout)
                    out = path_payoffs(simulator, w)
            except InvariantError:  # a hazard past the copula's range
                continue
            screens = simulator[0]
            with mock.patch.object(oracle, "_screen", lambda curve, maturity: 0.0):
                screen_off = build(*args, schedule, self.closeout)
            assert screen_off[0] == (0.0,) * len(curves)  # every path is mapped
            assert out.tobytes() == path_payoffs(screen_off, w).tobytes()
            # the screened block maps the paths that reach a screen, and
            # only those; the others survive past maturity under each name
            skipped = np.all(w < np.array(screens), axis=1)
            assert mapped == [np.count_nonzero(~skipped)] * len(curves)
            for n, curve in enumerate(curves):
                assert np.all(curve.inverse_survival(w[skipped, n]) > maturity)
