import inspect
import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
from valadj import as_curve, cli, credit, oracle
from valadj.measure import internal_rate

from _reference import (
    gathered_dependent_payoffs,
    gathered_first_default_payoffs,
    gathered_times,
    naive_collateral_value,
    naive_inverse_survival,
    naive_locate,
    pair_strata,
    pair_stratified_estimate,
    piecewise_integral,
    stratified_time,
)

N = 200_000
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class PathOutcome:
    """One draw: the segment of ``G`` it defaults in, its default time
    and the payoff discounted to time 0."""

    segment: int
    tau: float
    discounted_payoff: float


class Sample(NamedTuple):
    """Every draw, in stream order, with the estimate the simulation
    returned and what it adds for the paths it does not draw."""

    outcomes: list
    estimate: oracle.McEstimate
    prob: tuple
    survival: float
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


def segments_of(seg, take, dt):
    """The segment of each of the draws ``dt``, spread over them by the
    block's ``take`` as the segment table's entries are."""
    return np.broadcast_to(take(np.arange(len(seg.grid))), dt.shape)


def drawn(simulator, paths, seed):
    """``(estimate, j, dt, payoffs)`` of a simulator's ``(seg, payoffs,
    bound)``: the estimate, and the segment, the time into it and the
    payoff of every draw, in stream order."""
    seg, payoffs, bound = simulator
    batches = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))]

    def keep(take, dt, out):
        payoffs(take, dt, out)
        batches.append((segments_of(seg, take, dt).copy(), dt.copy(), out.copy()))

    estimate = oracle._simulate(paths, seed, seg, keep, bound)
    return (estimate, *(np.concatenate(cols) for cols in zip(*batches)))


def spy_blocks(monkeypatch):
    """The ``(at, j)`` of every block the simulators map, from then on:
    its first draw's index in the stream, and the segment of each of its
    draws, a 0-d array where the segment's constants reach the block as
    scalars."""
    blocks = []
    times = oracle._Segments.times

    def spying(seg, pairs, first, at, u):
        take, dt = times(seg, pairs, first, at, u)
        blocks.append((at, take(np.arange(len(seg.grid)))))
        return take, dt

    monkeypatch.setattr(oracle._Segments, "times", spying)
    return blocks


def stream_draws(seg, paths, u, first_pair=0):
    """``(j, dt)`` of the draws of uniforms ``u``, draw ``i`` of them in
    pair ``first_pair + i // 2`` of :func:`pair_strata`, by the reference
    map of each pair's sub-stratum."""
    strata = pair_strata(seg.prob, paths)[first_pair:]
    cells = [strata[i // 2] for i in range(len(u))]
    dt = [
        stratified_time(seg.lam[j], seg.span[j], k, m, float(w)) for (j, k, m), w in zip(cells, u)
    ]
    return np.array([j for j, _, _ in cells], dtype=np.intp), np.array(dt)


def assert_stream(seg, paths, seed, j, dt):
    """The draws ``(j, dt)`` are pair ``s`` at draws ``2s`` and ``2s + 1``
    of the seed's ``PCG64`` stream, each in its pair's sub-stratum."""
    u = np.random.Generator(np.random.PCG64(seed)).random(len(j))
    want_j, want_dt = stream_draws(seg, paths, u)
    np.testing.assert_array_equal(j, want_j)
    np.testing.assert_allclose(dt, want_dt, rtol=1e-13, atol=1e-300)


def sample_path_outcomes(
    market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout, paths, seed
) -> Sample:
    """Per-draw view of the simulator behind :func:`mc_value_independent`:
    the same pipeline and payoff map, keeping each draw's segment,
    default time and payoff.  The pipeline must draw the pairs of
    :func:`pair_strata` from the seed's stream (:func:`assert_stream`)."""
    simulator = oracle._first_default(
        market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
    )
    seg = simulator[0]
    estimate, j, dt, payoff = drawn(simulator, paths, seed)
    assert_stream(seg, paths, seed, j, dt)
    taus = seg.grid[j] + dt
    outcomes = [PathOutcome(int(a), float(t), float(x)) for a, t, x in zip(j, taus, payoff)]
    return Sample(outcomes, estimate, tuple(seg.prob), seg.survival, seg.paid_all)


def reference_estimate(sample):
    """``(mean, std_error)`` of a sample by the reference fold, pair by
    pair (:func:`pair_stratified_estimate`)."""
    payoffs = [o.discounted_payoff for o in sample.outcomes]
    return pair_stratified_estimate(
        sample.prob, sample.survival, sample.paid_all, sample.estimate.paths, payoffs
    )


def assert_reference_estimate(mc, sample):
    """``mc`` is the reference fold of ``sample``, up to the rounding of
    its sums, pair by pair against the chunks' weighted sums."""
    mean, std_error = reference_estimate(sample)
    assert mc.mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
    assert mc.std_error == pytest.approx(std_error, rel=1e-12, abs=1e-300)


class FixedDraws:
    """A generator that hands out the uniforms ``u`` in order, in place
    of the seed's stream."""

    def __init__(self, u):
        self.u, self.at = np.asarray(u, dtype=float), 0

    def random(self, out):
        out[:] = self.u[self.at : self.at + len(out)]
        self.at += len(out)
        return out


def fixed_draws(monkeypatch, simulator, paths, u):
    """``(estimate, j, dt, payoffs)`` of :func:`drawn`, the simulation
    drawing the uniforms ``u``."""
    monkeypatch.setattr(oracle, "_generator", lambda paths, seed: FixedDraws(u))
    return drawn(simulator, paths, 0)


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
        # pair s takes draws 2s and 2s + 1 of one stream, whatever the
        # path count: a 1000-path and a 5000-path run each draw a prefix
        # of the seed's stream, and a worker owning the pairs from s on
        # jumps the stream by 2s draws
        args = (flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout)
        seg = oracle._first_default(*args)[0]
        big, small = (sample_path_outcomes(*args, paths, 17) for paths in (5000, 1000))
        assert 40 < len(small.outcomes) < len(big.outcomes)
        first = first_default_curve(counterparty, 0.02)
        for pair in (0, len(small.outcomes) // 2 - 20, len(big.outcomes) // 2 - 20):
            bit = np.random.PCG64(17)
            bit.advance(2 * pair)
            u = np.random.Generator(bit).random(40)
            j, dt = stream_draws(seg, 5000, u, first_pair=pair)
            taus = [o.tau for o in big.outcomes[2 * pair : 2 * pair + 40]]
            np.testing.assert_allclose(taus, seg.grid[j] + dt, rtol=1e-14, atol=0.0)
            # each a default time of the first default's law
            strata = pair_strata(seg.prob, 5000)[pair : pair + 20]
            levels = [
                first.survival(seg.grid[j]) - (k + w) / m * seg.prob[j]
                for (j, k, m), w in zip([c for c in strata for _ in (0, 1)], u)
            ]
            np.testing.assert_allclose(taus, first.inverse_survival(np.array(levels)), atol=1e-12)

    def test_no_counterparty_draws_one_uniform_per_path(self, monkeypatch):
        # riskfree_cpty spends one uniform per draw, two per pair of
        # pair_strata and none on the counterparty that never defaults;
        # each drawn time is a default time of the internal curve at the
        # survival level of its draw in its sub-stratum
        m = TestMultiFlowPayoffs
        paths, seed = 5003, 23
        args = (
            m.market, m.investor, None, 0.4, m.lambda_bar, m.schedule, m.closeout, paths, seed
        )
        sample = sample_path_outcomes(*args)
        strata = pair_strata(sample.prob, paths)
        assert len(sample.outcomes) == 2 * len(strata)
        internal = CreditCurve("internal", m.lambda_bar)
        assert sample.survival == internal.survival(m.schedule.maturity)
        tau = np.array([o.tau for o in sample.outcomes])
        assert np.all(tau <= m.schedule.maturity)
        grid = oracle._first_default(*args[:-2])[0].grid
        u = np.random.Generator(np.random.PCG64(seed)).random(len(tau))
        levels = [
            internal.survival(grid[j]) - (k + w) / n * sample.prob[j]
            for (j, k, n), w in zip([c for c in strata for _ in (0, 1)], u)
        ]
        np.testing.assert_allclose(tau, internal.inverse_survival(np.array(levels)), atol=1e-12)
        # the simulator draws exactly these uniforms, and reduces their payoffs
        calls = []

        class Spy(np.random.Generator):
            def random(self, *args, out=None, **kwargs):
                calls.append(len(out))  # every simulator draws into its buffer
                return super().random(*args, out=out, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        mc = mc_value_independent(*args)
        assert sum(calls) == len(tau)
        assert mc == sample.estimate and mc.paths == paths
        assert_reference_estimate(mc, sample)

    @pytest.mark.parametrize("names", [1, 2])
    @pytest.mark.parametrize("first_pair", [60, 61, 2**18 + 3])
    def test_worker_partition_by_advance(self, names, first_pair):
        # pair s takes draws 2s and 2s + 1, with one name that can default
        # or two, and PCG64 spends one word per double, so a worker
        # owning the pairs from s on, an odd s or a pair past the first
        # chunk too, jumps the stream by the even 2s draws and maps
        # identical draws
        m = TestMultiFlowPayoffs
        counterparty = m.counterparty if names == 2 else None
        simulator = oracle._first_default(
            m.market, m.investor, counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout
        )
        seg, seed = simulator[0], 123
        paths = int((2 * first_pair + 100) / (1.0 - seg.survival))
        _, j, dt, _ = drawn(simulator, paths, seed)
        assert len(j) >= 2 * first_pair + 40
        bit = np.random.PCG64(seed)
        bit.advance(2 * first_pair)
        u = np.random.Generator(bit).random(40)
        want_j, want_dt = stream_draws(seg, paths, u, first_pair=first_pair)
        window = slice(2 * first_pair, 2 * first_pair + 40)
        np.testing.assert_array_equal(j[window], want_j)
        np.testing.assert_allclose(dt[window], want_dt, rtol=1e-13, atol=0.0)

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
        # lam_bar = 0: every segment has probability 0 and the survivors
        # probability 1, paid the flow sum, with no rounding left to collapse
        args = (flat_market, investor, None, 0.4, 0.0, bullet, closeout)
        seg = oracle._first_default(*args)[0]
        assert seg.survival == 1.0 and not np.any(seg.prob)
        mc = mc_value_independent(*args, paths, 5)
        assert mc.mean == seg.paid_all
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
    """Where nothing can default, no segment holds a pair: the simulation
    draws nothing, and its estimate is the flow sum."""

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
            seg = build(*args)[0]
            assert seg.survival == 1.0 and not np.any(seg.prob), name
            est = simulate(*args, paths, 11)
            assert calls == [], name
            assert (est.mean, est.std_error, est.paths) == (seg.paid_all, 0.0, paths)
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
        assert mc == sample.estimate
        assert_reference_estimate(mc, sample)

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


class TestStrataOnTheGrid:
    """Each pair's two draws share a segment of ``G`` and a sub-stratum,
    so no stratum straddles a flow date, where the payoff jumps.  This
    guards a measured dead end: equal-probability strata that ignore
    ``G`` put the jump at 2.5 y of criterion 5's ``mixed`` trade inside
    a sub-stratum whose two draws usually fell on one side of it, so the
    pair estimator missed that stratum's variance, and |z| reached
    31,366."""

    def test_pairs_share_a_segment_and_a_sub_stratum(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        args = (flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout)
        simulator = oracle._first_default(*args)
        seg, paths = simulator[0], 2**14
        assert 2.5 in seg.grid
        _, j, dt, _ = drawn(simulator, paths, 1)
        strata = pair_strata(seg.prob, paths)
        edges = np.array(
            [[stratified_time(seg.lam[i], seg.span[i], k, m, u) for u in (0.0, 1.0)]
             for i, k, m in strata]
        )
        np.testing.assert_array_equal(j[0::2], j[1::2])
        for d in (dt[0::2], dt[1::2]):
            assert np.all((edges[:, 0] - 1e-13 <= d) & (d <= edges[:, 1] + 1e-13))

    def test_agrees_with_engine_over_fifty_seeds(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        args = (flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout)
        engine = adjustment_independent(*args).value()
        z = [
            (mc.mean - engine) / mc.std_error
            for mc in (mc_value_independent(*args, 2**16, seed) for seed in range(50))
        ]
        assert max(map(abs, z)) <= 3.0, z


class TestStandardError:
    """The pair estimator's variance is unbiased: over fixed seeds, the
    reported standard error matches the spread of the estimates."""

    def test_matches_the_spread_of_estimates(
        self, flat_market, investor, counterparty, closeout, mixed
    ):
        args = (flat_market, investor, counterparty, 0.4, 0.02, mixed, closeout)
        runs = [mc_value_independent(*args, 2**12, seed) for seed in range(200)]
        spread = float(np.std([mc.mean for mc in runs], ddof=1))
        ratio = spread / float(np.mean([mc.std_error for mc in runs]))
        assert 0.8 <= ratio <= 1.25, ratio


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
        # survivors are not drawn: they have the first default's survival
        # at maturity, and the estimate pays them the flow sum, as it
        # does with every drawn payoff 0
        args = (flat_market, investor, counterparty, 0.4, 0.02, bullet, closeout)
        sample = sample_path_outcomes(*args, 500, 4)
        assert all(o.tau <= 5.0 for o in sample.outcomes)
        assert sample.paid_all == pytest.approx(math.exp(-0.01 * 5.0), rel=1e-14)
        assert sample.survival == pytest.approx(math.exp(-0.05 * 5.0), rel=1e-15)
        seg, _, bound = oracle._first_default(*args)

        def no_payoff(take, dt, out):
            out[:] = 0.0

        mc = oracle._simulate(500, 4, seg, no_payoff, bound)
        assert (mc.mean, mc.std_error) == (sample.survival * sample.paid_all, 0.0)


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

        # the pairs of pair_strata on lambda_C's segments, from the seed's
        # stream, each draw mapped into its sub-stratum by the reference
        # map; the survivors pay every flow, and every draw defaults by
        # maturity
        seg = oracle._dependent_default(self.market, model, self.schedule, self.closeout)[0]
        strata = pair_strata(seg.prob, paths)
        u = np.random.Generator(np.random.PCG64(seed)).random(2 * len(strata))
        j, dt = stream_draws(seg, paths, u)
        taus = seg.grid[j] + dt
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
            vx = naive_collateral_value(self.flows, self.market.collateral, tau)
            payoffs.append(p + closeout_values(self.closeout, vx)[1] * weight(tau))
        assert np.all(taus <= self.schedule.maturity)
        assert np.count_nonzero(taus > self.schedule.times[-1]) > 0
        survival = model.counterparty.survival(self.schedule.maturity)
        all_flows = sum(a * weight(t) for t, a in self.flows)
        mean, std_error = pair_stratified_estimate(seg.prob, survival, all_flows, paths, payoffs)
        assert mc.mean == pytest.approx(mean, abs=1e-12)
        assert mc.std_error == pytest.approx(std_error, rel=1e-9)


class TestBlockSize:
    """Draws run in blocks sized for the cache; the block size must not
    show in any estimate or draw.  A draw's segment and sub-stratum come
    from its index in the stream, so a block of odd size, which splits
    pairs, changes nothing either."""

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
        runs, blocks = {}, spy_blocks(monkeypatch)
        for block in (1, 7, 4096, paths, 2**20):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            blocks.clear()
            runs[block] = {name: sim() for name, sim in sims.items()}
            # one draw always lies in one segment, and all of a simulation's
            # draws in several: the same draws go once through the scalar
            # constants and once through the runs
            ndims = {j.ndim for _, j in blocks}
            if block == 1:
                assert ndims == {0}
            elif len(blocks) == len(sims):  # one block a simulation
                assert ndims == {1}
        for block in (1, 4096, paths, 2**20):
            assert runs[block] == runs[7]
        sample = runs[7]["path_outcomes"]
        assert len(sample.outcomes) == 2 * len(pair_strata(sample.prob, paths)) == 3330
        assert all(o.tau <= m.schedule.maturity for o in sample.outcomes)

    def test_chunked_results_do_not_depend_on_block_size(self, monkeypatch):
        # 3330 draws in chunks of 1000, the last partial; blocks of 7 and
        # 4096 draws divide neither, 2**20 is cut down to a chunk
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        self.test_results_do_not_depend_on_block_size(monkeypatch)

    @pytest.mark.parametrize(
        "hazard, chunk, draws",
        [(0.0, None, 0), (0.0, 1000, 0), (1e-4, 1000, 20),
         (200.0, None, 5018), (200.0, 1000, 5018)],
        ids=["none_at_risk", "none_at_risk_six_chunks", "a_chunk_without_risk_of_six",
             "every_path_at_risk", "every_path_at_risk_six_chunks"],
    )
    def test_chunks_without_survivors_or_at_risk_paths(self, monkeypatch, hazard, chunk, draws):
        # where no path can default nothing is drawn; where one in 1700
        # can, each of the 10 segments holds one pair, where most of a
        # crude run's six chunks would hold no default; a counterparty
        # hazard of 200 leaves no survivor, and the draws, nearly all in
        # the first segment, fill six chunks
        m = TestMultiFlowPayoffs
        paths, seed = 5003, 19
        if chunk:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
        lambda_bar, counterparty = hazard, None
        if hazard > 1.0:
            lambda_bar, counterparty = m.lambda_bar, CreditCurve("C", TermCurve.flat(hazard))
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
        assert mc == sample.estimate and mc.paths == paths
        assert_reference_estimate(mc, sample)
        assert len(sample.outcomes) == draws
        assert (sample.survival == 0.0) == (hazard > 1.0)
        assert (sample.survival == 1.0) == (hazard == 0.0)


class TestGatherReference:
    """Each draw's time and payoff, bit for bit, against the per-draw
    map that gathers every segment constant through an index array
    (:func:`gathered_times`), on block layouts that hold one segment,
    cross several segment ends, start mid-pair or border segments that
    hold no pair."""

    m = TestMultiFlowPayoffs
    # zero on [1.5, 3) in the sampled hazard of every simulator
    zero_run = {
        "lambda_bar": TermCurve.from_nodes([(0.0, 0.05), (1.5, 0.0), (3.0, 0.12)]),
        "counterparty": CreditCurve("C", TermCurve.from_nodes([(0.0, 0.15), (1.5, 0.0),
                                                               (3.0, 0.08)])),
    }

    def simulator(self, name, lambda_bar, counterparty):
        m = self.m
        if name.startswith("correlated"):
            theta = 1.5 if name == "correlated" else 0.0  # the product law at 0
            model = JointDefaultModel(m.investor, counterparty, theta)
            return oracle._dependent_default(m.market, model, m.schedule, m.closeout), theta
        counterparty = counterparty if name == "independent" else None
        args = (m.market, m.investor, counterparty, 0.4, lambda_bar, m.schedule, m.closeout)
        return oracle._first_default(*args), None

    @staticmethod
    def reference_payoffs(simulator, theta, j, dt):
        # the payoff map's own segment tables: only the per-draw map is
        # under test, not the set-up that builds them
        seg, payoffs, _ = simulator
        tables = inspect.getclosurevars(payoffs).nonlocals
        if theta is None:
            names = ("slope", "log_scale", "settle")
            return gathered_first_default_payoffs(seg, *(tables[n] for n in names), j, dt)
        names = ("cum", "rate", "k_c")
        return gathered_dependent_payoffs(
            seg, *(tables[n] for n in names), theta, credit._THETA_INDEPENDENT, j, dt
        )

    @pytest.mark.parametrize("name", ["riskfree_cpty", "independent", "correlated",
                                      "correlated_product_law"])
    @pytest.mark.parametrize(
        "layout, block",
        [("one_segment", 64), ("several_segment_ends", 2048), ("mid_pair", 333),
         ("zero_pair_segments", 1000)],
    )
    def test_bit_identical(self, monkeypatch, name, layout, block):
        m, paths, seed = self.m, 5003, 23
        curves = (m.lambda_bar, m.counterparty)
        if layout == "zero_pair_segments":
            curves = (self.zero_run["lambda_bar"], self.zero_run["counterparty"])
        simulator, theta = self.simulator(name, *curves)
        seg = simulator[0]
        monkeypatch.setattr(oracle, "_BLOCK", block)
        blocks = spy_blocks(monkeypatch)
        _, j, dt, got = drawn(simulator, paths, seed)

        u = np.random.Generator(np.random.PCG64(seed)).random(len(dt))
        want_j, want_dt = gathered_times(seg, paths, u)
        np.testing.assert_array_equal(j, want_j)
        assert dt.tobytes() == want_dt.tobytes()
        want = self.reference_payoffs(simulator, theta, want_j, want_dt)
        assert got.tobytes() == want.tobytes()

        # the layout the case names occurs
        held = [np.unique(b) for _, b in blocks]
        if layout == "one_segment":
            assert any(b.ndim == 0 for _, b in blocks)
        elif layout == "several_segment_ends":
            assert max(len(h) for h in held) >= 3
        elif layout == "mid_pair":
            assert any(at % 2 for at, _ in blocks)
        else:
            empty = np.flatnonzero(seg.prob == 0.0)
            assert len(empty) >= 2
            # a block on both sides of the segments without pairs
            assert any(h[0] < empty[0] and h[-1] > empty[-1] for h in held)


class TestContiguousColumns:
    """The draws' times reach the payoff map, and each name's levels the
    inverse survival maps, as a contiguous column, where the elementwise
    passes run at unit stride."""

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
        simulator = oracle._first_default(*args)
        seen = []

        def keep(take, dt, out):
            seen.append((take(simulator[0].lam), dt, out))
            simulator[1](take, dt, out)

        oracle._simulate(5000, 3, simulator[0], keep, simulator[2])
        assert all(a.ndim == 1 and a.flags.c_contiguous for _, dt, out in seen for a in (dt, out))
        # a segment's constant reaches the block as one scalar, or as runs
        # spread into a contiguous column of the draws
        assert all(lam.ndim == 0 or lam.flags.c_contiguous and lam.shape == dt.shape
                   for lam, dt, _ in seen)
        assert {lam.ndim for lam, _, _ in seen} == {0, 1}
        # one call per block of the draws, in one chunk
        n = 2 * len(pair_strata(simulator[0].prob, 5000))
        blocks = [min(1000, n - start) for start in range(0, n, 1000)]
        assert [len(dt) for _, dt, _ in seen] == blocks

    def test_joint_sampling_columns_are_contiguous(self, monkeypatch):
        m = self.m
        levels = self.spy(monkeypatch, CreditCurve, "inverse_survival")
        copula = self.spy(monkeypatch, oracle, "_conditional_inverse")
        sample_joint_defaults(JointDefaultModel(m.investor, m.counterparty, 1.5), 5000, 3)
        assert len(levels) == 2 and len(copula) == 2
        assert all(w.ndim == 1 and w.flags.c_contiguous for w in levels + copula)

    def test_copy_moves_no_bit(self):
        m = self.m
        seg, payoffs, _ = oracle._first_default(
            m.market, m.investor, m.counterparty, 0.4, m.lambda_bar, m.schedule, m.closeout
        )
        wide = np.random.Generator(np.random.PCG64(8)).random((4000, 4))
        strided = wide[:, ::2]
        assert not strided[:, 0].flags.c_contiguous
        j = np.flatnonzero(seg.prob)[np.arange(len(wide)) % np.count_nonzero(seg.prob)]
        strided[:, 0] *= seg.span[j]  # a time into each segment
        got, want = np.empty(len(wide)), np.empty(len(wide))
        payoffs(lambda t: t[j], strided[:, 0], got)
        payoffs(lambda t: t[j], strided[:, 0].copy(), want)
        assert got.tobytes() == want.tobytes()
        # the maps themselves do not depend on the stride of their levels
        for curve in (m.investor, m.counterparty):
            got = curve.inverse_survival(strided[:, 1])
            assert got.tobytes() == curve.inverse_survival(strided[:, 1].copy()).tobytes()


class TestChunkedReduction:
    """Payoffs are reduced in chunks of ``_CHUNK`` draws, each to its two
    weighted sums, and the chunks' sums are added in index order."""

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
        assert len(sample.outcomes) > 3000  # four chunks
        assert mc == sample.estimate and mc.paths == self.paths
        # the per-pair loop, up to the rounding of the sums' order
        assert_reference_estimate(mc, sample)

    @pytest.mark.parametrize("exponent", [400, 600, 1000])
    def test_scaled_reduction_is_exact(self, monkeypatch, exponent):
        # payoffs whose squares could overflow (past 2**504 at 5018 draws)
        # reduce scaled by a power of two, and scale back to the bits of
        # the unscaled reduction; the survivors' term is left out, so that
        # the mean scales with the payoffs
        monkeypatch.setattr(oracle, "_CHUNK", 1000)
        m = self.m
        hazard = CreditCurve("C", TermCurve.flat(200.0))
        seg = oracle._first_default(
            m.market, m.investor, hazard, 0.4, m.lambda_bar, m.schedule, m.closeout
        )[0]
        assert seg.survival == 0.0
        draws = 2 * len(pair_strata(seg.prob, self.paths))
        payoffs = np.random.Generator(np.random.PCG64(3)).normal(1.0, 0.5, draws)
        bound = float(np.max(np.abs(payoffs)))

        def simulate(factor):
            done = [0]

            def mapped(take, dt, out):
                out[:] = payoffs[done[0] : done[0] + len(out)] * factor
                done[0] += len(out)

            with np.errstate(over="raise", invalid="raise"):
                est = oracle._simulate(self.paths, 1, seg, mapped, bound * factor)
            assert done[0] == draws
            return est

        small, large = simulate(1.0), simulate(2.0**exponent)
        assert large.mean == small.mean * 2.0**exponent
        assert large.std_error == small.std_error * 2.0**exponent
        # the per-pair loop, unscaled
        mean, std_error = pair_stratified_estimate(seg.prob, 0.0, 0.0, self.paths, payoffs)
        assert small.mean == pytest.approx(mean, rel=1e-12)
        assert small.std_error == pytest.approx(std_error, rel=1e-12)
        scaled = oracle._scale(draws, bound * 2.0**exponent) < 1.0
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
    keeps the block temporaries instead of trimming and refaulting them
    every block.  The trade is long_mc-shaped: 10-node curves, 120
    quarterly flows and both names, where most paths default and where
    just under a quarter can.  Measured on the most-default trade:
    2.07, 2.34 and 2.44 MiB (riskfree_cpty, independent, correlated),
    the chunk buffer and one block's temporaries."""

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
            (seg, _, _), _, _ = sims["independent"]
            assert 0.75 <= seg.survival < 0.76
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

    The simulation is replaced by one call of the payoff map on the
    default times, each located by a plain lookup in the grid
    (:func:`naive_locate`), and returns the payoffs instead of the
    estimate; a time past maturity survives, paid every flow.
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
        def payoff_vector(paths, seed, seg, payoffs, bound):
            tau = np.array(taus)
            out = np.full(len(tau), seg.paid_all)
            defaults = np.flatnonzero(tau <= seg.maturity)
            mapped = np.empty(len(defaults))
            j, dt = naive_locate(seg, tau[defaults])
            payoffs(lambda t: t[j], dt, mapped)
            out[defaults] = mapped
            return out

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
    """A draw becomes a default time with no lookup: the pair it belongs
    to fixes its segment ``j`` and sub-stratum ``k`` of ``m_j``, and the
    time is where the sampled hazard's survival falls to the level ``S(g_j)
    - (k + u) / m_j * p_j``.  That agrees with the inverse survival map;
    a segment of zero hazard holds no draw, and a draw at the bottom of a
    segment defaults exactly at its grid point."""

    m = TestMultiFlowPayoffs
    LOG2 = math.log(2.0)  # -log(0.5), exactly

    def segments(self, schedule, intensity):
        collateral = self.m.market.collateral
        grid = oracle._segment_grid(schedule, (collateral, intensity))
        return oracle._Segments(schedule, collateral, grid, np.zeros(len(grid)), intensity)

    def simulator(self, schedule, intensity):
        """The segment table on ``intensity`` with a payoff map that pays
        the flows of each default."""
        seg = self.segments(schedule, intensity)

        def paid(take, dt, out):
            out[:] = seg.paid(take, dt)

        return seg, paid, 1.0

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
    def test_agrees_with_inverse_survival(self, monkeypatch, nodes):
        curve = CreditCurve("N", TermCurve.from_nodes(nodes))
        simulator = self.simulator(self.m.schedule, curve.intensity)
        seg, paths = simulator[0], 4000
        strata = pair_strata(seg.prob, paths)
        # the extreme draws, then random ones
        u = np.random.Generator(np.random.PCG64(5)).random(2 * len(strata))
        u[:3] = [0.0, 2.0**-53, 1.0 - 2.0**-53]
        _, j, dt, _ = fixed_draws(monkeypatch, simulator, paths, u)
        cells = [c for c in strata for _ in (0, 1)]
        np.testing.assert_array_equal(j, [c[0] for c in cells])
        assert np.all(seg.lam[j] > 0.0) and np.all((0.0 <= dt) & (dt <= seg.span[j]))
        start = curve.survival(seg.grid[j])
        levels = start - np.array([(k + w) / n for (_, k, n), w in zip(cells, u)]) * seg.prob[j]
        # a level that rounds to the segment's start, u = 0 among them,
        # defaults there, where a leading zero run leaves the inverse at 0
        assert dt[0] == 0.0
        on_start = levels == start
        assert np.all(dt[on_start] <= 1e-12) and np.count_nonzero(on_start) < 4
        rest = ~on_start
        want = [naive_inverse_survival(nodes, w) for w in levels[rest]]
        np.testing.assert_allclose(seg.grid[j[rest]] + dt[rest], want, rtol=0.0, atol=1e-12)
        assert seg.survival == curve.survival(self.m.schedule.maturity)

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
    def test_level_on_a_knot(self, monkeypatch, nodes, at):
        # H(at) = log 2 exactly: the segments before ``at`` hold
        # probability 0.5, and ``at`` is the edge of a sub-stratum.  Each
        # pair draws the bottom and the top of its sub-stratum: the draws
        # of a segment stay in it, a segment that starts at ``at`` with
        # positive hazard has its first draw exactly there, paid the flows
        # dated before it, and a zero run from ``at`` on holds no draw
        curve = CreditCurve("N", TermCurve.from_nodes(nodes))
        simulator = self.simulator(self.m.schedule, curve.intensity)
        seg, paths = simulator[0], 400
        assert curve.intensity.cumulative(at) == -math.log(0.5)
        i = int(np.searchsorted(seg.grid, at))
        assert seg.grid[i] == at
        assert math.fsum(seg.prob[:i]) == pytest.approx(0.5, abs=1e-15)
        draws = 2 * len(pair_strata(seg.prob, paths))
        u = np.tile([0.0, 1.0 - 2.0**-53], draws // 2)
        _, j, dt, paid = fixed_draws(monkeypatch, simulator, paths, u)
        tau = seg.grid[j] + dt
        assert np.all(tau[j < i] <= at) and np.all(tau[j >= i] >= at)
        before = sum(a for t, a in self.m.flows if t < at)
        if seg.lam[i] > 0.0:
            first = int(np.argmax(j == i))
            assert (tau[first], dt[first]) == (at, 0.0)
            assert paid[first] == seg.paid_before[i] == pytest.approx(before, abs=1e-15)
        else:
            assert seg.prob[i] == 0.0 and i not in j
        assert curve.inverse_survival(0.5) == pytest.approx(at, abs=1e-12)

    @pytest.mark.parametrize("maturity", [4.0, 8.0], ids=["at_last_flow", "after_last_flow"])
    def test_default_at_maturity(self, monkeypatch, maturity):
        # lambda_bar = log 2 / maturity: S(maturity) = 0.5 exactly, the
        # survivors' probability, and the segments hold the other half.
        # The top of the last sub-stratum defaults at maturity, where,
        # after the last flow, every flow has been paid and nothing is
        # left to close out; where maturity is the last flow date, the
        # empty segment from it holds no draw
        m, table = self.m, TestSegmentTable()
        schedule = CashflowSchedule.from_flows(m.flows, maturity=maturity)
        lambda_bar = TermCurve.flat(self.LOG2 / maturity)
        simulator = oracle._first_default(
            m.market, m.investor, None, 0.4, lambda_bar, schedule, m.closeout
        )
        seg = simulator[0]
        assert seg.survival == 0.5
        assert math.fsum(seg.prob) == pytest.approx(0.5, abs=1e-15)
        assert (seg.prob[-1] == 0.0) == (seg.grid[-1] == maturity)
        draws = 2 * len(pair_strata(seg.prob, 64))
        _, j, dt, got = fixed_draws(monkeypatch, simulator, 64, np.full(draws, 1.0 - 2.0**-53))
        tau = seg.grid[j] + dt
        assert tau[-1] == pytest.approx(maturity, abs=1e-12) and np.all(tau <= maturity)
        r_bar = internal_rate(m.market, m.investor, 0.4, lambda_bar)
        # a time that rounds onto the segment's end would be marked ex-dividend
        inside = tau < seg.grid[j] + seg.span[j]
        for t, p in zip(tau[inside], got[inside]):
            expected = table.first_default_expected(schedule, t, r_bar)
            assert p == pytest.approx(expected, abs=1e-12), t
        all_flows = table.first_default_expected(schedule, math.inf, r_bar)
        assert (got[-1] == pytest.approx(all_flows, abs=1e-12)) == (maturity > m.flows[-1][0])

    def test_survivor_pays_its_flows_to_the_bit(self):
        # flows that sum to -0.0: where nothing can default, the estimate
        # is the survivors' flow sum, sign bit and all; where something
        # can, the survivors' term S(T) * paid_all keeps the sign bit
        m = self.m
        schedule = CashflowSchedule.from_flows([(1.0, -0.0)])
        minus_zero = np.array(-0.0).tobytes()
        zero = CreditCurve("C", TermCurve.flat(0.0))
        for counterparty, lambda_bar in ((None, 0.0), (zero, 0.0), (m.counterparty, 0.02)):
            args = (m.market, m.investor, counterparty, 0.4, lambda_bar, schedule, m.closeout)
            seg = oracle._first_default(*args)[0]
            assert np.array(seg.paid_all).tobytes() == minus_zero
            assert np.array(seg.survival * seg.paid_all).tobytes() == minus_zero
            mc = mc_value_independent(*args, 1000, 3)
            assert (mc.mean, mc.std_error) == (0.0, 0.0)
            if seg.survival == 1.0:
                assert np.array(mc.mean).tobytes() == minus_zero

    def test_level_zero_under_a_boundary_of_one_ulp(self):
        # a hazard of 1e307 overflows long before maturity: nothing
        # survives, the first segment holds every default, its draws
        # default within ~1e-305 of time 0 (log1p(-1) = -inf would put a
        # draw at the segment's end), and their payoffs, the flows before
        # and the closeout at such a time, are finite where 0 * inf would
        # be NaN; bond recovery 1 keeps r_bar off lambda_bar
        m, table = self.m, TestSegmentTable()
        r_bar = internal_rate(m.market, m.investor, 1.0, 1e307)
        for counterparty in (None, CreditCurve("C", TermCurve.flat(1e307))):
            with np.errstate(**cli._RUN_ERRSTATE):
                simulator = oracle._first_default(
                    m.market, m.investor, counterparty, 1.0, 1e307, m.schedule, m.closeout
                )
                seg = simulator[0]
                estimate, j, dt, got = drawn(simulator, 2000, 3)
            assert seg.survival == 0.0 and seg.prob[0] == 1.0 and not np.any(seg.prob[1:])
            assert len(j) == 2000 and not np.any(j) and np.all(dt < 1e-300)
            share = counterparty_share(counterparty, 1e307, 0.0)  # 0.5 with the counterparty
            for tau, p in zip(dt.tolist(), got):
                expected = table.first_default_expected(m.schedule, tau, r_bar, share)
                assert p == pytest.approx(expected, abs=1e-12), tau
            assert math.isfinite(estimate.mean) and math.isfinite(estimate.std_error)


class TestSurvivorKnot:
    """Survivors are never drawn, and no draw is located by a lookup:
    the estimate pays the survivors every flow with the survival at
    maturity as their weight, and each draw's segment comes from its
    index in the stream."""

    def test_one_pass_per_key(self, monkeypatch):
        # on a long_mc-shaped trade, once set up, a simulation makes no
        # search among the grid or a curve's nodes: every such search,
        # a multi-node curve's included, is an np.searchsorted call
        t = TestHeapPeak
        market = MarketRates(t.curve(0.01, 0.04), t.curve(0.005, 0.03))
        investor = CreditCurve("I", t.curve(0.01, 0.025))
        counterparty = CreditCurve("C", t.curve(0.05, 0.07))
        # 120 quarterly flows: maturity 30 is the last flow date
        schedule = CashflowSchedule.from_flows(
            [(k / 4, 1.0 - (k <= 60) * 2.25) for k in range(1, 121)]
        )
        closeout = CloseoutSpec(0.4, 0.3)
        simulators = [
            oracle._first_default(
                market, investor, name, 0.2, t.curve(0.05, 0.07), schedule, closeout
            )
            for name in (None, counterparty)
        ]
        model = JointDefaultModel(investor, counterparty, 1.5)
        simulators.append(oracle._dependent_default(market, model, schedule, closeout))
        calls = []

        def counting(original):
            def count(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)

            return count

        monkeypatch.setattr(np, "searchsorted", counting(np.searchsorted))
        for seg, payoffs, bound in simulators:
            estimate = oracle._simulate(2**14, 5, seg, payoffs, bound)
            assert 0.0 < estimate.std_error < 1e-3
        assert calls == []

    def test_survivors_pay_every_flow(self):
        # maturity 4.0 is the last flow date: the survivors, of the
        # sampled hazard's survival at maturity, are paid every flow;
        # the segments hold the rest of the probability, the empty one
        # at maturity none, and with every drawn payoff 0 the estimate is
        # the survivors' term
        m = TestMultiFlowPayoffs
        schedule = CashflowSchedule.from_flows(m.flows)
        grid = oracle._segment_grid(schedule, (m.market.collateral, m.lambda_bar))
        seg = oracle._Segments(schedule, m.market.collateral, grid, -0.01 * grid, m.lambda_bar)
        all_flows = sum(a * math.exp(-0.01 * t) for t, a in m.flows)
        assert seg.paid_all == pytest.approx(all_flows, abs=1e-15)
        assert seg.survival == CreditCurve("N", m.lambda_bar).survival(4.0)
        assert grid[-1] == 4.0 and seg.span[-1] == 0.0 and seg.prob[-1] == 0.0
        assert math.fsum(seg.prob) + seg.survival == pytest.approx(1.0, abs=1e-15)

        def no_payoff(take, dt, out):
            out[:] = 0.0

        mc = oracle._simulate(4096, 2, seg, no_payoff, 1.0)
        assert (mc.mean, mc.std_error) == (seg.survival * seg.paid_all, 0.0)


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


class TestBoundary:
    """The strata are exact on the sampled hazard: the survivors have its
    survival at maturity, and every drawn time is a default by maturity
    in its own segment, on curves at the edges of the double range."""

    market = MarketRates(TermCurve.flat(0.01), TermCurve.flat(0.005))
    investor = CreditCurve("I", TermCurve.flat(0.02))
    closeout = CloseoutSpec(0.4, 0.3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), maturity=st.sampled_from([0.25, 1.0, 5.0, 30.0, 1e5]))
    def test_levels_below_the_boundary_survive(self, data, maturity):
        sampled = data.draw(credit_curves(maturity))
        counterparty = data.draw(credit_curves(maturity))
        schedule = CashflowSchedule.from_flows([(0.5 * maturity, -1.0), (maturity, 2.0)])
        seed = data.draw(st.integers(0, 2**32 - 1))
        # each simulator with the hazards whose sum it samples; bond
        # recovery 1 keeps r_bar off lambda_bar, whatever its size
        none = TermCurve.flat(0.0)
        simulators = [
            (oracle._first_default, (self.market, self.investor, None, 1.0, sampled.intensity),
             (sampled.intensity, none)),
            (oracle._first_default,
             (self.market, self.investor, counterparty, 1.0, sampled.intensity),
             (sampled.intensity, counterparty.intensity)),
            (oracle._dependent_default,
             (self.market, JointDefaultModel(self.investor, counterparty, 0.0)),
             (counterparty.intensity, none)),
        ]
        for build, args, hazards in simulators:
            try:
                simulator = build(*args, schedule, self.closeout)
            except InvariantError:  # a hazard past the copula's range
                continue
            except ValueError:  # the two hazards' sum past the largest double
                assert none not in hazards
                continue
            seg = simulator[0]
            hazard = CreditCurve("N", combined(hazards, np.add))
            with np.errstate(over="ignore"):
                assert seg.survival == hazard.survival(maturity)
            _, j, dt, _ = drawn(simulator, 64, seed)
            assert np.all(seg.prob[j] > 0.0)
            assert np.all((0.0 <= dt) & (dt <= seg.span[j]))
            assert np.all(seg.grid[j] + dt <= maturity)

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
