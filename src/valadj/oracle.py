"""Monte Carlo valuation, independent of the ODE engine.

Each engine route has a simulator that prices the trade by sampling
default times and averaging discounted payoffs (``riskfree_cpty`` is
:func:`mc_value_independent` without a counterparty); agreement within
statistical error is the package's main correctness check, because the
two routes share no numerics beyond the curve classes.

A path collects the flows dated strictly before its first default
``tau``; a default at ``tau <= maturity`` also settles against the
ex-dividend mark ``v_X(tau)``, so a flow dated exactly ``tau`` is
neither paid nor marked (a null event under continuous default laws).
Everything that does not depend on the path is computed once per
simulation, in a table on the grid ``G`` of 0, the flow dates and the
nodes of every curve the payoff reads (``_Segments``), and checked: a
set-up whose payoffs could overflow raises ``InvariantError``, naming
the quantity and the time, before any path is drawn.

Every simulator samples one time, ``tau``, from one hazard that is
constant on each segment of ``G``.  Independent defaults are competing
risks: the first default arrives at ``lambda_bar + lambda_C``, and it is
the counterparty's with probability ``lambda_C / (lambda_bar +
lambda_C)``, so a default settles that mix of the two closeouts, the
payoff's conditional expectation given ``tau``.  Dependent defaults
sample ``tau_C`` alone.

Paths are stratified on the segments of ``G`` (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2003, section 4.3).  With ``S`` the
survival of the sampled hazard, segment ``j`` holds a default with
probability ``p_j = S(g_j) (1 - exp(-lam_j span_j))`` and no path
defaults by maturity with probability ``S(T)``; the survivors pay every
flow with no draw.  Segment ``j`` gets ``m_j = max(1, round(paths p_j /
2))`` pairs of draws (none where ``p_j = 0``), pair ``k`` of them in the
``k``-th of its ``m_j`` sub-strata of equal probability: a draw ``u``
maps to ``q = (k + u) / m_j`` and the time ``dt = -log1p(q expm1(-lam_j
span_j)) / lam_j`` into the segment, at most ``span_j``.  The segment
of a draw is known before the draw, and a flow date is always a stratum
edge, so no stratum straddles a jump of the payoff.  With ``w_j = p_j /
m_j`` the estimate is ``S(T) paid_all + sum w_j (x_1 + x_2) / 2`` over
the pairs' payoffs, with variance ``sum w_j**2 (x_1 - x_2)**2 / 4``,
unbiased within each sub-stratum; ``McEstimate.paths`` stays ``paths``.
Where nothing can default ``S(T)`` is 1: nothing is drawn, and the
estimate is the flow sum with a standard error of 0.  The strata read
only the hazard and ``G``, never the solver's numerics, so the oracle
stays independent of the engine it checks.

Randomness contract: draws come from numpy's ``PCG64`` generator seeded
with the seed (through ``SeedSequence``, so any non-negative integer is a
seed).  Pair ``s``, counted over the segments in order, takes draws
``2s`` and ``2s + 1`` of the stream.  ``PCG64`` emits one 64-bit word per
double, so a worker owning the pairs from ``s`` on reproduces its draws
exactly from ``PCG64(seed).advance(2s)``.

Blocks of ``_BLOCK`` draws fill one reused buffer, continuing the
stream; each draw's segment and sub-stratum come from its index in the
stream, so a block may split a pair.  No draw carries its segment's
index: a block within one segment reads each constant of the segment as
one scalar, and a block over several reads it as runs, the constant of
each segment repeated over that segment's draws.  One ``log1p`` gives
each draw's time and one ``exp`` its payoff, computed in place in one
chunk buffer.  A chunk of ``_CHUNK`` draws reduces to its two weighted
sums by ``np.add.reduceat`` over the segments' offsets in it, and the
chunks' sums are added in index order: memory is ``O(chunk + block)``.
Payoffs whose squares could overflow are reduced scaled by a power of
two, undone exactly.  Payoffs come from elementwise operations that do
not depend on the length or stride of their arrays, nor on whether a
constant comes as a scalar or a run, so estimates are bit-identical for
every block size.

:func:`sample_joint_defaults` maps uniforms to default times through the
inverse survival function; ``inf`` means the name never defaults on the
path.  It samples the copula by conditional inversion:

    u = w1
    v = ((w2**(-theta/(1+theta)) - 1) * u**-theta + 1)**(-1/theta)

with ``v = w2`` when ``theta = 0``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .credit import CreditCurve, JointDefaultModel, _conditional_inverse, _log_clayton
from .curves import MarketRates, TermCurve, as_curve, combined
from .errors import _require_finite
from .instruments import CashflowSchedule, CloseoutSpec, closeout_values, collateral_value
from .measure import internal_rate

__all__ = ["McEstimate", "sample_joint_defaults", "mc_value_independent", "mc_value_correlated"]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; reproducible from
    ``(paths, seed)``."""

    mean: float
    std_error: float
    paths: int
    seed: int


# Draws per block: a block's draws and temporaries stay in a 2 MiB L2
# cache, and the heap peak under the trim threshold that _CHUNK's buffer
# sets (below): TestHeapPeak's trades peak at 2.44 MiB under tracemalloc,
# the chunk buffer and one block's temporaries (the reduction writes the
# pairs' differences into the buffer, so it adds no half-chunk array).
# 2**15-path blocks peaked at 4.4-5.1 MiB, and a timed long_mc call took
# ~1180 minor page faults, not ~43 (2-vCPU Xeon).
_BLOCK = 2**14

# Draws per reduction chunk, an even number so that no pair straddles two
# chunks, whose mapped payoffs fill at most one 2 MiB buffer.  glibc
# raises its mmap and trim thresholds to the largest mapped block freed:
# freeing the buffer sets the trim threshold to ~4 MiB, so a heap that
# peaks below it keeps the block temporaries instead of trimming and
# refaulting them every block.  Smaller chunks leave the thresholds low
# (2**15-path chunks took 2.4k faults a long_mc call, 2**17 4.1k).
_CHUNK = 2**18


def _generator(paths: int, seed: int) -> np.random.Generator:
    if paths < 2:
        raise ValueError("need at least two paths")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def _simulate(paths: int, seed: int, seg: _Segments, payoffs, bound) -> McEstimate:
    """The estimate from the discounted payoffs, each at most ``bound``
    in magnitude, of ``paths`` nominal paths stratified on the segments
    of ``seg``: the pairs' draws come in blocks that continue the
    generator's stream, and ``payoffs(take, dt, out)`` writes the payoffs
    of a block's defaults, ``dt`` into their segments, into the next
    slice of one chunk buffer; ``take(table)`` is each default's entry of
    a table on the segments (:meth:`_Segments.times`)."""
    gen = _generator(paths, seed)
    pairs = np.where(seg.prob > 0.0, np.maximum(np.rint(paths * seg.prob / 2), 1.0), 0.0)
    first = np.concatenate(([0], np.cumsum(pairs.astype(np.int64))))  # each segment's first pair
    weight = np.divide(seg.prob, pairs, out=np.zeros_like(pairs), where=pairs > 0.0)
    draws = 2 * int(first[-1])
    scale = _scale(draws, bound)
    x = np.empty(min(_CHUNK, draws))
    size = min(_BLOCK, len(x))  # blocks end at chunk ends
    u = np.empty(size)
    mean, variance = seg.survival * seg.paid_all, 0.0
    for start in range(0, draws, _CHUNK):
        n = min(_CHUNK, draws - start)
        for at in range(start, start + n, size):
            w = gen.random(out=u[: min(size, start + n - at)])
            payoffs(*seg.times(pairs, first, at, w), x[at - start : at - start + len(w)])
        y = x[:n]
        y *= scale  # exact, 1 unless squares could overflow
        # the segments with pairs in the chunk, and where each starts in it
        edges = np.clip(first, start // 2, (start + n) // 2) - start // 2
        held = np.flatnonzero(np.diff(edges))
        total, squares = _weighted_sums(y, edges[held], weight[held])
        mean += total / 2 / scale
        variance += squares / 4
    return McEstimate(mean=mean, std_error=math.sqrt(variance) / scale, paths=paths, seed=seed)


def _weighted_sums(x, offsets, weight) -> tuple[float, float]:
    """``sum w (x_1 + x_2)`` and ``sum w**2 (x_1 - x_2)**2`` over the pairs
    ``(x_1, x_2)`` of ``x``, each weighted by the ``w`` of its segment: the
    pairs from ``offsets[i]`` on have weight ``weight[i]``.  The pairs'
    differences overwrite the first half of ``x``."""
    total = float(np.sum(weight * np.add.reduceat(x, 2 * offsets)))
    d = x[: len(x) // 2]
    # block by block, each block's pairs read before they are overwritten:
    # only the first block overlaps its input, and numpy buffers it
    for s in range(0, len(d), _BLOCK):
        e = min(s + _BLOCK, len(d))
        np.subtract(x[2 * s : 2 * e : 2], x[2 * s + 1 : 2 * e : 2], out=d[s:e])
    np.square(d, out=d)
    return total, float(np.sum(weight * weight * np.add.reduceat(d, offsets)))


def _scale(draws: int, bound: float) -> float:
    """A power of two that keeps the squared differences of ``draws``
    payoffs of magnitude at most ``bound``, and their sum, finite: 1
    unless they could overflow.  Scaling by it, and back, is exact."""
    # draws * (2 * bound)**2 <= 2**1023 once bound <= 2**limit
    limit = (1021 - draws.bit_length()) // 2
    exponent = math.frexp(bound)[1]  # bound < 2**exponent
    return 1.0 if exponent <= limit else math.ldexp(1.0, limit - exponent)


def sample_joint_defaults(
    model: JointDefaultModel, paths: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``(tau_I, tau_C)`` from the market joint law.

    Two uniforms per path; conditional inversion of the survival copula,
    then marginal inverse survival maps.
    """
    w = _generator(paths, seed).random((paths, 2))
    u = np.ascontiguousarray(w[:, 0])
    v = _conditional_inverse(u, np.ascontiguousarray(w[:, 1]), model.theta)
    return model.investor.inverse_survival(u), model.counterparty.inverse_survival(v)


def _segment_grid(schedule: CashflowSchedule, curves) -> np.ndarray:
    """0, every flow date and every node of ``curves`` up to maturity,
    sorted.

    Maturity itself needs no point: a default there either falls on the
    last flow date, or after the last flow, where every flow has been
    paid and ``v_X`` is 0 on the whole last segment.
    """
    pts = {0.0, *schedule.times}
    for curve in curves:
        pts.update(t for t in curve.times if t <= schedule.maturity)
    return np.array(sorted(pts))


class _Segments:
    """One simulation's strata and payoff constants on the segments of
    ``grid``.

    ``grid`` comes from :func:`_segment_grid` over ``r_X`` and every
    other curve the payoff reads, the sampled ``hazard`` among them.  On
    a segment ``[g_j, g_{j+1})`` each of them is constant and no flow
    falls strictly inside, so:

    * the flows a default in the segment has been paid are fixed, with a
      separate sum for a default exactly at ``g_j``, which does not
      collect the flow dated ``g_j``;
    * ``v_X(t) = owed[j] exp(log_vx[j] + rate_x[j] (t - g_j))``, with
      ``owed`` the value of the remaining flows at the next flow date
      (all three are 0 once no flow is left).  Anchoring ``v_X`` there
      rather than at ``g_j`` keeps it from underflowing at the start of
      a long segment;
    * the hazard is ``lam[j]``, and a default falls in the segment with
      probability ``prob[j] = S(g_j) * -expm1(-lam[j] span[j])``, a
      product in which no two survival levels cancel.  No default comes
      by maturity with probability ``survival``, ``S(T)``.

    ``log_discount`` is the log of the weight of a flow paid at each
    grid time.
    """

    def __init__(self, schedule: CashflowSchedule, collateral, grid, log_discount, hazard):
        times = np.asarray(schedule.times)
        self.grid = grid
        self.maturity = schedule.maturity
        # the time a default can spend in each segment, the last to maturity
        self.span = np.diff(np.append(grid, self.maturity))
        flow_at = np.searchsorted(grid, times)  # flow dates are grid points
        upto = np.searchsorted(times, grid, side="right")  # flows dated <= g_j

        weighted = np.asarray(schedule.amounts) * np.exp(log_discount[flow_at])
        prefix = np.concatenate(([0.0], np.cumsum(weighted)))
        self.paid_all = float(prefix[-1])
        self.paid_before = prefix[np.searchsorted(times, grid, side="left")]
        self.paid_upto = prefix[upto]

        nxt = np.minimum(upto, len(times) - 1)  # first flow after g_j
        done = upto == len(times)  # no flow left after g_j
        h_x = np.asarray(collateral.cumulative(grid))
        owed = collateral_value(schedule, collateral, times, left=True)
        self.owed = np.where(done, 0.0, owed[nxt])
        self.log_vx = np.where(done, 0.0, h_x - h_x[flow_at[nxt]])
        self.rate_x = np.where(done, 0.0, collateral.value(grid))

        self.lam = np.asarray(hazard.value(grid))
        self.shrink = np.expm1(-self.lam * self.span)  # S(g_{j+1}) / S(g_j) - 1
        self.prob = np.exp(-np.asarray(hazard.cumulative(grid))) * -self.shrink
        self.survival = float(np.exp(-hazard.cumulative(self.maturity)))

    def times(self, pairs, first, at, u):
        """``(take, dt)`` of the draws ``u``, draws ``at, at + 1, ...`` of
        the stream, where segment ``j`` holds ``pairs[j]`` pairs from pair
        ``first[j]`` on: the times ``dt`` into their segments, written over
        ``u``, and ``take(table)``, each draw's entry of a table on the
        segments.  That is one scalar where the draws share a segment, and
        otherwise the entries of the segments they fall in, each repeated
        over its run of draws."""
        runs = np.diff(np.clip(2 * first, at, at + len(u)))  # the draws in each segment
        held = np.flatnonzero(runs)
        if len(held) == 1:
            take = operator.itemgetter(held[0])
        else:
            runs = runs[held]

            def take(table):
                return np.repeat(table[held], runs)

        k = np.arange(at, at + len(u))
        k >>= 1  # the draw's pair, and from it the pair's sub-stratum
        k -= take(first)
        q = np.add(k, u, out=u)
        q /= take(pairs)
        q *= take(self.shrink)
        with np.errstate(divide="ignore"):  # q rounded up to 1 under a shrink of -1
            dt = np.log1p(q, out=q)
        dt /= take(self.lam)
        np.negative(dt, out=dt)
        return take, np.minimum(dt, take(self.span), out=dt)

    def paid(self, take, dt):
        """The flows paid by the defaults ``dt`` into the segments of
        ``take`` (see :meth:`times`)."""
        paid = take(self.paid_upto)
        on_node = dt == 0.0
        if on_node.any():
            paid = np.where(on_node, take(self.paid_before), paid)
        return paid


def _check_payoffs(seg: _Segments, settle, log_scale, slope) -> float:
    """Raise :class:`InvariantError` where a payoff of ``seg`` is not
    finite, and return a bound on every payoff's magnitude.  A default
    ``dt`` into segment ``j`` is paid its flows and ``settle[j] *
    exp(log_scale[j] + slope[j] * dt)`` (the exponent may be an upper
    bound): monotone in ``dt``, so the payoffs at a segment's two ends
    bound those inside it, and a survivor is paid every flow, the flows
    paid up to the last grid point."""
    at = (seg.grid, seg.grid, seg.grid + seg.span)
    paid = (seg.paid_before, seg.paid_upto, seg.paid_upto)
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.exp(log_scale)
        growth = (start, start, np.exp(log_scale + slope * seg.span))
        closeouts = [
            ("discounted closeout", t, p + settle * g) for t, p, g in zip(at, paid, growth)
        ]
    checks = [("discounted flows", seg.grid, paid[1]), *closeouts]
    _require_finite(*checks)
    return max(float(np.max(np.abs(values))) for _, _, values in checks)


def _first_default(
    market: MarketRates,
    investor: CreditCurve,
    counterparty: CreditCurve | None,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
):
    """The first-default simulator, its constants built once.

    The investor defaults at its internal intensity ``lambda_bar``, the
    counterparty (if any; ``None`` never defaults) independently at its
    market intensity ``lambda_C``.  Payoffs are discounted at the
    deterministic internal rate ``r_bar``: flows are paid while both
    names are alive, then the closeout of whoever defaults first (if
    before maturity).  The first default arrives at the hazard
    ``lambda_bar + lambda_C`` and is the counterparty's with probability
    ``s = lambda_C / (lambda_bar + lambda_C)``, so a default settles ``k_I
    + s (k_C - k_I)``, the closeout's expectation given the time.
    Returns ``(seg, payoffs, bound)`` for :func:`_simulate`: the segment
    table, stratified on ``lambda_bar + lambda_C``, the map from defaults
    to payoffs and a bound on every payoff's magnitude.

    The closeout is positively homogeneous in ``v_X``, so on a segment
    it is the closeout of ``owed`` times one exponential, which also
    carries the discount.
    """
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    lam_c = TermCurve.flat(0.0) if counterparty is None else counterparty.intensity
    hazard = combined((lam_bar, lam_c), np.add)
    # r_bar has lam_bar's nodes: with lam_c's, the hazard is constant on each segment
    grid = _segment_grid(schedule, (market.collateral, r_bar, lam_c))
    with np.errstate(over="ignore", invalid="ignore"):
        log_discount = -np.asarray(r_bar.cumulative(grid))
        seg = _Segments(schedule, market.collateral, grid, log_discount, hazard)
        k_i, k_c = closeout_values(closeout, seg.owed)
        share = np.asarray(lam_c.value(grid)) / np.asarray(hazard.value(grid))  # NaN at 0 / 0
        settle = np.where(share > 0.0, k_i + share * (k_c - k_i), k_i)
        log_scale = seg.log_vx + log_discount
        slope = seg.rate_x - np.asarray(r_bar.value(grid))
    bound = _check_payoffs(seg, settle, log_scale, slope)

    def payoffs(take, dt, out):
        x = np.multiply(take(slope), dt, out=out)  # in place from here
        x += take(log_scale)
        np.exp(x, out=x)
        x *= take(settle)
        x += seg.paid(take, dt)

    return seg, payoffs, bound


def mc_value_independent(
    market: MarketRates,
    investor: CreditCurve,
    counterparty: CreditCurve | None,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    paths: int,
    seed: int,
) -> McEstimate:
    """Simulate v(0) with both names defaulting independently: the
    investor at its internal intensity, the counterparty at its market
    intensity.  ``counterparty=None`` never defaults (the ``riskfree_cpty``
    regime), as a counterparty of zero hazard does, with the same
    estimate; with ``lambda_bar = 0`` nothing is then drawn, and the mean
    is the flow sum with a standard error of 0.
    """
    return _simulate(
        paths, seed, *_first_default(
            market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
        )
    )


def _dependent_default(market, model, schedule, closeout):
    """The dependent-default simulator, its constants built once; returns
    ``(seg, payoffs, bound)`` as :func:`_first_default` does, stratified
    on ``lambda_C``.

    Only ``tau_C`` is random (its internal law equals the market one);
    the numeraire is the survival-contingent bank account, so a flow at
    ``t`` on a surviving path is weighted by ``D(0,t) U(t,t) / U_C(t)``
    and the closeout at ``tau_C <= T`` by the same expression evaluated
    at the default time (its left limit along the path).

    On a segment ``r``, ``lam_I`` and ``lam_C`` are constant, so the
    cumulative rate and hazards at a default time are read off the
    segment table; only the copula term is evaluated per path.  It is
    checked at both ends of every segment, and the payoffs are checked
    with ``U(t,t) / U_C(t) <= 1``, as the copula term is concave in ``dt``.
    """
    curves = (market.risk_free, model.investor.intensity, model.counterparty.intensity)

    def log_weight(h_r, h_i, h_c, out=None):
        # log of D(0,t) U(t,t) / U_C(t) from the cumulative rate and hazards
        w = _log_clayton(h_i, h_c, model.theta, out=out)
        w -= h_r
        w += h_c
        return w

    grid = _segment_grid(schedule, (market.collateral, *curves))
    with np.errstate(over="ignore", invalid="ignore"):
        cum = [np.asarray(c.cumulative(grid)) for c in curves]
        rate = [np.asarray(c.value(grid)) for c in curves]
        start = log_weight(*cum)
        seg = _Segments(schedule, market.collateral, grid, start, model.counterparty.intensity)
        _, k_c = closeout_values(closeout, seg.owed)
        end = log_weight(*(h + lam * seg.span for h, lam in zip(cum, rate)))
    _require_finite(("log discount", grid, start), ("log discount", grid + seg.span, end))
    bound = _check_payoffs(seg, k_c, seg.log_vx - cum[0], seg.rate_x - rate[0])

    def payoffs(take, dt, out):
        # the cumulative rate and hazards at the defaults, in place from here
        h = [np.multiply(take(lam), dt) for lam in rate]
        for h_t, h_0 in zip(h, cum):
            h_t += take(h_0)
        log_w = log_weight(*h, out=h[1])
        x = np.multiply(take(seg.rate_x), dt, out=out)
        x += take(seg.log_vx)
        x += log_w
        np.exp(x, out=x)
        x *= take(k_c)
        x += seg.paid(take, dt)

    return seg, payoffs, bound


def mc_value_correlated(
    market: MarketRates,
    model: JointDefaultModel,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    paths: int,
    seed: int,
) -> McEstimate:
    """Simulate v(0) with dependent defaults, zero bond recovery and the
    investor internally default-free (:func:`_dependent_default`)."""
    return _simulate(paths, seed, *_dependent_default(market, model, schedule, closeout))
