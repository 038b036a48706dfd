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

Paths are stratified (proportional allocation: Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2003, section 4.3) on the survival
boundary ``b``: the least double in ``[0, 1]`` that the level map sends
to a default by maturity, found by a search over the doubles; every
level below it survives.  The survivor stratum, of probability ``b``,
pays every flow with no draw.  The at-risk stratum, of probability ``p
= 1 - b``, draws ``n = max(2, round(paths * p))`` paths, each at level
``b + p u`` (at most 1, a default at time 0).  The estimate is ``b *
paid_all + p * mean``, with standard error ``p * sqrt(M2 / (n - 1) /
n)``; ``McEstimate.paths`` stays ``paths``.  Where nothing can default
``b`` is 1: nothing is drawn, and the estimate is the flow sum with a
standard error of 0.  Stratification is the one variance reduction
applied: it reads only the credit curves, never the solver's numerics,
so the oracle stays independent of the engine it checks.

Randomness contract: draws come from numpy's ``PCG64`` generator seeded
with the seed (through ``SeedSequence``, so any non-negative integer is a
seed).  Path ``i`` of the at-risk stratum takes draw ``i`` of the stream.
``PCG64`` emits one 64-bit word per double, so a worker owning paths
``[p0, p1)`` reproduces its slice exactly from ``PCG64(seed).advance(p0)``,
for any ``p0``.

Blocks of ``_BLOCK`` paths draw into one reused buffer, continuing the
stream.  The payoff map locates each path by one bucket lookup of its
hazard level in ``G`` (past maturity the survivor segment ``len(G)``:
every flow, no closeout); a few gathers and one ``exp`` give its payoff,
written into one chunk buffer.  A chunk of ``_CHUNK`` paths reduces, in
path order, to ``(n, mean, M2)`` with the two passes of ``np.var``, and
the chunks merge in index order by the update of Chan, Golub & LeVeque
(1979): memory is ``O(chunk + block)``.  Payoffs whose squares could
overflow are reduced scaled by a power of two, undone exactly.  Payoffs
come from elementwise operations that do not depend on the length or
stride of their arrays, so estimates are bit-identical for every block
size.

:func:`sample_joint_defaults` maps uniforms to default times through the
inverse survival function; ``inf`` means the name never defaults on the
path.  It samples the copula by conditional inversion:

    u = w1
    v = ((w2**(-theta/(1+theta)) - 1) * u**-theta + 1)**(-1/theta)

with ``v = w2`` when ``theta = 0``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .credit import CreditCurve, JointDefaultModel, _conditional_inverse, _log_clayton
from .curves import MarketRates, TermCurve, _Locator, as_curve, combined
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


# Paths per block: a block's levels and temporaries stay in a 2 MiB L2
# cache, and the heap peak under the trim threshold that _CHUNK's buffer
# sets (below).  2**15-path blocks peaked at 4.4-5.1 MiB, and a timed
# long_mc call took ~1180 minor page faults, not ~43 (2-vCPU Xeon).
_BLOCK = 2**14

# Paths per reduction chunk, whose mapped payoffs fill at most one 2 MiB
# buffer.  glibc raises its mmap and trim thresholds to the largest mapped
# block freed: freeing the buffer sets the trim threshold to ~4 MiB, so a
# heap that peaks below it keeps the block temporaries instead of trimming
# and refaulting them every block.  Smaller chunks leave the thresholds
# low (2**15-path chunks took 2.4k faults a long_mc call, 2**17 4.1k).
_CHUNK = 2**18


def _generator(paths: int, seed: int) -> np.random.Generator:
    if paths < 2:
        raise ValueError("need at least two paths")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def _simulate(paths: int, seed: int, boundary: float, payoffs, paid_all, bound) -> McEstimate:
    """The estimate from the discounted payoffs of ``paths`` paths, each
    at most ``bound`` in magnitude, stratified on ``boundary``: the
    at-risk stratum's paths draw one uniform each, in blocks that continue
    the generator's stream, and ``payoffs(levels, out)`` writes a block's
    payoffs, from its levels, into the next slice of one chunk buffer."""
    gen = _generator(paths, seed)
    scale = _scale(paths, bound)
    p = 1.0 - boundary
    at_risk = max(2, round(paths * p)) if p > 0.0 else 0
    x = np.empty(min(_CHUNK, at_risk))
    size = min(_BLOCK, len(x))  # blocks end at chunk ends
    levels = np.empty(size)
    chunks = []
    for first in range(0, at_risk, _CHUNK):
        n = min(_CHUNK, at_risk - first)
        for start in range(0, n, size):
            w = gen.random(out=levels[: min(size, n - start)])
            w *= p
            w += boundary
            payoffs(w, x[start : start + len(w)])
        y = x[:n]
        y *= scale  # exact, 1 unless squares could overflow
        # np.var's two passes, in place: no BLAS dot, whose order varies
        chunk_mean = float(np.mean(y))
        y -= chunk_mean
        np.square(y, out=y)
        chunks.append((n, chunk_mean, float(np.sum(y))))
    mean, variance = boundary * paid_all, 0.0
    if chunks:
        n, chunk_mean, m2 = functools.reduce(_merge, chunks)
        mean += p * (chunk_mean / scale)
        variance += p * p * (m2 / (n - 1) / n)
    return McEstimate(mean=mean, std_error=math.sqrt(variance) / scale, paths=paths, seed=seed)


def _boundary(intensity: TermCurve, seg: _Segments, level_map) -> float:
    """The least level ``b`` in ``[0, 1]`` that ``level_map``, from an
    array of levels of the hazard ``intensity`` to their segments of
    ``seg`` (the first of what it returns), keeps out of the survivor
    segment: the double below ``b`` survives maturity.  The search reads
    the map only at the levels it samples, so every level below ``b``
    survives if it is monotone.

    Level 0 survives and level 1 defaults (at time 0) under every map; the
    search brackets ``b`` between their bit patterns, which order the
    doubles in ``[0, 1]``.  One vectorised call places it among levels 0,
    1, 2, 4, ... ulps either side of the survival at maturity, within a
    few ulps of ``b``, and each further call among 63 levels evenly spaced
    in the bracket, down to adjacent doubles."""
    lo, hi = 0, int(_ONE_BITS)
    with np.errstate(over="ignore"):
        guess = np.exp(-np.float64(intensity.cumulative(seg.maturity))).view(np.int64)
    bits = np.unique(np.clip(guess + _LADDER, lo + 1, hi - 1))
    while hi - lo > 1:
        alive = level_map(bits.view(np.float64))[0] == len(seg.grid)
        first = int(np.argmin(alive)) if not alive.all() else len(bits)  # first default
        lo = int(bits[first - 1]) if first > 0 else lo
        hi = int(bits[first]) if first < len(bits) else hi
        step = max((hi - lo) // 64, 1)
        bits = np.arange(lo + step, hi, step, dtype=np.int64)
    return float(np.int64(hi).view(np.float64))


_ONE_BITS = np.float64(1.0).view(np.int64)
# offsets in ulps from the guess: 0 and +-2**i, up to half the bits of [0, 1]
_LADDER = np.concatenate((-(2 ** np.arange(62)), [0], 2 ** np.arange(62)))


def _scale(paths: int, bound: float) -> float:
    """A power of two that keeps the squared deviations of ``paths``
    payoffs of magnitude at most ``bound``, and their sum, finite: 1
    unless they could overflow.  Scaling by it, and back, is exact."""
    # paths * (2 * bound)**2 <= 2**1023 once bound <= 2**limit
    limit = (1021 - paths.bit_length()) // 2
    exponent = math.frexp(bound)[1]  # bound < 2**exponent
    return 1.0 if exponent <= limit else math.ldexp(1.0, limit - exponent)


def _merge(a: tuple, b: tuple) -> tuple:
    """``(n, mean, M2)`` of two samples, from each one's: Chan, Golub &
    LeVeque (1979)."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


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
    """One simulation's payoff constants on the segments of ``grid``.

    ``grid`` comes from :func:`_segment_grid` over ``r_X`` and every
    other curve the payoff reads.  On a segment ``[g_j, g_{j+1})`` each
    of them is constant and no flow falls strictly inside, so:

    * the flows a default in the segment has been paid are fixed, with a
      separate sum for a default exactly at ``g_j``, which does not
      collect the flow dated ``g_j``;
    * ``v_X(t) = owed[j] exp(log_vx[j] + rate_x[j] (t - g_j))``, with
      ``owed`` the value of the remaining flows at the next flow date
      (all three are 0 once no flow is left).  Anchoring ``v_X`` there
      rather than at ``g_j`` keeps it from underflowing at the start of
      a long segment.

    ``log_discount`` is the log of the weight of a flow paid at each
    grid time.  A path is located by one bucket lookup of its hazard
    level (:meth:`levels`), past maturity in the survivor segment
    ``len(grid)`` (see :func:`_survivor_row`).
    """

    def __init__(self, schedule: CashflowSchedule, collateral, grid, log_discount):
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
        left = np.searchsorted(times, grid, side="left")
        # the survivor segment, past maturity, is paid every flow
        self.paid_before, self.paid_upto = (np.append(prefix[k], prefix[-1]) for k in (left, upto))

        nxt = np.minimum(upto, len(times) - 1)  # first flow after g_j
        done = upto == len(times)  # no flow left after g_j
        h_x = np.asarray(collateral.cumulative(grid))
        owed = collateral_value(schedule, collateral, times, left=True)
        self.owed = np.where(done, 0.0, owed[nxt])
        self.log_vx = np.where(done, 0.0, h_x - h_x[flow_at[nxt]])
        self.rate_x = np.where(done, 0.0, collateral.value(grid))

    def levels(self, intensity: TermCurve):
        """The map from survival levels ``w`` of a hazard ``intensity``,
        constant on each segment, to their default times' segments ``j``,
        times ``dt`` in them and flows paid: ``-log w`` (at most the
        largest double) is looked up among the cumulative hazards ``H`` on
        the grid and just past ``H(maturity)``, a knot repeated by zero
        hazard raised one ulp, then ``dt = (-log w - H[j]) / lam_j``."""
        top = sys.float_info.max
        with np.errstate(over="ignore", divide="ignore"):
            past = np.nextafter(intensity.cumulative(self.maturity), math.inf)
            knots = np.minimum(np.append(intensity.cumulative(self.grid), past), top)
            lam = np.asarray(intensity.value(self.grid))
            # 0 where the hazard is 0; clipped where it is subnormal
            inv = np.append(np.minimum(np.where(lam > 0.0, 1.0 / lam, 0.0), top), 0.0)
            repeat = np.append(False, knots[1:] == knots[:-1]) & (knots < top)
            raised = np.where(repeat, np.nextafter(knots, math.inf), knots)
            locate = _Locator(raised[:-1])

        def level(w):
            with np.errstate(divide="ignore"):
                target = np.log(w)
            np.minimum(np.negative(target, out=target), top, out=target)
            j = self._survivors(locate(target, "right") - 1, target, raised[-1])
            dt = (target - knots[j]) * inv[j]
            return j, dt, self._paid(j, dt)

        return level

    def _survivors(self, j, keys, survivor):
        """``j`` with the survivor segment where ``keys`` reach its knot
        ``survivor``: in a bucket lookup, one ulp past the last grid
        point's knot, it would cost every key a second fix-up pass."""
        survived = keys >= survivor
        if survived.any():
            j[survived] = len(self.grid)
        return j

    def _paid(self, j, dt):
        """The flows paid by a default ``dt`` into segment ``j``."""
        paid = self.paid_upto[j]
        on_node = dt == 0.0
        if on_node.any():
            paid[on_node] = self.paid_before[j[on_node]]
        return paid


def _survivor_row(*columns):
    """Each column with the survivor segment's entry -0.0: a surviving
    path's closeout ``-0.0 * exp(-0.0)`` leaves its flows' every bit."""
    return [np.append(c, -0.0) for c in columns]


def _check_payoffs(seg: _Segments, settle, log_scale, slope) -> float:
    """Raise :class:`InvariantError` where a payoff of ``seg`` is not
    finite, and return a bound on every payoff's magnitude.  A default
    ``dt`` into segment ``j`` is paid its flows and ``settle[j] *
    exp(log_scale[j] + slope[j] * dt)`` (the exponent may be an upper
    bound): monotone in ``dt``, so the payoffs at a segment's two ends
    bound those inside it."""
    at = (seg.grid, seg.grid, seg.grid + seg.span)
    paid = (seg.paid_before[:-1], seg.paid_upto[:-1], seg.paid_upto[:-1])
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
    Returns ``(boundary, payoffs, paid_all, bound)`` for
    :func:`_simulate`: the survival boundary, the map from levels to
    payoffs, a survivor's payoff and a bound on every payoff's magnitude.

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
        seg = _Segments(schedule, market.collateral, grid, log_discount)
        k_i, k_c = closeout_values(closeout, seg.owed)
        share = np.asarray(lam_c.value(grid)) / np.asarray(hazard.value(grid))  # NaN at 0 / 0
        settle = np.where(share > 0.0, k_i + share * (k_c - k_i), k_i)
        log_scale = seg.log_vx + log_discount
        slope = seg.rate_x - np.asarray(r_bar.value(grid))
    bound = _check_payoffs(seg, settle, log_scale, slope)
    level_map = seg.levels(hazard)
    boundary = _boundary(hazard, seg, level_map)
    settle, log_scale, slope = _survivor_row(settle, log_scale, slope)

    def payoffs(levels, out):
        j, dt, paid = level_map(levels)
        x = slope[j] * dt  # in place from here: the block's heap peak
        x += log_scale[j]
        np.add(paid, np.multiply(settle[j], np.exp(x, out=x), out=x), out=out)

    return boundary, payoffs, seg.paid_all, bound


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
    ``(boundary, payoffs, paid_all, bound)`` as :func:`_first_default` does.

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

    def log_weight(h_r, h_i, h_c):
        # log of D(0,t) U(t,t) / U_C(t) from the cumulative rate and hazards
        return -h_r + _log_clayton(h_i, h_c, model.theta) + h_c

    grid = _segment_grid(schedule, (market.collateral, *curves))
    with np.errstate(over="ignore", invalid="ignore"):
        cum = [np.asarray(c.cumulative(grid)) for c in curves]
        rate = [np.asarray(c.value(grid)) for c in curves]
        start = log_weight(*cum)
        seg = _Segments(schedule, market.collateral, grid, start)
        _, k_c = closeout_values(closeout, seg.owed)
        end = log_weight(*(h + lam * seg.span for h, lam in zip(cum, rate)))
    _require_finite(("log discount", grid, start), ("log discount", grid + seg.span, end))
    bound = _check_payoffs(seg, k_c, seg.log_vx - cum[0], seg.rate_x - rate[0])
    level_map = seg.levels(model.counterparty.intensity)
    boundary = _boundary(model.counterparty.intensity, seg, level_map)
    k_c, log_vx, rate_x = _survivor_row(k_c, seg.log_vx, seg.rate_x)
    cum, rate = _survivor_row(*cum), _survivor_row(*rate)

    def payoffs(levels, out):
        j, dt, paid = level_map(levels)
        log_w = log_weight(*(h[j] + lam[j] * dt for h, lam in zip(cum, rate)))
        np.add(paid, k_c[j] * np.exp(log_vx[j] + rate_x[j] * dt + log_w), out=out)

    return boundary, payoffs, seg.paid_all, bound


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
