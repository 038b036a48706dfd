"""Monte Carlo valuation, independent of the ODE engine.

Each engine route has a simulator that prices the trade by sampling
default times and averaging discounted payoffs (``riskfree_cpty`` is
:func:`mc_value_independent` without a counterparty); agreement within
statistical error is the package's main correctness check, because the
two routes share no numerics beyond the curve classes.

Randomness contract: draws come from numpy's ``PCG64`` generator seeded
with the seed (through ``SeedSequence``, so any non-negative integer is a
seed).  Path ``i`` consumes draws ``k*i .. k*i + k - 1`` (``k`` uniforms
per path: 2 for independent defaults, 1 without a counterparty or for
dependent defaults), and ``PCG64`` emits one 64-bit word per double, so a
worker owning paths ``[p0, p1)`` reproduces its slice exactly from
``PCG64(seed).advance(k * p0)``, for any ``p0``.  Each name's levels
reach the inverse survival maps as a contiguous array (gathered from the
block's column), where the elementwise passes run at unit stride; their
results do not depend on the stride, so the gather moves no bit.
Antithetic or other variance-reduction couplings are deliberately not
applied.

Every simulator runs as one pipeline over blocks of ``_BLOCK`` paths
(twice that where at most a quarter of the paths can default), sized so
that a block's draws and temporaries stay in the L2 cache: draw the
block's uniforms into one reused buffer (consecutive draws continue the
stream, so each path sees the same uniforms for any block size), map
them to default times, then to discounted payoffs, written straight
into one reused buffer of ``_CHUNK`` paths.  Chunks are cut by path
index, not by block.  Each chunk is reduced to ``(n, mean, M2)`` with
the two passes of ``np.var`` (numpy's pairwise summation), and the
chunks are merged in index order by the update of Chan, Golub & LeVeque
(1979).  Memory is therefore ``O(chunk + block)`` whatever the path
count, and a simulation of at most ``_CHUNK`` paths reduces exactly as
``np.mean`` and ``np.std(ddof=1)`` over all its payoffs.  Where the
set-up's bound on the payoffs means their squared deviations could
overflow, the chunks are reduced scaled by a power of two, which the
estimate undoes exactly; otherwise the scale is 1.  Each payoff
comes from elementwise operations whose results do not depend on the
length of the arrays they run over, so estimates do not depend on the
block size: they are bit-identical, and the tests check it.

A path collects the flows dated strictly before its first default
``tau``; a default at ``tau <= maturity`` also settles against the
ex-dividend mark ``v_X(tau)``, so a flow dated exactly ``tau`` is
neither paid nor marked (a null event under continuous default laws).
Everything that does not depend on the path is computed once per
simulation, in a table on the grid ``G`` of 0, the flow dates and the
nodes of every curve the payoff reads (``_Segments``), and checked: a
set-up whose payoffs could overflow raises ``InvariantError``, naming
the quantity and the time, before any path is drawn.

Each sampled name also gets a screen level: below it, the name's
inverse survival map certainly returns a time past maturity.  A path
whose levels are all below their screens survives: it costs one
comparison per name and takes the full flow sum, and is never mapped to
a default time.  Only the other paths are mapped, located and closed
out, by the same elementwise code on the same values, so the screen
moves no bit.  A defaulting path costs one bucket lookup in ``G``, a few
gathers and one ``exp`` (plus the copula term for dependent defaults).
Beyond the draws, payoffs therefore cost ``O(defaults)``, with ``O(|G|)``
set-up, and ``v_X`` is marked once per simulation.

Default times map from uniforms through the inverse survival function;
``inf`` means the name never defaults on the path.  For dependent
defaults the copula is sampled by conditional inversion:

    u = w1
    v = ((w2**(-theta/(1+theta)) - 1) * u**-theta + 1)**(-1/theta)

with ``v = w2`` when ``theta = 0``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .credit import CreditCurve, JointDefaultModel, _conditional_inverse, _log_clayton
from .curves import MarketRates, _Locator, as_curve
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


# Paths per block: one float64 column of a block is 128 KiB, so a
# block's draws and temporaries stay in a 2 MiB L2 cache, and a
# simulation's heap peak stays under the trim threshold that _CHUNK's
# buffer sets (below).  With 2**15-path blocks the long_mc configs of
# seed 61 peaked at 4.42, 5.10 and 4.46 MiB (tracemalloc), past that
# threshold, and each timed long_mc call of bench/run.py took ~1180
# minor page faults and ~3.6 ms of system time; with 2**14 they peak at
# 3.12, 3.53 and 3.30 MiB, and a call takes ~43 faults and ~0.9 ms of
# system time (seed 132; 2-vCPU Xeon, numpy 2.4).
_BLOCK = 2**14

# Paths per reduction chunk: a chunk's payoffs fill one 2 MiB buffer
# before they are reduced.  glibc raises its mmap and trim thresholds
# to the largest mapped block freed: freeing the 2 MiB buffer sets the
# trim threshold to ~4 MiB, so a heap that peaks below it keeps the
# block temporaries instead of trimming and refaulting them every block.
# Smaller chunks leave the thresholds low (2**15-path chunks took 2.4k
# faults a long_mc call, 2**17 4.1k); a paths-long payoff vector took
# 3.3k on shipped_mc.
_CHUNK = 2**18


def _generator(paths: int, seed: int) -> np.random.Generator:
    if paths < 2:
        raise ValueError("need at least two paths")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def _simulate(paths: int, seed: int, screens: tuple, block, bound: float) -> McEstimate:
    """The estimate from the discounted payoffs of ``paths`` paths, each
    at most ``bound`` in magnitude.

    A path draws one uniform per name, and can default only where one
    reaches its name's level in ``screens``.  Each block's ``(n,
    len(screens))`` uniforms are drawn into one reused buffer, continuing
    the generator's stream, so path ``i`` sees the same draws whatever
    the block size; ``block(w, out)`` writes their payoffs into ``out``,
    a slice of one reused chunk buffer.  Blocks never straddle a chunk
    boundary.
    """
    gen = _generator(paths, seed)
    scale = _scale(paths, bound)
    size = _block_size(screens)
    chunk = np.empty(min(_CHUNK, paths))
    buf = np.empty((min(size, len(chunk)), len(screens)))
    total = None
    for first in range(0, paths, _CHUNK):
        x = chunk[: min(_CHUNK, paths - first)]
        for start in range(0, len(x), size):
            w = buf[: min(size, len(x) - start)]
            gen.random(out=w)
            block(w, x[start : start + len(w)])
        if scale != 1.0:
            x *= scale
        # np.var's two passes, in place; no BLAS dot, whose summation
        # order depends on the machine
        mean = float(np.mean(x))
        x -= mean
        np.square(x, out=x)
        stats = (len(x), mean, float(np.sum(x)))
        total = stats if total is None else _merge(total, stats)
    n, mean, m2 = total
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return McEstimate(mean=mean / scale, std_error=std_error / scale, paths=n, seed=seed)


def _block_size(screens: tuple) -> int:
    """``_BLOCK`` paths, or twice that where at most a quarter of the
    paths can default: a block's default work then stays below a full
    ``_BLOCK``-path block's, and half as many blocks pay its fixed cost
    of some 50 numpy calls.  The quarter is a reasoned cut-off, not a
    measured optimum: the benchmark's workloads lie at 0-22% and ~79%."""
    return 2 * _BLOCK if math.prod(screens) >= 0.75 else _BLOCK


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
    grid time.  A default then costs one bucket lookup in the grid
    (:class:`~valadj.curves._Locator`): a few elementwise passes, however
    many points the grid has.
    """

    def __init__(self, schedule: CashflowSchedule, collateral, grid, log_discount):
        times = np.asarray(schedule.times)
        self.grid = grid
        self._locate = _Locator(grid)
        self.maturity = schedule.maturity
        # the time a default can spend in each segment; the last one ends
        # at maturity
        self.span = np.diff(np.append(grid, self.maturity))
        flow_at = np.searchsorted(grid, times)  # flow dates are grid points
        upto = np.searchsorted(times, grid, side="right")  # flows dated <= g_j

        weighted = np.asarray(schedule.amounts) * np.exp(log_discount[flow_at])
        prefix = np.concatenate(([0.0], np.cumsum(weighted)))
        self.paid_before = prefix[np.searchsorted(times, grid, side="left")]
        self.paid_upto = prefix[upto]
        self.paid_all = prefix[-1]

        nxt = np.minimum(upto, len(times) - 1)  # first flow after g_j
        done = upto == len(times)  # no flow left after g_j
        h_x = np.asarray(collateral.cumulative(grid))
        owed = collateral_value(schedule, collateral, times, left=True)
        self.owed = np.where(done, 0.0, owed[nxt])
        self.log_vx = np.where(done, 0.0, h_x - h_x[flow_at[nxt]])
        self.rate_x = np.where(done, 0.0, collateral.value(grid))

    def locate(self, tau: np.ndarray):
        """The paths whose default time ``tau`` is at most maturity, as
        indices, with each one's segment ``j``, the time ``dt`` it spent
        in it and the flows it was paid.  Surviving paths are not
        located."""
        # integer indices: gathers and scatters through them are several
        # times cheaper than through a boolean mask
        hit = np.flatnonzero(tau <= self.maturity)
        t_hit = tau[hit]
        j = self._locate(t_hit, "right") - 1
        dt = t_hit - self.grid[j]
        paid = self.paid_upto[j]
        on_node = dt == 0.0
        if on_node.any():
            paid[on_node] = self.paid_before[j[on_node]]
        return hit, j, dt, paid


def _check_payoffs(seg: _Segments, settles, log_scale, slope) -> float:
    """Raise :class:`InvariantError` where a payoff of ``seg`` is not
    finite, and return a bound on every payoff's magnitude.  A default
    ``dt`` into segment ``j`` is paid its flows and ``settle[j] *
    exp(log_scale[j] + slope[j] * dt)`` for one of ``settles`` (the
    exponent may be an upper bound): monotone in ``dt``, so the payoffs
    at a segment's two ends bound those inside it."""
    at = (seg.grid, seg.grid, seg.grid + seg.span)
    paid = (seg.paid_before, seg.paid_upto, seg.paid_upto)
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.exp(log_scale)
        growth = (start, start, np.exp(log_scale + slope * seg.span))
        closeouts = [
            ("discounted closeout", t, p + k * g)
            for k in settles
            for t, p, g in zip(at, paid, growth)
        ]
    checks = [("discounted flows", seg.grid, seg.paid_upto), *closeouts]
    _require_finite(*checks)
    return max(float(np.max(np.abs(values))) for _, _, values in checks)


def _screen(curve: CreditCurve, maturity: float) -> float:
    """A survival level below which ``curve.inverse_survival`` returns a
    time past ``maturity``: the survival a little after maturity, a
    little lowered, so that the rounding of the inverse map cannot
    bring a level below it back to maturity.  A hazard that overflows
    gives 0, which screens nothing."""
    t = min(maturity + 2.0**-30 * max(1.0, maturity), sys.float_info.max)
    with np.errstate(over="ignore"):
        return float(curve.survival(t)) * (1.0 - 2.0**-20)


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

    The investor defaults at its internal intensity, the counterparty
    (if any; ``None`` never defaults) at its market intensity.  Payoffs
    are discounted at the deterministic internal rate ``r_bar``: flows
    are paid while both names are alive, then the closeout of whoever
    defaults first (if before maturity).  Returns ``(screens, block,
    bound)``: the screen level of each name a path draws a uniform for,
    the map from a block of uniforms to their payoffs (see
    :func:`_simulate`), and a bound on every payoff's magnitude.  A path
    whose levels are below both names' screens survives past maturity.

    The closeout is positively homogeneous in ``v_X``, so on a segment
    it is the closeout of ``owed`` times one exponential, which also
    carries the discount.
    """
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    sampler = CreditCurve(name="internal:" + investor.name, intensity=lam_bar)
    grid = _segment_grid(schedule, (market.collateral, r_bar))
    with np.errstate(over="ignore", invalid="ignore"):
        log_discount = -np.asarray(r_bar.cumulative(grid))
        seg = _Segments(schedule, market.collateral, grid, log_discount)
        k_i, k_c = closeout_values(closeout, seg.owed)
        log_scale = seg.log_vx + log_discount
        slope = seg.rate_x - np.asarray(r_bar.value(grid))
    bound = _check_payoffs(seg, (k_i,) if counterparty is None else (k_i, k_c), log_scale, slope)
    names = (sampler,) if counterparty is None else (sampler, counterparty)
    screens = tuple(_screen(name, schedule.maturity) for name in names)

    def block(w, out):
        out.fill(seg.paid_all)
        can_default = w[:, 0] >= screens[0]
        if counterparty is not None:
            can_default |= w[:, 1] >= screens[1]
        at_risk = np.flatnonzero(can_default)
        # gathered levels are contiguous, and the maps run at unit stride
        tau_i = sampler.inverse_survival(w[at_risk, 0])
        if counterparty is None:
            tau_c = np.full(len(at_risk), np.inf)
        else:
            tau_c = counterparty.inverse_survival(w[at_risk, 1])
        hit, j, dt, paid = seg.locate(np.minimum(tau_i, tau_c))
        if hit.size:
            settle = np.where(tau_i[hit] <= tau_c[hit], k_i[j], k_c[j])
            out[at_risk[hit]] = paid + settle * np.exp(log_scale[j] + slope[j] * dt)

    return screens, block, bound


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
    intensity.  Two uniforms per path.

    ``counterparty=None`` never defaults (the ``riskfree_cpty`` regime)
    and draws one uniform per path.  ``lambda_bar = 0`` then makes every
    path identical and the standard error collapses to zero up to
    summation rounding (below 1e-15 even at a million paths).
    """
    return _simulate(
        paths, seed, *_first_default(
            market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
        )
    )


def _dependent_default(market, model, schedule, closeout):
    """The dependent-default simulator, its constants built once; returns
    ``(screens, block, bound)`` as :func:`_first_default` does.

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
    bound = _check_payoffs(seg, (k_c,), seg.log_vx - cum[0], seg.rate_x - rate[0])
    screen = _screen(model.counterparty, schedule.maturity)

    def block(w, out):
        out.fill(seg.paid_all)
        at_risk = np.flatnonzero(w[:, 0] >= screen)
        tau_c = model.counterparty.inverse_survival(w[at_risk, 0])
        hit, j, dt, paid = seg.locate(tau_c)
        if hit.size:
            log_w = log_weight(*(h[j] + lam[j] * dt for h, lam in zip(cum, rate)))
            out[at_risk[hit]] = paid + k_c[j] * np.exp(seg.log_vx[j] + seg.rate_x[j] * dt + log_w)

    return (screen,), block, bound


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
