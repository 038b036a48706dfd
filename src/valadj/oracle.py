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
``PCG64(seed).advance(k * p0)``, for any ``p0``.  A simulation in which
no name can default draws nothing, and the contract still holds: its
draws would feed only the screens, which no draw in ``[0, 1)`` reaches,
so every path's payoff is the same without them.  Each name's levels
reach its payoff map as a contiguous row (gathered from the block's
column), where the elementwise passes run at unit stride; their results
do not depend on the stride, so the gather moves no bit.  Antithetic or
other variance-reduction couplings are deliberately not applied.

A path collects the flows dated strictly before its first default
``tau``; a default at ``tau <= maturity`` also settles against the
ex-dividend mark ``v_X(tau)``, so a flow dated exactly ``tau`` is
neither paid nor marked (a null event under continuous default laws).
Everything that does not depend on the path is computed once per
simulation, in a table on the grid ``G`` of 0, the flow dates and the
nodes of every curve the payoff reads (``_Segments``), and checked: a
set-up whose payoffs could overflow raises ``InvariantError``, naming
the quantity and the time, before any path is drawn.

Every simulator runs as one pipeline.  Blocks of ``_BLOCK`` paths only
screen: each draws its uniforms into one reused buffer (consecutive
draws continue the stream, so each path sees the same uniforms for any
block size) and compares them, as one contiguous run, with each name's
screen level, below which the name's inverse survival map certainly
returns a time past maturity; a name whose screen is 1 cannot default
and is not compared.  A path below every screen survives: it is counted, not
stored, and paid the full flow sum.  The other paths' levels gather in
a pending batch of at most ``_BLOCK`` paths, whose payoff map then
locates each as it would with no screen, so the screen moves no bit:
one bucket lookup, of its hazard level with one sampled name or of its
first default time with two, gives its segment of ``G`` (past maturity
the survivor segment ``len(G)``: every flow, no closeout), then a few
gathers and one ``exp`` its payoff: ``O(defaults)`` beyond the draws.

A chunk of ``_CHUNK`` paths reduces its mapped payoffs, in path order,
to ``(n, mean, M2)`` with the two passes of ``np.var`` (numpy's pairwise
summation), and merges them with its survivors' group ``(n_s, paid_all,
0)`` by the update of Chan, Golub & LeVeque (1979); chunks merge in
index order the same way.  Memory is ``O(chunk + block)`` whatever the
path count.  Payoffs whose squared deviations could overflow are
reduced scaled by a power of two, which the estimate undoes exactly.
Each payoff comes from elementwise operations whose results do not
depend on the length of the arrays they run over, so estimates do not
depend on the block size: they are bit-identical, and the tests check it.

Default times map from uniforms through the inverse survival function;
``inf`` means the name never defaults on the path.  For dependent
defaults the copula is sampled by conditional inversion:

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
from .curves import MarketRates, TermCurve, _Locator, as_curve
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


# Paths per block, and most paths per mapping batch: a batch's levels and
# temporaries stay in a 2 MiB L2 cache, and the heap peak under the trim
# threshold that _CHUNK's buffer sets (below).  Past it (2**15-path blocks
# peaked at 4.4-5.1 MiB), a timed long_mc call of bench/run.py took ~1180
# minor page faults, not ~43 (2-vCPU Xeon, numpy 2.4).
_BLOCK = 2**14

# Paths per reduction chunk, whose mapped payoffs fill at most one 2 MiB
# buffer.  glibc raises its mmap and trim thresholds to the largest mapped
# block freed: freeing the buffer sets the trim threshold to ~4 MiB, so a
# heap that peaks below it keeps the batch temporaries instead of trimming
# and refaulting them every batch.  Smaller chunks leave the thresholds
# low (2**15-path chunks took 2.4k faults a long_mc call, 2**17 4.1k).
_CHUNK = 2**18


def _generator(paths: int, seed: int) -> np.random.Generator:
    if paths < 2:
        raise ValueError("need at least two paths")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.PCG64(seed))


def _simulate(paths: int, seed: int, screens: tuple, payoffs, paid_all, bound) -> McEstimate:
    """The estimate from the discounted payoffs of ``paths`` paths, each
    at most ``bound`` in magnitude.

    A path draws one uniform per name, in blocks that continue the
    generator's stream.  It survives, paid ``paid_all``, unless a level
    reaches its name's screen in ``screens``; then its levels join a
    pending batch, one row per name, and ``payoffs(levels, out)`` writes
    the batch's payoffs into the next slice of one chunk buffer.  Where
    every screen is 1, no path can default and none draws: each chunk
    is one survivor group, folded as with draws.
    """
    gen = _generator(paths, seed)
    scale = _scale(paths, bound)
    screened = _screener(screens)
    size = min(_BLOCK, paths)
    draws = np.empty((size, len(screens)))
    pending = np.empty((len(screens), size))
    x = np.empty(min(_CHUNK, paths))
    chunks = []
    for first in range(0, paths, _CHUNK):
        n = min(_CHUNK, paths - first)
        mapped = held = 0
        # no draw where no name can default: every path survives
        for start in range(0, n, size) if screened is not None else ():
            w = draws[: min(size, n - start)]
            gen.random(out=w)
            at_risk = screened(w)
            if held + len(at_risk) > size:
                payoffs(pending[:, :held], x[mapped : mapped + held])
                mapped, held = mapped + held, 0
            for k, row in enumerate(pending):
                row[held : held + len(at_risk)] = w[:, k][at_risk]
            held += len(at_risk)
        if held:
            payoffs(pending[:, :held], x[mapped : mapped + held])
            mapped += held
        groups = [(n - mapped, paid_all * scale, 0.0)] if mapped < n else []
        if mapped:
            y = x[:mapped]
            y *= scale  # exact, 1 unless squares could overflow
            # np.var's two passes, in place; no BLAS dot, whose summation
            # order depends on the machine
            mean = float(np.mean(y))
            y -= mean
            np.square(y, out=y)
            groups.append((mapped, mean, float(np.sum(y))))
        chunks.append(functools.reduce(_merge, groups))
    n, mean, m2 = functools.reduce(_merge, chunks)
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return McEstimate(mean=mean / scale, std_error=std_error / scale, paths=n, seed=seed)


def _screener(screens: tuple):
    """A map from a block of levels, ``(paths, names)`` in C order, to the
    indices of its paths where some level reaches its name's screen; None
    where no screen is below 1, which no draw in ``[0, 1)`` reaches.

    Only the names that can default are compared, each over the block's
    flat levels at unit stride with its screen as a scalar.  With two
    names, byte ``k`` of a path's ``uint16`` view of a comparison is name
    ``k``'s; a mask built from bytes keeps it in either byte order."""
    live = [(k, screen) for k, screen in enumerate(screens) if screen < 1.0]
    if not live:
        return None
    if len(screens) == 1:
        return lambda w: np.flatnonzero(w.reshape(-1) >= screens[0])
    masks = np.eye(2, dtype=np.uint8).view(np.uint16)[:, 0]

    def at_risk(w):
        flat = w.reshape(-1)
        hits = ((flat >= screen).view(np.uint16) & masks[k] for k, screen in live)
        return np.flatnonzero(functools.reduce(np.bitwise_or, hits) != 0)

    return at_risk


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
    grid time.  A path is located by one bucket lookup
    (:class:`~valadj.curves._Locator`), past maturity in the survivor
    segment ``len(grid)`` (see :func:`_survivor_row`).
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
        # the survivor segment starts just past maturity, paid every flow;
        # the lookup leaves its start out (see _survivors)
        self._starts = np.append(grid, np.nextafter(self.maturity, math.inf))
        self.paid_before, self.paid_upto = (np.append(prefix[k], prefix[-1]) for k in (left, upto))

        nxt = np.minimum(upto, len(times) - 1)  # first flow after g_j
        done = upto == len(times)  # no flow left after g_j
        h_x = np.asarray(collateral.cumulative(grid))
        owed = collateral_value(schedule, collateral, times, left=True)
        self.owed = np.where(done, 0.0, owed[nxt])
        self.log_vx = np.where(done, 0.0, h_x - h_x[flow_at[nxt]])
        self.rate_x = np.where(done, 0.0, collateral.value(grid))

    @functools.cached_property
    def _lookup(self) -> _Locator:
        # built on the first locate: the one-name simulators use levels
        return _Locator(self.grid)

    def locate(self, tau: np.ndarray):
        """Default times' segments ``j``, times ``dt`` in them and flows paid;
        clips ``tau`` in place."""
        # a finite dt keeps the survivor segment's -0.0 * dt from NaN
        np.minimum(tau, self._starts[-1], out=tau)
        j = self._survivors(self._lookup(tau, "right") - 1, tau, self._starts[-1])
        dt = tau - self._starts[j]
        return j, dt, self._paid(j, dt)

    def levels(self, intensity: TermCurve):
        """Levels ``w`` to :meth:`locate` of their default times, for a name
        whose ``intensity`` is constant on each segment: ``-log w`` (at
        most the largest double) is looked up among its cumulative hazards
        ``H`` on the grid and just past ``H(maturity)``, a knot repeated by
        zero hazard raised one ulp, then ``dt = (-log w - H[j]) / lam_j``."""
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


def _check_payoffs(seg: _Segments, settles, log_scale, slope) -> float:
    """Raise :class:`InvariantError` where a payoff of ``seg`` is not
    finite, and return a bound on every payoff's magnitude.  A default
    ``dt`` into segment ``j`` is paid its flows and ``settle[j] *
    exp(log_scale[j] + slope[j] * dt)`` for one of ``settles`` (the
    exponent may be an upper bound): monotone in ``dt``, so the payoffs
    at a segment's two ends bound those inside it."""
    at = (seg.grid, seg.grid, seg.grid + seg.span)
    paid = (seg.paid_before[:-1], seg.paid_upto[:-1], seg.paid_upto[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.exp(log_scale)
        growth = (start, start, np.exp(log_scale + slope * seg.span))
        closeouts = [
            ("discounted closeout", t, p + k * g)
            for k in settles
            for t, p, g in zip(at, paid, growth)
        ]
    checks = [("discounted flows", seg.grid, paid[1]), *closeouts]
    _require_finite(*checks)
    return max(float(np.max(np.abs(values))) for _, _, values in checks)


def _screen(curve: CreditCurve, maturity: float) -> float:
    """A survival level below which ``curve.inverse_survival`` returns a
    time past ``maturity``: the survival a little after maturity, a
    little lowered, so that the rounding of the inverse map cannot
    bring a level below it back to maturity.  A survival of 1 is kept,
    above every draw; a hazard that overflows gives 0, which screens
    nothing."""
    t = min(maturity + 2.0**-30 * max(1.0, maturity), sys.float_info.max)
    with np.errstate(over="ignore"):
        survival = float(curve.survival(t))
    return survival if survival == 1.0 else survival * (1.0 - 2.0**-20)


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
    defaults first (if before maturity).  Returns ``(screens, payoffs,
    paid_all, bound)`` for :func:`_simulate`: the screen level of each
    name a path draws a uniform for (a path below both survives past
    maturity), the map from at-risk levels to payoffs, the survivors'
    payoff and a bound on every payoff's magnitude.

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
    k_i, k_c, log_scale, slope = _survivor_row(k_i, k_c, log_scale, slope)
    settles = np.concatenate((k_c, k_i))  # one gather beats np.where's mask
    # r_bar has lam_bar's nodes, so lam_bar is constant on each segment
    level_map = seg.levels(lam_bar) if counterparty is None else None

    def payoffs(levels, out):
        if counterparty is None:
            j, dt, paid = level_map(levels[0])
            settle = k_i[j]
        else:
            # each name's own map, which needs no lookup on a flat curve
            tau_i = sampler._inverse_survival(levels[0])
            tau_c = counterparty._inverse_survival(levels[1])
            first = (tau_i <= tau_c) * len(k_c)
            j, dt, paid = seg.locate(np.minimum(tau_i, tau_c, out=tau_c))
            del tau_i, tau_c  # before the heap peak below
            settle = settles[first + j]
        x = slope[j] * dt  # in place from here: the batch's heap peak
        x += log_scale[j]
        np.add(paid, np.multiply(settle, np.exp(x, out=x), out=x), out=out)

    return screens, payoffs, seg.paid_all, bound


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
    and draws one uniform per path.  ``lambda_bar = 0`` then screens
    every path: the mean is the flow sum and the standard error 0.
    """
    return _simulate(
        paths, seed, *_first_default(
            market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
        )
    )


def _dependent_default(market, model, schedule, closeout):
    """The dependent-default simulator, its constants built once; returns
    ``(screens, payoffs, paid_all, bound)`` as :func:`_first_default` does.

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
    level_map = seg.levels(model.counterparty.intensity)
    k_c, log_vx, rate_x = _survivor_row(k_c, seg.log_vx, seg.rate_x)
    cum, rate = _survivor_row(*cum), _survivor_row(*rate)

    def payoffs(levels, out):
        j, dt, paid = level_map(levels[0])
        log_w = log_weight(*(h[j] + lam[j] * dt for h, lam in zip(cum, rate)))
        np.add(paid, k_c[j] * np.exp(log_vx[j] + rate_x[j] * dt + log_w), out=out)

    return (screen,), payoffs, seg.paid_all, bound


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
