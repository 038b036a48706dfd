"""Monte Carlo valuation, independent of the ODE engine.

Each engine route has a simulator that prices the trade by sampling
default times and averaging discounted payoffs (``riskfree_cpty`` is
:func:`mc_value_independent` without a counterparty); agreement within
statistical error is the package's main correctness check, because the
two routes share no numerics beyond the curve classes.

Randomness contract: draws come from the counter-based Philox generator
keyed by the seed.  Draw ``j`` is a pure function of ``(seed, j)`` and
path ``i`` consumes draws ``k*i .. k*i + k - 1`` (``k`` uniforms per
path: 2 for independent defaults, 1 without a counterparty or for
dependent defaults).  Philox emits 64-bit words four per counter
block and ``advance`` counts blocks, so a worker owning paths
``[p0, p1)`` could reproduce its slice exactly via
``Philox(key=seed).advance(k * p0 // 4)`` when partitions are chosen
with ``k * p0`` a multiple of four.  Antithetic or other
variance-reduction couplings are deliberately not applied.

Every simulator runs as one pipeline over fixed blocks of ``_BLOCK``
paths, sized so that a block's draws and temporaries stay in the L2
cache: draw the block's uniforms into one reused buffer (consecutive
draws continue the stream, so each path sees the same uniforms for any
block size), map them to default times, then to discounted payoffs,
written into one ``paths``-long vector.  Memory is therefore 8 bytes per
path plus ``O(block)``, and 8 more per path while ``np.std`` reduces
the vector.  Each payoff comes from elementwise operations
whose results do not depend on the length of the arrays they run over,
and the mean and standard error are reduced once over the whole vector
with numpy's pairwise summation, so estimates do not depend on the block
size: they are bit-identical, and the tests check it.

A path collects the flows dated strictly before its first default
``tau``; a default at ``tau <= maturity`` also settles against the
ex-dividend mark ``v_X(tau)``, so a flow dated exactly ``tau`` is
neither paid nor marked (a null event under continuous default laws).
Everything that does not depend on the path is computed once per
simulation, in a table on the grid ``G`` of 0, the flow dates and the
nodes of every curve the payoff reads (``_Segments``): per segment the
flows paid, ``v_X`` and the discount as exponentials of the time spent
in it.  Surviving paths (no default up to maturity) take the full flow
sum and are not located; a defaulting path costs one lookup in a
uniform bucket table over ``G`` (a multiply, a gather and a fix-up pass
per grid point sharing its bucket, at most a few), a few gathers and one
``exp`` (plus the copula term for dependent defaults).  Payoffs
therefore cost ``O(paths + defaults)``, with ``O(|G|)`` set-up, and
``v_X`` is marked once per simulation, at the flow dates.

Default times map from uniforms through the inverse survival function;
``inf`` means the name never defaults on the path.  For dependent
defaults the copula is sampled by conditional inversion:

    u = w1
    v = ((w2**(-theta/(1+theta)) - 1) * u**-theta + 1)**(-1/theta)

with ``v = w2`` when ``theta = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .credit import _THETA_INDEPENDENT, CreditCurve, JointDefaultModel
from .curves import MarketRates, _Locator, as_curve
from .instruments import CashflowSchedule, CloseoutSpec, closeout_values, collateral_value
from .measure import internal_rate

__all__ = [
    "McEstimate",
    "sample_joint_defaults",
    "mc_value_independent",
    "mc_value_correlated",
]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; reproducible from
    ``(paths, seed)``."""

    mean: float
    std_error: float
    paths: int
    seed: int


# Paths per block: one float64 column of a block is 256 KiB, so a
# block's draws and temporaries stay in a 2 MiB L2 cache.
_BLOCK = 2**15


def _generator(paths: int, seed: int) -> np.random.Generator:
    if paths < 2:
        raise ValueError("need at least two paths")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.Philox(key=seed))


def _simulate(paths: int, seed: int, per_path: int, block_payoffs) -> np.ndarray:
    """Discounted payoffs of ``paths`` paths, computed block by block.

    Each block's ``(n, per_path)`` uniforms are drawn into one reused
    buffer, continuing the Philox stream, so path ``i`` sees draws
    ``per_path*i ..`` whatever the block size; ``block_payoffs`` maps
    them to the block's payoffs.
    """
    gen = _generator(paths, seed)
    payoffs = np.empty(paths)
    buf = np.empty((min(_BLOCK, paths), per_path))
    for start in range(0, paths, _BLOCK):
        w = buf[: min(_BLOCK, paths - start)]
        gen.random(out=w)
        payoffs[start : start + len(w)] = block_payoffs(w)
    return payoffs


def _estimate(payoffs: np.ndarray, seed: int) -> McEstimate:
    n = len(payoffs)
    mean = float(np.mean(payoffs))
    std_error = float(np.std(payoffs, ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, std_error=std_error, paths=n, seed=seed)


def sample_joint_defaults(
    model: JointDefaultModel, paths: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``(tau_I, tau_C)`` from the market joint law.

    Two uniforms per path; conditional inversion of the survival copula,
    then marginal inverse survival maps.
    """
    w = _generator(paths, seed).random((paths, 2))
    u = w[:, 0]
    if model.theta <= _THETA_INDEPENDENT:
        v = w[:, 1]
    else:
        # v = ((w2**(-theta/(1+theta)) - 1) * u**-theta + 1)**(-1/theta),
        # assembled through expm1/log1p so small theta keeps full precision
        theta = model.theta
        with np.errstate(divide="ignore", over="ignore"):
            a = np.expm1(theta / (1.0 + theta) * -np.log(w[:, 1]))
            b = np.exp(theta * -np.log(u))
            v = np.exp(-np.log1p(a * b) / theta)
    tau_i = model.investor.inverse_survival(u)
    tau_c = model.counterparty.inverse_survival(v)
    return tau_i, tau_c


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
    defaults first (if before maturity).  Returns ``(per_path, block)``:
    the uniforms each path draws, and the map from a block of them to
    ``(tau_I, tau_C, payoffs)``.

    The closeout is positively homogeneous in ``v_X``, so on a segment
    it is the closeout of ``owed`` times one exponential, which also
    carries the discount.
    """
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    sampler = CreditCurve(name="internal:" + investor.name, intensity=lam_bar)
    grid = _segment_grid(schedule, (market.collateral, r_bar))
    log_discount = -np.asarray(r_bar.cumulative(grid))
    seg = _Segments(schedule, market.collateral, grid, log_discount)
    k_i, k_c = closeout_values(closeout, seg.owed)
    log_scale = seg.log_vx + log_discount
    slope = seg.rate_x - np.asarray(r_bar.value(grid))

    def block(w):
        tau_i = sampler.inverse_survival(w[:, 0])
        if counterparty is None:
            tau_c = np.full(len(w), np.inf)
        else:
            tau_c = counterparty.inverse_survival(w[:, 1])
        payoff = np.full(len(w), seg.paid_all)
        hit, j, dt, paid = seg.locate(np.minimum(tau_i, tau_c))
        if hit.size:
            settle = np.where(tau_i[hit] <= tau_c[hit], k_i[j], k_c[j])
            payoff[hit] = paid + settle * np.exp(log_scale[j] + slope[j] * dt)
        return tau_i, tau_c, payoff

    return (1 if counterparty is None else 2), block


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
    per_path, block = _first_default(
        market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
    )
    return _estimate(_simulate(paths, seed, per_path, lambda w: block(w)[2]), seed)


def mc_value_correlated(
    market: MarketRates,
    model: JointDefaultModel,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    paths: int,
    seed: int,
) -> McEstimate:
    """Simulate v(0) with dependent defaults, zero bond recovery and the
    investor internally default-free.

    Only ``tau_C`` is random (its internal law equals the market one);
    the numeraire is the survival-contingent bank account, so a flow at
    ``t`` on a surviving path is weighted by ``D(0,t) U(t,t) / U_C(t)``
    and the closeout at ``tau_C <= T`` by the same expression evaluated
    at the default time (its left limit along the path).

    On a segment ``r``, ``lam_I`` and ``lam_C`` are constant, so the
    cumulative rate and hazards at a default time are read off the
    segment table; only the copula term is evaluated per path.
    """
    curves = (market.risk_free, model.investor.intensity, model.counterparty.intensity)

    def log_weight(h_r, h_i, h_c):
        # log of D(0,t) U(t,t) / U_C(t) from the cumulative rate and hazards
        return -h_r + model._log_survival_of_hazards(h_i, h_c) + h_c

    grid = _segment_grid(schedule, (market.collateral, *curves))
    cum = [np.asarray(c.cumulative(grid)) for c in curves]
    rate = [np.asarray(c.value(grid)) for c in curves]
    seg = _Segments(schedule, market.collateral, grid, log_weight(*cum))
    _, k_c = closeout_values(closeout, seg.owed)

    def block(w):
        payoff = np.full(len(w), seg.paid_all)
        hit, j, dt, paid = seg.locate(model.counterparty.inverse_survival(w[:, 0]))
        if hit.size:
            log_w = log_weight(*(h[j] + lam[j] * dt for h, lam in zip(cum, rate)))
            payoff[hit] = paid + k_c[j] * np.exp(seg.log_vx[j] + seg.rate_x[j] * dt + log_w)
        return payoff

    return _estimate(_simulate(paths, seed, 1, block), seed)
