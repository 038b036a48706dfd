"""Monte Carlo valuation, independent of the ODE engine.

Each engine regime has a simulator that prices the trade by sampling
default times and averaging discounted payoffs; agreement within
statistical error is the package's main correctness check, because the
two routes share no numerics beyond the curve classes.

Randomness contract: draws come from the counter-based Philox generator
keyed by the seed.  Draw ``j`` is a pure function of ``(seed, j)`` and
path ``i`` consumes draws ``k*i .. k*i + k - 1`` (``k`` uniforms per
path, fixed per simulator).  Philox emits 64-bit words four per counter
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

Payoffs cost ``O(paths + defaults log flows)``.  A path collects the
flows dated strictly before its first default ``tau``, read from one
prefix sum of discounted flows; surviving paths (no default up to
maturity) take the full sum and are not searched.  A default at
``tau <= maturity`` also settles against the ex-dividend mark
``v_X(tau)``, so a flow dated exactly ``tau`` is neither paid nor
marked (a null event under continuous default laws).

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
from .curves import MarketRates, as_curve
from .instruments import CashflowSchedule, CloseoutSpec, closeout_values, collateral_value
from .measure import internal_rate

__all__ = [
    "McEstimate",
    "PathOutcome",
    "sample_joint_defaults",
    "mc_value_riskfree_cpty",
    "mc_value_independent",
    "mc_value_correlated",
    "sample_path_outcomes",
]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; reproducible from
    ``(paths, seed)``."""

    mean: float
    std_error: float
    paths: int
    seed: int


@dataclass(frozen=True)
class PathOutcome:
    """One simulated path: default times (``inf`` = never) and the
    payoff discounted to time 0."""

    tau_investor: float
    tau_counterparty: float
    discounted_payoff: float

    @property
    def tau(self) -> float:
        """First default time on the path."""
        return min(self.tau_investor, self.tau_counterparty)


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


def _paid_prefix(schedule: CashflowSchedule, weight: np.ndarray) -> np.ndarray:
    """Prefix sums of the weighted flows: entry ``j`` is the sum of the
    first ``j`` flows, times their discount ``weight``."""
    return np.concatenate(([0.0], np.cumsum(np.asarray(schedule.amounts) * weight)))


def _flows_paid(schedule: CashflowSchedule, paid: np.ndarray, tau: np.ndarray):
    """Weighted flows dated strictly before each path's first default.

    ``paid`` is :func:`_paid_prefix` of the flows.  Surviving paths
    collect the full sum without a search, and only paths defaulting by
    maturity locate ``tau`` among the flow dates by binary search,
    ``O(log flows)`` each.  Returns the payoffs, the indices of the
    defaulting paths and their default times.
    """
    payoff = np.full(len(tau), paid[-1])
    # integer indices: gathers and scatters through them are several
    # times cheaper than through a boolean mask
    hit = np.flatnonzero(tau <= schedule.maturity)
    t_hit = tau[hit]
    payoff[hit] = paid[np.searchsorted(schedule.times, t_hit, side="left")]
    return payoff, hit, t_hit


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
    """
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    sampler = CreditCurve(name="internal:" + investor.name, intensity=lam_bar)
    paid = _paid_prefix(schedule, np.exp(-np.asarray(r_bar.cumulative(schedule.times))))

    def block(w):
        tau_i = sampler.inverse_survival(w[:, 0])
        if counterparty is None:
            tau_c = np.full(len(w), np.inf)
        else:
            tau_c = counterparty.inverse_survival(w[:, 1])
        payoff, hit, t_hit = _flows_paid(schedule, paid, np.minimum(tau_i, tau_c))
        if hit.size:
            vx_hit = collateral_value(schedule, market.collateral, t_hit)
            k_i, k_c = closeout_values(closeout, vx_hit)
            settle = np.where(tau_i[hit] <= tau_c[hit], k_i, k_c)
            payoff[hit] += settle * np.exp(-np.asarray(r_bar.cumulative(t_hit)))
        return tau_i, tau_c, payoff

    return (1 if counterparty is None else 2), block


def mc_value_riskfree_cpty(
    market: MarketRates,
    investor: CreditCurve,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    paths: int,
    seed: int,
) -> McEstimate:
    """Simulate v(0) with only the investor defaulting, at its internal
    intensity.  One uniform per path.

    ``lambda_bar = 0`` makes every path identical (the investor never
    defaults) and the standard error collapses to zero up to summation
    rounding (below 1e-15 even at a million paths).
    """
    per_path, block = _first_default(
        market, investor, None, recovery_bond, lambda_bar, schedule, closeout
    )
    return _estimate(_simulate(paths, seed, per_path, lambda w: block(w)[2]), seed)


def mc_value_independent(
    market: MarketRates,
    investor: CreditCurve,
    counterparty: CreditCurve,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    paths: int,
    seed: int,
) -> McEstimate:
    """Simulate v(0) with both names defaulting independently: the
    investor at its internal intensity, the counterparty at its market
    intensity.  Two uniforms per path."""
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
    """

    def weight(t):
        t_arr = np.asarray(t, dtype=float)
        return np.exp(
            -np.asarray(market.risk_free.cumulative(t_arr))
            + np.asarray(model.log_joint_survival(t_arr, t_arr))
            + np.asarray(model.counterparty.cumulative_hazard(t_arr))
        )

    paid = _paid_prefix(schedule, weight(schedule.times))

    def block(w):
        payoff, hit, t_hit = _flows_paid(
            schedule, paid, model.counterparty.inverse_survival(w[:, 0])
        )
        if hit.size:
            vx_hit = collateral_value(schedule, market.collateral, t_hit)
            _, k_c = closeout_values(closeout, vx_hit)
            payoff[hit] += k_c * weight(t_hit)
        return payoff

    return _estimate(_simulate(paths, seed, 1, block), seed)


def sample_path_outcomes(
    market: MarketRates,
    investor: CreditCurve,
    counterparty: CreditCurve,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    paths: int,
    seed: int,
) -> list[PathOutcome]:
    """Materialized per-path view of the independent-defaults simulator,
    for diagnostics and invariant tests on small samples.  Uses the same
    payoff code as :func:`mc_value_independent`."""
    per_path, block = _first_default(
        market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
    )
    taus = []

    def keep_taus(w):
        tau_i, tau_c, payoff = block(w)
        taus.append((tau_i, tau_c))
        return payoff

    payoffs = _simulate(paths, seed, per_path, keep_taus)
    tau_i = np.concatenate([ti for ti, _ in taus])
    tau_c = np.concatenate([tc for _, tc in taus])
    return [
        PathOutcome(float(ti), float(tc), float(p))
        for ti, tc, p in zip(tau_i, tau_c, payoffs)
    ]
