"""Monte Carlo valuation, independent of the ODE engine.

Each engine regime has a simulator that prices the trade by sampling
default times and averaging discounted payoffs; agreement within
statistical error is the package's main correctness check, because the
two routes share no numerics beyond the curve classes.

Randomness contract: draws come from the counter-based Philox generator
keyed by the seed.  Draw ``j`` is a pure function of ``(seed, j)`` and
path ``i`` consumes draws ``k*i .. k*i + k - 1`` (``k`` uniforms per
path, fixed per simulator), so estimates do not depend on how paths
might be partitioned across workers.  Philox emits 64-bit words four
per counter block and ``advance`` counts blocks, so a worker owning
paths ``[p0, p1)`` reproduces its slice exactly via
``Philox(key=seed).advance(k * p0 // 4)`` when partitions are chosen
with ``k * p0`` a multiple of four.  Reductions use numpy's pairwise
summation.  Antithetic or other variance-reduction couplings are
deliberately not applied.

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


def _uniforms(seed: int, paths: int, per_path: int) -> np.ndarray:
    if paths < 2:
        raise ValueError("need at least two paths")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((paths, per_path))


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
    w = _uniforms(seed, paths, 2)
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


def _flows_paid(schedule: CashflowSchedule, weight: np.ndarray, tau: np.ndarray):
    """Weighted flows dated strictly before each path's first default.

    ``weight`` holds the flows' discount weights.  One prefix sum over
    the flows serves every path: surviving paths collect the full sum
    without a search, and only paths defaulting by maturity locate
    ``tau`` among the flow dates by binary search, ``O(log flows)``
    each.  Returns the payoffs, the indices of the defaulting paths and
    their default times.
    """
    paid = np.concatenate(([0.0], np.cumsum(np.asarray(schedule.amounts) * weight)))
    payoff = np.full(len(tau), paid[-1])
    # integer indices: gathers and scatters through them are several
    # times cheaper than through a boolean mask
    hit = np.flatnonzero(tau <= schedule.maturity)
    t_hit = tau[hit]
    payoff[hit] = paid[np.searchsorted(schedule.times, t_hit, side="left")]
    return payoff, hit, t_hit


def _first_default_payoffs(
    market: MarketRates,
    r_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    tau_i: np.ndarray,
    tau_c: np.ndarray,
) -> np.ndarray:
    """Discount at the deterministic internal rate ``r_bar``; pay flows
    while both names are alive, then the closeout of whoever defaults
    first (if before maturity)."""
    discount = np.exp(-np.asarray(r_bar.cumulative(schedule.times)))
    payoff, hit, t_hit = _flows_paid(schedule, discount, np.minimum(tau_i, tau_c))
    if hit.size:
        vx_hit = collateral_value(schedule, market.collateral, t_hit)
        k_i, k_c = closeout_values(closeout, vx_hit)
        settle = np.where(tau_i[hit] <= tau_c[hit], k_i, k_c)
        payoff[hit] += settle * np.exp(-np.asarray(r_bar.cumulative(t_hit)))
    return payoff


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
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    sampler = CreditCurve(name="internal:" + investor.name, intensity=lam_bar)
    tau_i = sampler.inverse_survival(_uniforms(seed, paths, 1)[:, 0])
    tau_c = np.full(paths, np.inf)
    payoffs = _first_default_payoffs(market, r_bar, schedule, closeout, tau_i, tau_c)
    return _estimate(payoffs, seed)


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
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    w = _uniforms(seed, paths, 2)
    sampler = CreditCurve(name="internal:" + investor.name, intensity=lam_bar)
    tau_i = sampler.inverse_survival(w[:, 0])
    tau_c = counterparty.inverse_survival(w[:, 1])
    payoffs = _first_default_payoffs(market, r_bar, schedule, closeout, tau_i, tau_c)
    return _estimate(payoffs, seed)


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
    w = _uniforms(seed, paths, 1)[:, 0]
    tau_c = model.counterparty.inverse_survival(w)

    def weight(t):
        t_arr = np.asarray(t, dtype=float)
        return np.exp(
            -np.asarray(market.risk_free.cumulative(t_arr))
            + np.asarray(model.log_joint_survival(t_arr, t_arr))
            + np.asarray(model.counterparty.cumulative_hazard(t_arr))
        )

    payoff, hit, t_hit = _flows_paid(schedule, weight(schedule.times), tau_c)
    if hit.size:
        vx_hit = collateral_value(schedule, market.collateral, t_hit)
        _, k_c = closeout_values(closeout, vx_hit)
        payoff[hit] += k_c * weight(t_hit)
    return _estimate(payoff, seed)


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
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    w = _uniforms(seed, paths, 2)
    sampler = CreditCurve(name="internal:" + investor.name, intensity=lam_bar)
    tau_i = sampler.inverse_survival(w[:, 0])
    tau_c = counterparty.inverse_survival(w[:, 1])
    payoffs = _first_default_payoffs(market, r_bar, schedule, closeout, tau_i, tau_c)
    return [
        PathOutcome(float(ti), float(tc), float(p))
        for ti, tc, p in zip(tau_i, tau_c, payoffs)
    ]
