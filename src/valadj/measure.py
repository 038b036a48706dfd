"""Pricing measures consistent with the investor's funding bond.

The only own-credit instrument observed in the market is the investor's
funding bond, which prices off the funding rate

    r_F(t) = r(t) + (1 - R_I) * lam_I(t)

with bond recovery ``R_I``.  That single quote does not pin down the
investor's default intensity and short rate separately, so the investor
may price under any internal pair ``(lam_bar_I, r_bar)`` that keeps the
funding rate unchanged:

    r_bar + (1 - R_I) * lam_bar_I = r + (1 - R_I) * lam_I.

Every such pair reprices the funding bond identically; they differ in
how value is split between borrowing cost and default compensation.
``lam_bar_I = 0`` (the investor treats itself as default-free) is an
admissible limiting choice.

When the counterparty can also default and the two default times are
dependent, the analogue of the funding bond is a zero-recovery bond
whose payoff is contingent on counterparty survival.  Conditional on
the counterparty's default time ``t_C``, the bond's discounted payoff
is deterministic:

    Dbar(0,T_I)[t_C] = D(0,T_I) * dU(T_I, t_C)/dt_C / (dU_C(t_C)/dt_C)   if t_C < T_I
    Dbar(0,T_I)[t_C] = D(0,T_I) * U(T_I, T_I) / U_C(T_I)                 if t_C >= T_I

and integrating it against the law of ``t_C`` recovers the market price
``D(0,T_I) * U(T_I, T_C)``.  The implied pre-default growth rate of the
contingent bank account is

    r_pre(t) = r(t) + FTD_I(t) + FTD_C(t) - lam_C(t).

With independent defaults this collapses to ``r + lam_I``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .credit import CreditCurve, JointDefaultModel
from .curves import MarketRates, TermCurve, as_curve, combined
from .errors import InvariantError
from .instruments import _check_recovery

__all__ = [
    "funding_rate",
    "internal_rate",
    "bond_price",
    "internal_bond_price",
    "pre_default_rate",
    "conditional_discount",
    "expected_conditional_discount",
    "reprice_contingent_bond",
]

#: panels used by the deterministic quadrature against the tau_C law
QUADRATURE_PANELS = 2000


def funding_rate(market: MarketRates, investor: CreditCurve, recovery_bond: float) -> TermCurve:
    """Rate the investor pays on unsecured borrowing,
    ``r + (1 - R_I) * lam_I``."""
    rec = _check_recovery(recovery_bond)
    return combined(
        (market.risk_free, investor.intensity), lambda r, lam: r + (1.0 - rec) * lam
    )


def internal_rate(
    market: MarketRates,
    investor: CreditCurve,
    recovery_bond: float,
    lambda_bar,
) -> TermCurve:
    """Internal short rate paired with the chosen ``lam_bar_I``.

    Solves the funding-rate constraint for ``r_bar``; by construction
    ``r_bar + (1 - R_I) lam_bar_I`` reproduces ``funding_rate`` exactly.
    """
    rec = _check_recovery(recovery_bond)
    lam_bar = as_curve(lambda_bar)
    if any(v < 0.0 for v in lam_bar.values):
        raise ValueError("internal default intensity must be non-negative")
    r_f = funding_rate(market, investor, rec)
    return combined((r_f, lam_bar), lambda f, lb: f - (1.0 - rec) * lb)


def bond_price(
    market: MarketRates, investor: CreditCurve, recovery_bond: float, maturity: float
) -> float:
    """Time-0 price of the investor's unit funding bond,
    ``exp(-int_0^T r_F)``."""
    if not (math.isfinite(maturity) and maturity > 0.0):
        raise ValueError("bond maturity must be positive")
    return funding_rate(market, investor, recovery_bond).discount_factor(0.0, maturity)


def internal_bond_price(
    market: MarketRates,
    investor: CreditCurve,
    recovery_bond: float,
    lambda_bar,
    maturity: float,
) -> float:
    """The funding bond priced inside the measure that ``lambda_bar``
    chooses, ``exp(-(int_0^T r_bar + (1 - R_I) int_0^T lam_bar_I))``.

    The funding-rate constraint makes it equal :func:`bond_price` for
    every admissible ``lambda_bar``.
    """
    if not (math.isfinite(maturity) and maturity > 0.0):
        raise ValueError("bond maturity must be positive")
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    return math.exp(
        -(r_bar.cumulative(maturity) + (1.0 - recovery_bond) * lam_bar.cumulative(maturity))
    )


def pre_default_rate(market: MarketRates, model: JointDefaultModel) -> Callable:
    """Growth rate of the survival-contingent bank account,
    ``r + FTD_I + FTD_C - lam_C``.  Returns a vectorized callable of t."""

    def rate(t):
        ftd_i, ftd_c = model.ftd_intensity(t)
        return market.risk_free.value(t) + ftd_i + ftd_c - model.counterparty.intensity.value(t)

    return rate


def _survival_branch(market: MarketRates, model: JointDefaultModel, horizon: float) -> float:
    """Dbar(0,T_I) on the event the counterparty outlives the horizon."""
    d = market.risk_free.discount_factor(0.0, horizon)
    log_ratio = model.log_joint_survival(horizon, horizon) + model.counterparty.cumulative_hazard(horizon)
    return d * math.exp(log_ratio)


def _default_branch(market: MarketRates, model: JointDefaultModel, horizon: float, t_c):
    """Dbar(0,T_I) given default at ``t_c < horizon``.  Vectorized."""
    t_arr = np.asarray(t_c, dtype=float)
    lam_c = np.asarray(model.counterparty.intensity.value(t_arr), dtype=float)
    if np.any(lam_c <= 0.0):
        raise ValueError(
            "conditional discount is singular where the counterparty intensity vanishes"
        )
    d = market.risk_free.discount_factor(0.0, horizon)
    dens = lam_c * np.exp(-np.asarray(model.counterparty.cumulative_hazard(t_arr)))
    out = d * (-np.asarray(model.joint_survival_partial_tc(horizon, t_arr))) / dens
    return float(out) if out.ndim == 0 else out


def conditional_discount(
    market: MarketRates, model: JointDefaultModel, horizon: float, default_time: float
) -> float:
    """Discounted payoff of the zero-recovery contingent bond, given the
    counterparty default time.

    Parameters
    ----------
    horizon : float
        Bond maturity ``T_I > 0``.
    default_time : float
        Realized ``tau_C``; ``inf`` (or anything ``>= horizon``) selects
        the survival branch.  A default exactly at the horizon settles
        on the survival branch.

    With ``theta = 0`` the result does not depend on ``default_time`` at
    all and equals ``D(0,T_I) * U_I(T_I)``.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be positive")
    if default_time < 0.0 or math.isnan(default_time):
        raise ValueError("default time must be non-negative")
    if default_time < horizon:
        return float(_default_branch(market, model, horizon, default_time))
    return _survival_branch(market, model, horizon)


def _composite_simpson(f: Callable, a: float, b: float, panels: int) -> float:
    if b <= a:
        return 0.0
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / panels
    return h / 6.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1::2]) + 2.0 * np.sum(ys[2:-1:2]))


def expected_conditional_discount(
    market: MarketRates,
    model: JointDefaultModel,
    horizon: float,
    *,
    contingency: float = 0.0,
    panels: int = QUADRATURE_PANELS,
) -> float:
    """Integrate the conditional discount against the law of ``tau_C``,
    restricted to ``tau_C > contingency``.

    Composite Simpson over ``[contingency, horizon]`` plus the exact tail
    mass ``U_C(horizon)`` times the survival branch.  With
    ``contingency = 0`` this equals ``D(0,T_I) * U_I(T_I)`` up to
    quadrature error.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be positive")
    if not (0.0 <= contingency < horizon):
        raise ValueError("need 0 <= contingency < horizon")

    def integrand(ts):
        lam_c = np.asarray(model.counterparty.intensity.value(ts), dtype=float)
        u_c = np.exp(-np.asarray(model.counterparty.cumulative_hazard(ts)))
        return _default_branch(market, model, horizon, ts) * lam_c * u_c

    body = _composite_simpson(integrand, contingency, horizon, panels)
    tail = math.exp(-model.counterparty.cumulative_hazard(horizon)) * _survival_branch(
        market, model, horizon
    )
    return body + tail


def reprice_contingent_bond(
    market: MarketRates,
    model: JointDefaultModel,
    maturity: float,
    contingency: float = 0.0,
    *,
    tolerance: float = 1e-8,
    panels: int = QUADRATURE_PANELS,
) -> float:
    """Price the unit zero-recovery investor bond paying at ``maturity``
    provided the counterparty survives to ``contingency``, two ways, and
    insist they agree.

    External route: ``D(0,T_I) * U(T_I, T_C)``.  Internal route:
    quadrature of the conditional discount against the ``tau_C`` law on
    ``tau_C > T_C``.  A gap beyond ``tolerance`` raises
    :class:`InvariantError`; the external price is returned.
    """
    internal = expected_conditional_discount(
        market, model, maturity, contingency=contingency, panels=panels
    )
    external = market.risk_free.discount_factor(0.0, maturity) * model.joint_survival(
        maturity, contingency
    )
    gap = abs(internal - external)
    if not (gap <= tolerance):
        raise InvariantError(
            f"contingent bond repricing gap {gap:.3e} exceeds {tolerance:.1e}"
        )
    return external
