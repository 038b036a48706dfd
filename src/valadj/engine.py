"""Value-adjustment engine.

The gap ``u = v - v_X`` between the trade's value under the investor's
measure and its collateral-rate value solves a scalar linear ODE

    -du/dt + alpha(t) * u(t) = beta(t),      u(T) = 0,

whose solution is the integral

    u(t) = int_t^T beta(s) * exp(-int_t^s alpha) ds.

The engine evaluates that integral directly rather than time-stepping
the ODE: the time line is cut into panels at every curve node and flow
date plus a uniform refinement (at least ``panels_per_year`` panels per
year), the inner exponential is computed from exact cumulative
integrals of ``alpha``, and the outer integral uses Simpson's rule
inside each panel, where the integrand is smooth.  Panels are then
chained backward with exact exponential propagation.  A flow exactly on
a panel boundary still belongs to the future of the panel on its left,
so right-endpoint evaluations use left limits of ``beta``.

Three coefficient regimes are provided:

* ``riskfree_cpty``: only the investor can default, intensity
  ``lam_bar_I`` under the internal measure.
      alpha = r_bar + lam_bar_I
      beta  = (1 - rec_I) lam_bar_I vX-  -  (r_bar - r_X) vX
* ``independent``: both names default, independently.
      alpha = r_bar + lam_bar_I + lam_C
      beta  = (1 - rec_I) lam_bar_I vX- - (1 - rec_C) lam_C vX+ - (r_bar - r_X) vX
* ``correlated``: dependent defaults, zero bond recovery and
  ``lam_bar_I = 0``; hazards are the first-to-default intensities.
      alpha = r + FTD_I + FTD_C
      beta  = -(1 - rec_C) lam_C vX+ - (r + FTD_I + FTD_C - lam_C - r_X) vX

Setting ``lam_C = 0`` collapses ``independent`` onto ``riskfree_cpty``,
and ``theta = 0`` collapses ``correlated`` onto ``independent`` with
``lam_bar_I = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .credit import JointDefaultModel
from .curves import MarketRates, TermCurve, as_curve
from .errors import InvariantError
from .instruments import CashflowSchedule, CloseoutSpec, collateral_value
from .measure import internal_rate

__all__ = [
    "AdjustmentProfile",
    "DEFAULT_PANELS_PER_YEAR",
    "REGIME_RISKFREE_CPTY",
    "REGIME_INDEPENDENT",
    "REGIME_CORRELATED",
    "panel_grid",
    "solve_linear_adjustment",
    "adjustment_riskfree_cpty",
    "adjustment_independent",
    "adjustment_correlated",
]

DEFAULT_PANELS_PER_YEAR = 512

REGIME_RISKFREE_CPTY = "riskfree_cpty"
REGIME_INDEPENDENT = "independent"
REGIME_CORRELATED = "correlated"


@dataclass(frozen=True, eq=False)
class AdjustmentProfile:
    """Solved adjustment on the panel grid.

    ``v = v_x + u`` pointwise; ``alpha`` and ``beta`` hold the ODE
    coefficients evaluated right-continuously at the grid times.
    """

    regime: str
    grid: np.ndarray
    v_x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def adjustment(self) -> float:
        """u(0): the value adjustment itself."""
        return float(self.u[0])

    def value(self) -> float:
        """v(0) = v_X(0) + u(0)."""
        return float(self.v[0])


def panel_grid(
    maturity: float, breakpoints: Iterable[float] = (), panels_per_year: int = DEFAULT_PANELS_PER_YEAR
) -> np.ndarray:
    """Panel edges on ``[0, maturity]``: a uniform grid of at least
    ``panels_per_year`` panels per year, unioned with the breakpoints."""
    if not (math.isfinite(maturity) and maturity > 0.0):
        raise ValueError("maturity must be positive and finite")
    if panels_per_year < 1:
        raise ValueError("need at least one panel per year")
    n = max(1, math.ceil(maturity * panels_per_year - 1e-9))
    base = np.linspace(0.0, maturity, n + 1)
    inner = [float(b) for b in breakpoints if 0.0 < b < maturity]
    return np.union1d(base, inner) if inner else base


def solve_linear_adjustment(
    alpha: Callable,
    beta: Callable,
    *,
    maturity: float,
    breakpoints: Iterable[float] = (),
    panels_per_year: int = DEFAULT_PANELS_PER_YEAR,
    alpha_cumulative: Callable | None = None,
    beta_left: Callable | None = None,
    alpha_left: Callable | None = None,
    vx: Callable | None = None,
    regime: str = "generic",
) -> AdjustmentProfile:
    """Solve ``-u' + alpha u = beta`` with ``u(maturity) = 0``.

    Parameters
    ----------
    alpha, beta : callable
        Coefficients; must accept numpy arrays of times.  Their only
        allowed discontinuities are at ``breakpoints``.
    alpha_cumulative : callable, optional
        Exact ``t -> int_0^t alpha``.  When omitted, panel integrals of
        ``alpha`` fall back to Simpson's rule, which is exact for
        polynomials of degree three and below.
    beta_left, alpha_left : callable, optional
        One-sided limits used at panel right-endpoints; default to the
        right-continuous versions (correct whenever the coefficient is
        continuous there).
    vx : callable, optional
        Collateral-rate value reported alongside ``u``; defaults to 0.
    """
    edges = panel_grid(maturity, breakpoints, panels_per_year)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    n_panels = len(widths)

    beta_left = beta_left if beta_left is not None else beta
    alpha_left = alpha_left if alpha_left is not None else alpha

    alpha_edge = np.asarray(alpha(edges), dtype=float)
    beta_edge = np.asarray(beta(edges), dtype=float)
    beta_mid = np.asarray(beta(mids), dtype=float)
    beta_end = np.asarray(beta_left(edges[1:]), dtype=float)

    if alpha_cumulative is not None:
        a_edge = np.asarray(alpha_cumulative(edges), dtype=float)
        a_mid = np.asarray(alpha_cumulative(mids), dtype=float)
        a_half = a_mid - a_edge[:-1]
        a_full = a_edge[1:] - a_edge[:-1]
    else:
        q1 = 0.75 * edges[:-1] + 0.25 * edges[1:]
        q3 = 0.25 * edges[:-1] + 0.75 * edges[1:]
        alpha_mid = np.asarray(alpha(mids), dtype=float)
        a_half = (widths / 12.0) * (
            alpha_edge[:-1] + 4.0 * np.asarray(alpha(q1), dtype=float) + alpha_mid
        )
        a_full = a_half + (widths / 12.0) * (
            alpha_mid
            + 4.0 * np.asarray(alpha(q3), dtype=float)
            + np.asarray(alpha_left(edges[1:]), dtype=float)
        )

    for label, arr in (
        ("alpha", alpha_edge),
        ("beta", beta_edge),
        ("beta", beta_mid),
        ("beta", beta_end),
        ("integrated alpha", a_half),
        ("integrated alpha", a_full),
    ):
        if not np.all(np.isfinite(arr)):
            raise InvariantError(f"non-finite {label} coefficient on the panel grid")

    # overflow here is handled by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        w_mid = np.exp(-a_half)
        w_end = np.exp(-a_full)
        local = (widths / 6.0) * (
            beta_edge[:-1] + 4.0 * beta_mid * w_mid + beta_end * w_end
        )

        u = np.zeros(n_panels + 1)
        acc = 0.0
        for k in range(n_panels - 1, -1, -1):
            acc = local[k] + w_end[k] * acc
            u[k] = acc
    if not np.all(np.isfinite(u)):
        raise InvariantError("adjustment overflowed during panel propagation")

    vx_arr = (
        np.asarray(vx(edges), dtype=float) if vx is not None else np.zeros(len(edges))
    )
    return AdjustmentProfile(
        regime=regime,
        grid=edges,
        v_x=vx_arr,
        u=u,
        v=vx_arr + u,
        alpha=alpha_edge,
        beta=beta_edge,
    )


def _vx_pair(schedule: CashflowSchedule, collateral: TermCurve):
    """Right-continuous ``v_X`` and its left limit (flow at ``t`` still
    owed)."""

    def vx(t):
        return collateral_value(schedule, collateral, t)

    def vx_left(t):
        return collateral_value(schedule, collateral, t, left=True)

    return vx, vx_left


def _flow_breakpoints(schedule: CashflowSchedule, *curves: TermCurve) -> set:
    pts = set(schedule.times)
    for c in curves:
        pts.update(c.times)
    return pts


def adjustment_riskfree_cpty(
    market: MarketRates,
    investor,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    *,
    panels_per_year: int = DEFAULT_PANELS_PER_YEAR,
) -> AdjustmentProfile:
    """Adjustment when only the investor can default, with internal
    intensity ``lambda_bar`` (a curve or scalar; 0 is admissible)."""
    lam_bar = as_curve(lambda_bar)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    alpha_curve = r_bar + lam_bar
    spread = r_bar - market.collateral
    loss_i = 1.0 - closeout.recovery_investor
    vx, vx_left = _vx_pair(schedule, market.collateral)

    def beta(t):
        x = np.asarray(vx(t), dtype=float)
        return loss_i * lam_bar.value(t) * np.maximum(-x, 0.0) - spread.value(t) * x

    def beta_left(t):
        x = np.asarray(vx_left(t), dtype=float)
        return (
            loss_i * lam_bar.value_left(t) * np.maximum(-x, 0.0)
            - spread.value_left(t) * x
        )

    return solve_linear_adjustment(
        alpha_curve.value,
        beta,
        maturity=schedule.maturity,
        breakpoints=_flow_breakpoints(schedule, alpha_curve, spread, market.collateral),
        panels_per_year=panels_per_year,
        alpha_cumulative=alpha_curve.cumulative,
        beta_left=beta_left,
        alpha_left=alpha_curve.value_left,
        vx=vx,
        regime=REGIME_RISKFREE_CPTY,
    )


def adjustment_independent(
    market: MarketRates,
    investor,
    counterparty,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    *,
    panels_per_year: int = DEFAULT_PANELS_PER_YEAR,
) -> AdjustmentProfile:
    """Adjustment with an independently defaulting counterparty kept at
    its market intensity."""
    lam_bar = as_curve(lambda_bar)
    lam_c = counterparty.intensity
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    alpha_curve = r_bar + lam_bar + lam_c
    spread = r_bar - market.collateral
    loss_i = 1.0 - closeout.recovery_investor
    loss_c = 1.0 - closeout.recovery_counterparty
    vx, vx_left = _vx_pair(schedule, market.collateral)

    def beta(t):
        x = np.asarray(vx(t), dtype=float)
        return (
            loss_i * lam_bar.value(t) * np.maximum(-x, 0.0)
            - loss_c * lam_c.value(t) * np.maximum(x, 0.0)
            - spread.value(t) * x
        )

    def beta_left(t):
        x = np.asarray(vx_left(t), dtype=float)
        return (
            loss_i * lam_bar.value_left(t) * np.maximum(-x, 0.0)
            - loss_c * lam_c.value_left(t) * np.maximum(x, 0.0)
            - spread.value_left(t) * x
        )

    return solve_linear_adjustment(
        alpha_curve.value,
        beta,
        maturity=schedule.maturity,
        breakpoints=_flow_breakpoints(
            schedule, alpha_curve, spread, market.collateral
        ),
        panels_per_year=panels_per_year,
        alpha_cumulative=alpha_curve.cumulative,
        beta_left=beta_left,
        alpha_left=alpha_curve.value_left,
        vx=vx,
        regime=REGIME_INDEPENDENT,
    )


def adjustment_correlated(
    market: MarketRates,
    model: JointDefaultModel,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    *,
    panels_per_year: int = DEFAULT_PANELS_PER_YEAR,
) -> AdjustmentProfile:
    """Adjustment with dependent defaults, zero bond recovery and the
    investor internally default-free.

    The cumulative hazard of the first default has the closed form
    ``-log U(t, t)``, so the exponential propagation stays exact even
    though the first-to-default intensities vary inside panels.
    """
    r = market.risk_free
    r_x = market.collateral
    lam_c = model.counterparty.intensity
    inv_name = model.investor.name
    cpty_name = model.counterparty.name
    loss_c = 1.0 - closeout.recovery_counterparty
    vx, vx_left = _vx_pair(schedule, market.collateral)

    def ftd_sum(t, left=False):
        return np.asarray(
            model.ftd_intensity(inv_name, t, left=left), dtype=float
        ) + np.asarray(model.ftd_intensity(cpty_name, t, left=left), dtype=float)

    def alpha(t):
        return r.value(t) + ftd_sum(t)

    def alpha_left(t):
        return r.value_left(t) + ftd_sum(t, left=True)

    def alpha_cumulative(t):
        return np.asarray(r.cumulative(t), dtype=float) - np.asarray(
            model.log_joint_survival(t, t), dtype=float
        )

    def beta(t):
        x = np.asarray(vx(t), dtype=float)
        lc = lam_c.value(t)
        carry = r.value(t) + ftd_sum(t) - lc - r_x.value(t)
        return -loss_c * lc * np.maximum(x, 0.0) - carry * x

    def beta_left(t):
        x = np.asarray(vx_left(t), dtype=float)
        lc = lam_c.value_left(t)
        carry = r.value_left(t) + ftd_sum(t, left=True) - lc - r_x.value_left(t)
        return -loss_c * lc * np.maximum(x, 0.0) - carry * x

    return solve_linear_adjustment(
        alpha,
        beta,
        maturity=schedule.maturity,
        breakpoints=_flow_breakpoints(
            schedule, r, r_x, model.investor.intensity, lam_c
        ),
        panels_per_year=panels_per_year,
        alpha_cumulative=alpha_cumulative,
        beta_left=beta_left,
        alpha_left=alpha_left,
        vx=vx,
        regime=REGIME_CORRELATED,
    )
