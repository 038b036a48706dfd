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

Two coefficient families are provided:

* ``independent``: both names default, independently; the investor at
  ``lam_bar_I`` under the internal measure, the counterparty at its
  market intensity ``lam_C``.
      alpha = r_bar + lam_bar_I + lam_C
      beta  = (1 - rec_I) lam_bar_I vX- - (1 - rec_C) lam_C vX+ - (r_bar - r_X) vX
  The ``riskfree_cpty`` regime is this one without a counterparty
  (``lam_C = 0``): only the investor can default.
* ``correlated``: dependent defaults, zero bond recovery and
  ``lam_bar_I = 0``; hazards are the first-to-default intensities.
      alpha = r + FTD_I + FTD_C
      beta  = -(1 - rec_C) lam_C vX+ - (r + FTD_I + FTD_C - lam_C - r_X) vX

``theta = 0`` collapses ``correlated`` onto ``independent`` with
``lam_bar_I = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .credit import CreditCurve, JointDefaultModel
from .curves import MarketRates, TermCurve, as_curve, combined
from .errors import InvariantError, _require_finite
from .instruments import CashflowSchedule, CloseoutSpec, collateral_value
from .measure import internal_rate

__all__ = [
    "AdjustmentProfile", "DEFAULT_PANELS_PER_YEAR", "panel_grid", "solve_linear_adjustment",
    "adjustment_independent", "adjustment_correlated",
]

DEFAULT_PANELS_PER_YEAR = 512


@dataclass(frozen=True, eq=False)
class AdjustmentProfile:
    """Solved adjustment on the panel grid.

    ``v = v_x + u`` pointwise; ``alpha`` and ``beta`` hold the ODE
    coefficients evaluated right-continuously at the grid times.
    """

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


def _coefficients(edges: np.ndarray, alpha, alpha_cumulative, beta) -> tuple:
    """What the solver reads on the panels between ``edges``: ``alpha`` and
    ``(beta, v_X)`` on the edges, ``beta`` at the midpoints and its left
    limits at the right ends, and ``int alpha`` over each panel's first
    half and whole.  Raises :class:`InvariantError` where one is not finite."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    # an overflow shows as inf or NaN, which the check below names
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha_edge = np.asarray(alpha(edges), dtype=float)
        beta_edge, vx_edge = np.asarray(beta(edges, False), dtype=float)
        beta_mid = np.asarray(beta(mids, False)[0], dtype=float)
        beta_end = np.asarray(beta(edges[1:], True)[0], dtype=float)
        a_edge = np.asarray(alpha_cumulative(edges), dtype=float)
        a_half = np.asarray(alpha_cumulative(mids), dtype=float) - a_edge[:-1]
        a_full = a_edge[1:] - a_edge[:-1]
    _require_finite(
        ("alpha coefficient", edges, alpha_edge),
        ("beta coefficient", edges, beta_edge),
        ("beta coefficient", mids, beta_mid),
        ("beta coefficient", edges[1:], beta_end),
        ("integrated alpha", mids, a_half),
        ("integrated alpha", edges[1:], a_full),
    )
    return alpha_edge, beta_edge, vx_edge, beta_mid, beta_end, a_half, a_full


def _check_coefficients(alpha, alpha_cumulative, beta, breakpoints, *, maturity: float) -> None:
    """:func:`_coefficients` on 0, the breakpoints and ``maturity`` only.
    Between breakpoints each coefficient is constant, linear or one
    exponential (the first-to-default factors are monotone), so where it
    is finite at both ends it is on every panel grid.

    Where one is not, the error names the time it breaks: the first
    double after the last edge before the failing point at which a
    panel from that edge has a non-finite coefficient, found by
    bisecting the doubles between them (at most 64 steps)."""
    edges = np.array(sorted({0.0, maturity, *(b for b in breakpoints if 0.0 < b < maturity)}))

    def check(panel):
        try:
            _coefficients(panel, alpha, alpha_cumulative, beta)
        except InvariantError as exc:
            return exc
        return None

    error = check(edges)
    if error is None:
        return
    if error.t == 0.0:
        # no earlier edge to bisect from
        raise error
    start = edges[np.searchsorted(edges, error.t) - 1]
    # the bit patterns of non-negative doubles are ordered as the doubles
    lo, hi = (int(bits) for bits in np.array([start, error.t]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = check(np.array([start, np.array(mid).view(np.float64)]))
        if found is None:
            lo = mid
        else:
            hi, error = mid, found
    raise error


def solve_linear_adjustment(
    alpha: Callable,
    alpha_cumulative: Callable,
    beta: Callable,
    *,
    maturity: float,
    breakpoints: Iterable[float] = (),
    panels_per_year: int = DEFAULT_PANELS_PER_YEAR,
) -> AdjustmentProfile:
    """Solve ``-u' + alpha u = beta`` with ``u(maturity) = 0``.

    Parameters
    ----------
    alpha : callable
        Right-continuous coefficient ``t -> alpha(t)``.
    alpha_cumulative : callable
        Exact ``t -> int_0^t alpha``.
    beta : callable
        ``(t, left) -> (beta(t), v_X(t))``: the coefficient and the
        collateral-rate value it is built from, right-continuous, or
        their left limits when ``left`` is true (used at panel
        right-endpoints).  The right-continuous ``v_X`` on the panel
        edges is reported alongside ``u``.

    Every callable accepts numpy arrays of times; the coefficients may
    jump only at ``breakpoints``.
    """
    edges = panel_grid(maturity, breakpoints, panels_per_year)
    alpha_edge, beta_edge, vx_edge, beta_mid, beta_end, a_half, a_full = _coefficients(
        edges, alpha, alpha_cumulative, beta
    )
    widths = np.diff(edges)

    # overflow here is handled by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        w_mid = np.exp(-a_half)
        w_end = np.exp(-a_full)
        local = (widths / 6.0) * (beta_edge[:-1] + 4.0 * beta_mid * w_mid + beta_end * w_end)

    # the recurrence on Python floats: the same IEEE doubles as numpy's
    # scalars, without one per panel; an overflow gives inf silently
    acc = 0.0
    backward = [acc]
    for loc, w in zip(reversed(local.tolist()), reversed(w_end.tolist())):
        acc = loc + w * acc
        backward.append(acc)
    u = np.array(backward[::-1])
    if not np.all(np.isfinite(u)):
        # once non-finite, u stays so down to t = 0: name where it broke
        t = float(edges[np.flatnonzero(~np.isfinite(u))[-1]])
        raise InvariantError(f"adjustment overflowed during panel propagation at t = {t!r}")

    return AdjustmentProfile(
        grid=edges, v_x=vx_edge, u=u, v=vx_edge + u, alpha=alpha_edge, beta=beta_edge
    )


def _flow_breakpoints(schedule: CashflowSchedule, *curves: TermCurve) -> set:
    pts = set(schedule.times)
    for c in curves:
        pts.update(c.times)
    return pts


def _independent_coefficients(
    market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
) -> tuple:
    """``(alpha, alpha_cumulative, beta, breakpoints)`` of :func:`adjustment_independent`."""
    lam_bar = as_curve(lambda_bar)
    lam_c = counterparty.intensity if counterparty is not None else TermCurve.flat(0.0)
    r_bar = internal_rate(market, investor, recovery_bond, lam_bar)
    alpha_curve = combined((r_bar, lam_bar, lam_c), lambda r, lb, lc: r + lb + lc)
    spread = combined((r_bar, market.collateral), np.subtract)
    loss_i = 1.0 - closeout.recovery_investor
    loss_c = 1.0 - closeout.recovery_counterparty

    def beta(t, left):
        x = np.asarray(collateral_value(schedule, market.collateral, t, left=left), dtype=float)
        return (
            loss_i * lam_bar.value(t, left) * np.maximum(-x, 0.0)
            - loss_c * lam_c.value(t, left) * np.maximum(x, 0.0)
            - spread.value(t, left) * x
        ), x

    breakpoints = _flow_breakpoints(schedule, alpha_curve, spread, market.collateral)
    return alpha_curve.value, alpha_curve.cumulative, beta, breakpoints


def adjustment_independent(
    market: MarketRates,
    investor: CreditCurve,
    counterparty: CreditCurve | None,
    recovery_bond: float,
    lambda_bar,
    schedule: CashflowSchedule,
    closeout: CloseoutSpec,
    *,
    panels_per_year: int = DEFAULT_PANELS_PER_YEAR,
) -> AdjustmentProfile:
    """Adjustment with the investor defaulting at its internal intensity
    ``lambda_bar`` (a curve or scalar; 0 is admissible) and the
    counterparty, independently, at its market intensity.

    ``counterparty=None`` never defaults (``lam_C = 0``): the
    ``riskfree_cpty`` regime.
    """
    *coefficients, breakpoints = _independent_coefficients(
        market, investor, counterparty, recovery_bond, lambda_bar, schedule, closeout
    )
    return solve_linear_adjustment(
        *coefficients,
        maturity=schedule.maturity,
        breakpoints=breakpoints,
        panels_per_year=panels_per_year,
    )


def _correlated_coefficients(market, model, schedule, closeout) -> tuple:
    """``(alpha, alpha_cumulative, beta, breakpoints)`` of :func:`adjustment_correlated`."""
    r = market.risk_free
    r_x = market.collateral
    lam_c = model.counterparty.intensity
    loss_c = 1.0 - closeout.recovery_counterparty

    def ftd_sum(t, left=False):
        return np.add(*model.ftd_intensity(t, left=left))

    def alpha(t):
        return r.value(t) + ftd_sum(t)

    def alpha_cumulative(t):
        return np.asarray(r.cumulative(t), dtype=float) - np.asarray(
            model.log_joint_survival(t, t), dtype=float
        )

    def beta(t, left):
        x = np.asarray(collateral_value(schedule, r_x, t, left=left), dtype=float)
        lc = lam_c.value(t, left)
        carry = r.value(t, left) + ftd_sum(t, left) - lc - r_x.value(t, left)
        return -loss_c * lc * np.maximum(x, 0.0) - carry * x, x

    breakpoints = _flow_breakpoints(schedule, r, r_x, model.investor.intensity, lam_c)
    return alpha, alpha_cumulative, beta, breakpoints


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
    *coefficients, breakpoints = _correlated_coefficients(market, model, schedule, closeout)
    return solve_linear_adjustment(
        *coefficients,
        maturity=schedule.maturity,
        breakpoints=breakpoints,
        panels_per_year=panels_per_year,
    )
