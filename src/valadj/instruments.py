"""Deterministic cashflow streams and default closeout rules.

The trade is a finite stream of known flows ``a_i`` at times ``t_i``
(investor receives positive amounts).  Its collateral-rate value

    v_X(t) = sum_{t_i > t} a_i * exp(-int_t^{t_i} r_X)

discounts every remaining flow at the collateral rate and uses the
ex-dividend convention: a flow paid exactly at ``t`` is no longer part
of the value at ``t``.  Between flow dates ``v_X`` solves
``dv_X/dt = r_X v_X`` (plus the flow itself as a source), and it jumps
down by ``a_i`` across each payment; ``collateral_value(..., left=True)``
gives the left limit, which still owes the flow at ``t``.  Either side
costs ``O(log flows)`` per point, because ``v_X`` is a single
exponential between flow dates.

On a default at time ``tau`` the surviving party settles against
``v_X(tau)``:

    k_I = v_X+ - rec_I * v_X-     (investor defaults first)
    k_C = rec_C * v_X+ - v_X-     (counterparty defaults first)

where ``x+ = max(x, 0)``, ``x- = max(-x, 0)`` and each recovery lies in
``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import TermCurve

__all__ = [
    "CashflowSchedule",
    "CloseoutSpec",
    "collateral_value",
    "closeout_values",
]


@dataclass(frozen=True)
class CashflowSchedule:
    """Known flows ``amounts[i]`` paid at year fractions ``times[i]``."""

    times: tuple[float, ...]
    amounts: tuple[float, ...]
    maturity: float

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        amounts = tuple(float(a) for a in self.amounts)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amounts", amounts)
        object.__setattr__(self, "maturity", float(self.maturity))
        if not times or len(times) != len(amounts):
            raise ValueError("schedule needs one amount per flow time")
        if not all(math.isfinite(t) for t in times):
            raise ValueError("flow times must be finite")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("flow times must be strictly increasing")
        if times[0] <= 0.0:
            raise ValueError("flows must be strictly after the valuation date")
        if not math.isfinite(self.maturity) or times[-1] > self.maturity:
            raise ValueError("maturity must be finite and cover every flow")
        if not all(math.isfinite(a) for a in amounts):
            raise ValueError("flow amounts must be finite")

    @classmethod
    def from_flows(cls, flows, maturity: float | None = None) -> "CashflowSchedule":
        """Build from ``(time, amount)`` pairs; maturity defaults to the
        last flow date."""
        pairs = [(float(t), float(a)) for t, a in flows]
        if not pairs:
            raise ValueError("schedule needs at least one flow")
        t_last = max(t for t, _ in pairs)
        return cls(
            tuple(t for t, _ in pairs),
            tuple(a for _, a in pairs),
            t_last if maturity is None else float(maturity),
        )


def collateral_value(schedule: CashflowSchedule, collateral: TermCurve, t, *, left=False):
    """Remaining flows discounted at the collateral rate.

    With ``left=False`` the value is ex-dividend (right-continuous): a
    flow paid exactly at ``t`` is no longer owed.  With ``left=True`` it
    is the left limit, which still includes that flow.

    The remaining-flow values ``P_k = a_k + exp(-int_{t_k}^{t_{k+1}} r_X)
    P_{k+1}`` at the flow dates are built once per call by backward
    recursion in the frame of each flow date.  Each point is then
    ``P_k exp(-int_t^{t_k} r_X)``, with ``k`` the first flow still owed,
    located by binary search: ``O(n log flows)`` for ``n`` points
    instead of ``O(n flows)``.  No term is scaled by
    ``exp(int_0^t r_X)``, so long-dated or high-rate trades do not
    overflow.

    Parameters
    ----------
    schedule : CashflowSchedule
    collateral : TermCurve
        The rate ``r_X`` earned on cash posted at the exchange.
    t : float or ndarray
        Valuation times in ``[0, maturity]``.
    left : bool
        Return the left limit instead of the ex-dividend value.

    Returns
    -------
    float or ndarray shaped like ``t``.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > schedule.maturity):
        raise ValueError("valuation time must lie in [0, maturity]")
    times = np.asarray(schedule.times)
    h_flow = np.asarray(collateral.cumulative(times))
    step = np.exp(h_flow[:-1] - h_flow[1:])  # discount from t_{i+1} to t_i
    remaining = list(schedule.amounts) + [0.0]
    for i in range(len(times) - 2, -1, -1):
        remaining[i] = remaining[i] + float(step[i]) * remaining[i + 1]
    # no flow left past the last date: exp(h_t - inf) = 0 times P = 0
    h_next = np.append(h_flow, np.inf)
    k = np.searchsorted(times, arr, side="left" if left else "right")
    h_t = np.asarray(collateral.cumulative(arr))
    out = np.asarray(remaining)[k] * np.exp(h_t - h_next[k])
    return float(out) if out.ndim == 0 else out


def _check_recovery(recovery) -> float:
    """``recovery`` as a float, if it lies in ``[0, 1]``."""
    if not (math.isfinite(recovery) and 0.0 <= recovery <= 1.0):
        raise ValueError("recovery out of range [0, 1]")
    return float(recovery)


@dataclass(frozen=True)
class CloseoutSpec:
    """Recovered fractions applied to the collateral-rate value on a
    first default."""

    recovery_investor: float
    recovery_counterparty: float

    def __post_init__(self):
        for label in ("recovery_investor", "recovery_counterparty"):
            try:
                object.__setattr__(self, label, _check_recovery(getattr(self, label)))
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None


def closeout_values(spec: CloseoutSpec, vx):
    """Settlement amounts ``(k_I, k_C)`` against a mark of ``vx``.

    Works elementwise on arrays.  ``k_I >= vx >= k_C`` always: default of
    either party can only hurt the investor's claim.
    """
    vx_arr = np.asarray(vx, dtype=float)
    pos = np.maximum(vx_arr, 0.0)
    neg = np.maximum(-vx_arr, 0.0)
    k_i = pos - spec.recovery_investor * neg
    k_c = spec.recovery_counterparty * pos - neg
    if vx_arr.ndim == 0:
        return float(k_i), float(k_c)
    return k_i, k_c
