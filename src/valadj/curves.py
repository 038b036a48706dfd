"""Deterministic term structures.

Conventions used throughout the package:

* time is measured in year fractions, ``t = 0`` is the valuation date
* rates are continuously compounded and piecewise constant in time
* a curve is right-continuous: the value quoted at a node time is the
  value of the segment that starts there
* queries beyond the last node extrapolate flat; negative times are a
  domain error

Integrals of piecewise-constant curves are computed in closed form, so
``integrated_rate`` carries no quadrature error, only accumulation
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "TermCurve",
    "MarketRates",
    "as_curve",
    "combined",
]


def _as_time_array(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    # min/max reductions build no full-size temporaries; NaN propagates
    # through both and fails the comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise ValueError("times must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class TermCurve:
    """Piecewise-constant curve ``t -> value`` on ``[0, inf)``.

    ``times`` must be strictly increasing with ``times[0] == 0`` so the
    curve is defined from the valuation date onward.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if not times or len(times) != len(values):
            raise ValueError("curve needs one value per node time")
        if times[0] != 0.0:
            raise ValueError("first curve node must sit at t = 0")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("curve node times must be strictly increasing")
        if not all(math.isfinite(x) for x in times + values):
            raise ValueError("curve nodes must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        t_arr = np.asarray(times)
        v_arr = np.asarray(values)
        # cumulative integral at each node, used by cumulative()
        cum = np.zeros(len(times))
        if len(times) > 1:
            with np.errstate(over="ignore", invalid="ignore"):
                cum[1:] = np.cumsum(v_arr[:-1] * np.diff(t_arr))
            finite = np.isfinite(cum)
            if not finite.all():
                t = times[int(np.argmin(finite))]
                raise ValueError(f"curve integral overflows a double at t = {t!r}")
        object.__setattr__(self, "_times", t_arr)
        object.__setattr__(self, "_values", v_arr)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def flat(cls, value: float) -> "TermCurve":
        return cls((0.0,), (float(value),))

    @classmethod
    def from_nodes(cls, nodes: Iterable[tuple[float, float]]) -> "TermCurve":
        """Build a curve from ``(time, value)`` pairs, given in time order."""
        pairs = [(float(t), float(v)) for t, v in nodes]
        return cls(tuple(t for t, _ in pairs), tuple(v for _, v in pairs))

    # -- evaluation ----------------------------------------------------

    # One-node (flat) curves skip the node lookup and the gathers; the
    # results are those of the general formulas at index 0.

    def value(self, t, left: bool = False):
        """Curve value at ``t`` (right-continuous), or with ``left`` its
        left limit there: the segment that ends at ``t``, if any (the
        first one at 0).  Scalar or array."""
        arr = _as_time_array(t)
        if len(self._times) == 1:
            out = np.full(arr.shape, self._values[0])
        elif left:
            idx = np.searchsorted(self._times, arr, side="left") - 1
            out = self._values[np.maximum(idx, 0)]
        else:
            out = self._values[np.searchsorted(self._times, arr, side="right") - 1]
        return float(out) if out.ndim == 0 else out

    def cumulative(self, t):
        """Exact integral of the curve over ``[0, t]``."""
        arr = _as_time_array(t)
        if len(self._times) == 1:
            # times[0] = cum[0] = 0; adding the 0.0 keeps the general
            # formula's +0.0 where the product is -0.0
            out = 0.0 + self._values[0] * arr
        else:
            idx = np.searchsorted(self._times, arr, side="right") - 1
            out = self._cum[idx] + self._values[idx] * (arr - self._times[idx])
        return float(out) if out.ndim == 0 else out

    def integrated_rate(self, t0: float, t1: float) -> float:
        """Exact integral over ``[t0, t1]``; requires ``0 <= t0 <= t1``."""
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError("integration bounds must be finite")
        if t0 < 0.0 or t1 < t0:
            raise ValueError("need 0 <= t0 <= t1")
        return float(self.cumulative(t1) - self.cumulative(t0))

    def discount_factor(self, t0: float, t1: float) -> float:
        """``exp(-integral)`` of the curve between ``t0`` and ``t1``."""
        return math.exp(-self.integrated_rate(t0, t1))


def combined(curves: Sequence[TermCurve], fn: Callable[..., np.ndarray]) -> TermCurve:
    """Pointwise combination of piecewise-constant curves: the package's
    one curve algebra (sums, differences, scalings).

    The result lives on the union of the node grids, where it is again
    piecewise constant.  Each curve is evaluated once, on the whole union
    grid, so ``fn`` receives one array per curve and must combine them
    elementwise into an array of the same shape.
    """
    times = sorted({t for c in curves for t in c.times})
    grid = np.array(times)
    values = np.asarray(fn(*(c.value(grid) for c in curves)), dtype=float)
    return TermCurve(tuple(times), tuple(values.tolist()))


def as_curve(x) -> TermCurve:
    """Coerce a scalar to a flat curve; pass curves through unchanged."""
    if isinstance(x, TermCurve):
        return x
    return TermCurve.flat(float(x))


@dataclass(frozen=True)
class MarketRates:
    """Observable deterministic rates: risk-free ``r`` and collateral ``r_X``."""

    risk_free: TermCurve
    collateral: TermCurve
