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


# Below this many keys a binary search is cheaper than the bucket
# lookup's fixed cost of about eight numpy calls (~6 us on a 2-vCPU Xeon,
# numpy 2.4; the two break even between 512 and 1024 keys).
_BUCKET_MIN_KEYS = 1024
# More knots than this in one bucket means they cluster: each is one more
# pass over the keys, and a binary search is cheaper.
_BUCKET_MAX_STEPS = 4


class _Locator:
    """``np.searchsorted(knots, x, side)`` over fixed sorted knots,
    through a uniform bucket table.

    ``4 * len(knots)`` buckets cover ``[knots[0], knots[-1]]``: a key's
    bucket is its offset from ``knots[0]``, clipped to that range, times
    ``scale``, cast to an index (a zero span has ``scale = 0`` and one
    bucket).  ``table[b]`` counts the knots whose own bucket, by the same
    float formula, is below ``b``.  The formula is monotone in the key, so
    those knots lie strictly below every key in bucket ``b`` and knots in
    later buckets strictly above it: ``table[b]`` is a lower bound on both
    sides, and ``steps`` passes of ``j += knots[j] <= x`` (``<`` for
    ``side="left"``), one per knot the fullest bucket holds, step over the
    knots the key shares its bucket with.  A NaN after the last knot stops
    every key there.  A lookup is thus a few elementwise passes, whatever
    the knot count; short key arrays, and knots that are not finite or
    crowd into one bucket, are binary-searched.  Keys must not be NaN.
    """

    def __init__(self, knots):
        self.knots = np.asarray(knots, dtype=float)
        self._table = None
        lo, hi = float(self.knots[0]), float(self.knots[-1])
        span = hi - lo
        scale = 4 * len(self.knots) / span if span > 0.0 else 0.0
        if not (math.isfinite(span) and math.isfinite(scale)):
            return
        self._lo, self._hi, self._scale = np.array(lo), np.array(hi), np.array(scale)
        own = self._bucket(self.knots)
        steps = int(np.bincount(own).max())
        if steps <= _BUCKET_MAX_STEPS:
            self._table = np.searchsorted(own, np.arange(own[-1] + 1), side="left")
            self._steps = steps
            self._padded = np.append(self.knots, np.nan)

    def _bucket(self, x):
        # clipping first keeps every product finite: +-inf keys never
        # meet scale = 0 or overflow
        b = np.minimum(x, self._hi)
        np.maximum(b, self._lo, out=b)
        b -= self._lo
        b *= self._scale
        return b.astype(np.intp)

    def __call__(self, x: np.ndarray, side: str) -> np.ndarray:
        if self._table is None or x.size < _BUCKET_MIN_KEYS:
            return np.searchsorted(self.knots, x, side=side)
        j = self._table[self._bucket(x)]
        below = np.less_equal if side == "right" else np.less
        for _ in range(self._steps):
            j += below(self._padded[j], x)
        return j


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
    _locate: _Locator | None = field(init=False, repr=False, compare=False)

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
            cum[1:] = np.cumsum(v_arr[:-1] * np.diff(t_arr))
        object.__setattr__(self, "_times", t_arr)
        object.__setattr__(self, "_values", v_arr)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_locate", _Locator(t_arr) if len(times) > 1 else None)

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

    def value(self, t):
        """Curve value at ``t`` (right-continuous). Scalar or array."""
        arr = _as_time_array(t)
        if len(self._times) == 1:
            out = np.full(arr.shape, self._values[0])
        else:
            out = self._values[self._locate(arr, "right") - 1]
        return float(out) if out.ndim == 0 else out

    def value_left(self, t):
        """Left limit at ``t``: the segment that ends there, if any."""
        arr = _as_time_array(t)
        if len(self._times) == 1:
            out = np.full(arr.shape, self._values[0])
        else:
            idx = self._locate(arr, "left") - 1
            out = self._values[np.maximum(idx, 0)]
        return float(out) if out.ndim == 0 else out

    def cumulative(self, t):
        """Exact integral of the curve over ``[0, t]``."""
        arr = _as_time_array(t)
        if len(self._times) == 1:
            # times[0] = cum[0] = 0; adding the 0.0 keeps the general
            # formula's +0.0 where the product is -0.0
            out = 0.0 + self._values[0] * arr
        else:
            idx = self._locate(arr, "right") - 1
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

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "TermCurve") -> "TermCurve":
        return combined((self, other), lambda a, b: a + b)

    def __sub__(self, other: "TermCurve") -> "TermCurve":
        return combined((self, other), lambda a, b: a - b)

    def __mul__(self, scalar) -> "TermCurve":
        k = float(scalar)
        return TermCurve(self.times, tuple(k * v for v in self.values))

    __rmul__ = __mul__


def combined(curves: Sequence[TermCurve], fn: Callable[..., np.ndarray]) -> TermCurve:
    """Pointwise combination of piecewise-constant curves.

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
    """Observable deterministic rates: risk-free ``r`` and collateral ``r_X``.

    The gap ``r - r_X`` is the liquidity basis earned (or paid) by a
    strategy that funds at the collateral rate instead of the risk-free
    rate.
    """

    risk_free: TermCurve
    collateral: TermCurve

    def basis(self) -> TermCurve:
        return self.risk_free - self.collateral
