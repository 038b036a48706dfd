"""Default-time models.

A single name defaults with deterministic intensity ``lam(t)``; its
survival probability is ``U(t) = exp(-int_0^t lam)``.  Two names are
coupled through a Clayton survival copula

    C(u, v) = (u**-theta + v**-theta - 1) ** (-1/theta),   theta >= 0,

so the joint survival probability is ``U(t_I, t_C) = C(U_I(t_I),
U_C(t_C))``.  ``theta = 0`` is handled exactly as independence (the
copula's continuous limit), not by plugging a small number in.

The first-to-default intensity of name N,

    FTD_N(t) = lam_N(t) * U_N(t)**-theta / S(t),
    S(t)     = U_I(t)**-theta + U_C(t)**-theta - 1,

is the rate at which N defaults first given that both names have
survived to ``t``.  The two first-to-default intensities sum to the
negative log-derivative of the diagonal ``U(t, t)``.

Internally ``u**-theta`` is written as ``exp(theta * H)`` with ``H`` the
cumulative hazard, and ``S`` is tracked as ``1 + s`` with ``s =
expm1(theta*H_I) + expm1(theta*H_C)``, which keeps full precision for
any ``theta`` above the independence threshold below; smaller values
take the product-law branch, whose result is identical at double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import TermCurve, _Locator

__all__ = [
    "CreditCurve",
    "JointDefaultModel",
    "clayton_survival_copula",
]

# Below this dependence level the product law is the copula's correctly
# rounded value for every representable argument (theta * H_I * H_C stays
# under 2**-53 even at H ~ 708), while above it ``theta * H`` is a normal
# double so expm1/log1p keep full precision.  Branching here is seamless;
# comparing against 0.0 alone breaks down for subnormal theta, where
# ``theta * H`` quantizes to a multiple of theta and the exponent
# ``log1p(s)/theta`` comes out wildly wrong.
_THETA_INDEPENDENT = 1e-22


@dataclass(frozen=True)
class CreditCurve:
    """A named credit with deterministic default intensity."""

    name: str
    intensity: TermCurve
    # the cumulative hazard at the nodes after 0, which inverse_survival
    # locates levels among; None on a flat curve
    _levels: _Locator | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("credit curve needs a name")
        if any(v < 0.0 for v in self.intensity.values):
            raise ValueError("default intensity must be non-negative")
        cum = self.intensity._cum
        object.__setattr__(self, "_levels", _Locator(cum[1:]) if len(cum) > 1 else None)

    def hazard(self, t):
        return self.intensity.value(t)

    def cumulative_hazard(self, t):
        return self.intensity.cumulative(t)

    def survival(self, t):
        """P(tau > t) = exp(-int_0^t lam)."""
        return np.exp(-self.intensity.cumulative(t))

    def inverse_survival(self, w):
        """Default time with survival level ``w``: the smallest ``t`` with
        ``U(t) <= w``.

        Feeding uniform draws through this map samples ``tau``.  Returns
        ``inf`` where the cumulative hazard never reaches ``-log(w)``
        (e.g. a tail intensity of zero, or ``w = 0``).

        Each level takes only its own branch: on a flat curve
        ``tau = -log(w) / lam`` with no lookup; on a piecewise curve a
        bucket lookup among the cumulative hazards at the nodes picks the
        segment, whose constants are gathered once, and the tail past the
        last node is the unbounded last segment.  NaN levels are rejected
        with the out-of-range ones.
        """
        w_arr = np.asarray(w, dtype=float)
        # NaN fails both comparisons
        if w_arr.size and not (w_arr.min() >= 0.0 and w_arr.max() <= 1.0):
            raise ValueError("survival levels must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            # 0.0 - log(w) is +0.0 at w = 1, where -log(w) is -0.0
            target = 0.0 - np.log(w_arr)

        lam = self.intensity._values
        nseg = len(lam) - 1  # bounded segments; the last value extends flat
        if lam[-1] == 0.0 and nseg == 0:
            out = np.where(target <= 0.0, 0.0, np.inf)
        elif nseg == 0:
            out = target / lam[0]
        else:
            cum = self.intensity._cum
            k = self._levels(target, "left")
            # a zero-intensity segment spans no levels (a leading one is
            # reached only at w = 1): it adds 0 to its start time
            rate = np.where(lam > 0.0, lam, np.inf)
            with np.errstate(invalid="ignore"):  # inf/inf at w = 0, zero tail
                out = self.intensity._times[k] + (target - cum[k]) / rate[k]
            if lam[-1] == 0.0:
                # a zero tail never reaches the levels past the last node
                out = np.where(k < nseg, out, np.inf)
        return float(out) if out.ndim == 0 else out


def clayton_survival_copula(u, v, theta: float):
    """Clayton survival copula ``C(u, v)``; ``theta = 0`` is ``u * v``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0) or np.any(u > 1) or np.any(v < 0) or np.any(v > 1):
        raise ValueError("copula arguments must lie in [0, 1]")
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError("dependence parameter theta must be >= 0")
    if theta <= _THETA_INDEPENDENT:
        out = u * v
    else:
        with np.errstate(divide="ignore"):
            s = np.expm1(-theta * np.log(u)) + np.expm1(-theta * np.log(v))
        out = np.exp(-np.log1p(s) / theta)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class JointDefaultModel:
    """Investor and counterparty default times coupled by a Clayton
    survival copula with dependence ``theta >= 0``."""

    investor: CreditCurve
    counterparty: CreditCurve
    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta < 0.0:
            raise ValueError("dependence parameter theta must be finite and >= 0")
        if self.investor.name == self.counterparty.name:
            raise ValueError("investor and counterparty need distinct names")

    def _curve(self, name: str) -> CreditCurve:
        if name == self.investor.name:
            return self.investor
        if name == self.counterparty.name:
            return self.counterparty
        raise ValueError(f"unknown credit name {name!r}")

    def _s_minus_one(self, t_investor, t_counterparty):
        """``S - 1`` with ``S = U_I**-theta + U_C**-theta - 1``, computed
        from cumulative hazards so tiny theta keeps full precision."""
        h_i = self.investor.cumulative_hazard(t_investor)
        h_c = self.counterparty.cumulative_hazard(t_counterparty)
        return np.expm1(self.theta * np.asarray(h_i)) + np.expm1(
            self.theta * np.asarray(h_c)
        )

    def _log_survival_of_hazards(self, h_i, h_c):
        """``log U`` of the copula at cumulative hazards ``h_i``, ``h_c``
        (arrays), stable for small theta."""
        if self.theta <= _THETA_INDEPENDENT:
            return -(h_i + h_c)
        s = np.expm1(self.theta * h_i) + np.expm1(self.theta * h_c)
        return -np.log1p(s) / self.theta

    def log_joint_survival(self, t_investor, t_counterparty):
        """``log P(tau_I > t_I, tau_C > t_C)``, stable for small theta."""
        out = self._log_survival_of_hazards(
            np.asarray(self.investor.cumulative_hazard(t_investor)),
            np.asarray(self.counterparty.cumulative_hazard(t_counterparty)),
        )
        return float(out) if out.ndim == 0 else out

    def joint_survival(self, t_investor, t_counterparty):
        """P(tau_I > t_I, tau_C > t_C) under the survival copula."""
        out = np.exp(self.log_joint_survival(t_investor, t_counterparty))
        return float(out) if np.ndim(out) == 0 else out

    def ftd_intensity(self, name: str, t, *, left: bool = False):
        """First-to-default intensity of ``name`` at ``t``.

        ``left`` evaluates the piecewise-constant hazard one-sided at its
        node times (the copula factors are continuous either way).
        """
        curve = self._curve(name)
        lam = curve.intensity.value_left(t) if left else curve.intensity.value(t)
        if self.theta <= _THETA_INDEPENDENT:
            out = np.asarray(lam, dtype=float)
        else:
            h_n = np.asarray(curve.cumulative_hazard(t))
            s1 = self._s_minus_one(t, t)
            out = lam * np.exp(self.theta * h_n) / (1.0 + s1)
        return float(out) if out.ndim == 0 else out

    def joint_survival_partial_tc(self, t_investor, t_counterparty):
        """Partial derivative of ``joint_survival`` in the counterparty
        time.  Non-positive; zero wherever ``lam_C`` is zero."""
        lam_c = np.asarray(self.counterparty.hazard(t_counterparty), dtype=float)
        h_c = np.asarray(self.counterparty.cumulative_hazard(t_counterparty))
        if self.theta <= _THETA_INDEPENDENT:
            u_i = self.investor.survival(t_investor)
            out = -lam_c * u_i * np.exp(-h_c)
        else:
            s1 = self._s_minus_one(t_investor, t_counterparty)
            # dC/dv * dU_C/dt with dC/dv = S**(-1/theta - 1) * v**(-theta-1)
            out = -lam_c * np.exp(
                -(1.0 + 1.0 / self.theta) * np.log1p(s1) + self.theta * h_c
            )
        return float(out) if out.ndim == 0 else out
