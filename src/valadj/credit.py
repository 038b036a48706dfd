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
any ``theta`` above the independence threshold below.  Every copula
quantity derives from one kernel, ``_log_clayton``, and the sampler's
inverse, ``_conditional_inverse``: only these two divide by theta, so
only they take the product-law branch for smaller values, whose result
is identical at double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import TermCurve

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

    def __post_init__(self):
        if not self.name:
            raise ValueError("credit curve needs a name")
        if any(v < 0.0 for v in self.intensity.values):
            raise ValueError("default intensity must be non-negative")

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
        ``tau = -log(w) / lam``; on a piecewise curve a search among the
        cumulative hazards at the nodes picks the segment, whose time is
        clamped at its end node (the formula can overshoot it by a few
        ulps), and the tail past the last node is the unbounded last
        segment.  NaN levels are rejected with the out-of-range ones.
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
            with np.errstate(over="ignore"):  # a subnormal intensity: tau = inf
                out = target / lam[0]
        else:
            times, cum = self.intensity._times, self.intensity._cum
            k = np.searchsorted(cum[1:], target, side="left")
            # a zero-intensity segment spans no levels (a leading one is
            # reached only at w = 1): it adds 0 to its start time
            rate = np.where(lam > 0.0, lam, np.inf)
            end = np.append(times[1:], np.inf)
            # inf/inf at w = 0 and on a zero tail; a subnormal intensity
            # overflows to tau = inf
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.minimum(times[k] + (target - cum[k]) / rate[k], end[k])
            if lam[-1] == 0.0:
                # a zero tail never reaches the levels past the last node
                out = np.where(k < nseg, out, np.inf)
        return _scalar(out)


def _log_clayton(h_i, h_c, theta: float, out=None):
    """``log C(exp(-h_i), exp(-h_c))``: the copula in hazard coordinates,
    computed in place in ``out`` (which may be ``h_i``) or, without it,
    in new arrays (a scalar for 0-d arguments).

    ``S - 1 = expm1(theta*h_i) + expm1(theta*h_c)`` keeps full precision
    for small theta; at or below the threshold it is the product law.
    """
    if theta <= _THETA_INDEPENDENT:
        return np.negative(np.add(h_i, h_c, out=out), out=out)
    s = np.expm1(np.multiply(theta, h_i, out=out), out=out)
    s += np.expm1(theta * h_c)  # in place, or a new scalar for 0-d arguments
    s = np.negative(np.log1p(s, out=out), out=out)
    s /= theta
    return s


def _conditional_inverse(u, w, theta: float):
    """The ``v`` with ``P(V <= v | U = u) = w``, which turns uniform
    ``(u, w)`` into a copula draw: ``v = ((w**(-theta/(1+theta)) - 1) *
    u**-theta + 1)**(-1/theta)``, assembled through expm1/log1p."""
    if theta <= _THETA_INDEPENDENT:
        return w
    with np.errstate(divide="ignore", over="ignore"):
        a = np.expm1(theta / (1.0 + theta) * -np.log(w))
        b = np.exp(theta * -np.log(u))
        return np.exp(-np.log1p(a * b) / theta)


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


def _check_theta(theta) -> float:
    """``theta`` as a float, if it is an admissible dependence level."""
    if not (math.isfinite(theta) and theta >= 0.0):
        raise ValueError("dependence parameter theta must be finite and >= 0")
    return float(theta)


def clayton_survival_copula(u, v, theta: float):
    """Clayton survival copula ``C(u, v)``; ``theta = 0`` is ``u * v``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # NaN fails both comparisons
    for x in (u, v):
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
            raise ValueError("copula arguments must lie in [0, 1]")
    _check_theta(theta)
    with np.errstate(divide="ignore"):
        return _scalar(np.exp(_log_clayton(-np.log(u), -np.log(v), theta)))


@dataclass(frozen=True)
class JointDefaultModel:
    """Investor and counterparty default times coupled by a Clayton
    survival copula with dependence ``theta >= 0``."""

    investor: CreditCurve
    counterparty: CreditCurve
    theta: float

    def __post_init__(self):
        _check_theta(self.theta)

    def log_joint_survival(self, t_investor, t_counterparty):
        """``log P(tau_I > t_I, tau_C > t_C)``, stable for small theta."""
        h_i = self.investor.cumulative_hazard(t_investor)
        h_c = self.counterparty.cumulative_hazard(t_counterparty)
        return _scalar(_log_clayton(np.asarray(h_i), np.asarray(h_c), self.theta))

    def joint_survival(self, t_investor, t_counterparty):
        """P(tau_I > t_I, tau_C > t_C) under the survival copula."""
        return _scalar(np.exp(self.log_joint_survival(t_investor, t_counterparty)))

    def ftd_intensity(self, t, *, left: bool = False):
        """First-to-default intensities ``(FTD_I, FTD_C)`` at ``t``.

        ``left`` evaluates the piecewise-constant hazards one-sided at
        their node times (the copula factors are continuous either way).
        At or below the independence threshold every copula factor rounds
        to 1 (for ``H`` below ~1e6), so the intensities are the hazards.
        """
        curves = (self.investor.intensity, self.counterparty.intensity)
        lam = [c.value(t, left) for c in curves]
        h = [np.asarray(c.cumulative(t)) for c in curves]
        s = 1.0 + (np.expm1(self.theta * h[0]) + np.expm1(self.theta * h[1]))
        return tuple(_scalar(lam[n] * np.exp(self.theta * h[n]) / s) for n in (0, 1))

    def joint_survival_partial_tc(self, t_investor, t_counterparty):
        """Partial derivative of ``joint_survival`` in the counterparty
        time.  Non-positive; zero wherever ``lam_C`` is zero."""
        lam_c = self.counterparty.intensity.value(t_counterparty)
        h_c = self.counterparty.cumulative_hazard(t_counterparty)
        log_c = self.log_joint_survival(t_investor, t_counterparty)
        # dC/dv * dU_C/dt with dC/dv = C**(1+theta) * v**-(1+theta), v = exp(-h_c)
        return _scalar(-lam_c * np.exp((1.0 + self.theta) * log_c + self.theta * h_c))
