"""Independent reference computations used as test oracles.

Nothing here touches the engine's panel/quadrature machinery: flat-curve
scenarios integrate the adjustment interval by interval in closed form,
and the general case uses a dense trapezoid rule with a cumulative
inner integral.  Agreement between these routes and the engine is the
point of the tests, so keep them dumb and explicit.
"""

import math

import numpy as np


def flat_adjustment_u0(flows, maturity, r_x, alpha, r_bar, lam_bar, lam_c, rec_i, rec_c):
    """u(0) for flat curves, exactly.

    Between flow dates ``v_X(s) = exp(r_x s) * P`` with ``P`` the sum of
    the remaining flows discounted to time 0, so the source term is a
    single exponential per interval and integrates in closed form.
    """
    bounds = sorted({0.0, maturity, *[t for t, _ in flows if t < maturity]})
    u0 = 0.0
    for a, b in zip(bounds, bounds[1:]):
        p = sum(amt * math.exp(-r_x * t) for t, amt in flows if t >= b)
        c = (
            (1.0 - rec_i) * lam_bar * max(-p, 0.0)
            - (1.0 - rec_c) * lam_c * max(p, 0.0)
            - (r_bar - r_x) * p
        )
        k = r_x - alpha
        if abs(k) < 1e-14:
            u0 += c * (b - a)
        else:
            # expm1: the difference of two exponentials cancels when k is
            # small (k = -1e-9 lost 7e-9 of a 0.25 result)
            u0 += c * math.exp(k * a) * math.expm1(k * (b - a)) / k
    return u0


def dense_duhamel_u0(
    alpha_fn, beta_fn, flows, maturity, steps_per_interval=200_000, breakpoints=()
):
    """u(0) by brute force on a dense grid.

    ``beta_fn(s, remaining)`` receives the flows still outstanding for
    the interval being integrated, so the discontinuities at flow dates
    are honored without one-sided limits.  Trapezoid rule inside each
    interval and for the running integral of ``alpha``.

    Pass the coefficients' jump locations as ``breakpoints``.  Each gets
    a split at the jump and another a hair before it, so evaluating the
    right-continuous coefficients at interval endpoints misattributes
    only a vanishing sliver of the integral.
    """
    cuts = set()
    for b in breakpoints:
        cuts.add(b)
        cuts.add(b - 1e-9)
    bounds = sorted(
        {0.0, maturity, *[t for t, _ in flows if t < maturity]}
        | {c for c in cuts if 0.0 < c < maturity}
    )
    total = 0.0
    a_base = 0.0
    for a, b in zip(bounds, bounds[1:]):
        remaining = [(t, amt) for t, amt in flows if t >= b]
        s = np.linspace(a, b, steps_per_interval + 1)
        al = np.asarray(alpha_fn(s), dtype=float)
        be = np.asarray(beta_fn(s, remaining), dtype=float)
        ds = (b - a) / steps_per_interval
        inner = np.concatenate(([0.0], np.cumsum(0.5 * (al[1:] + al[:-1]) * ds)))
        g = be * np.exp(-(a_base + inner))
        total += np.trapezoid(g, dx=ds)
        a_base += inner[-1]
    return total


def piecewise_integral(curve, a, b):
    """Integral of a piecewise-constant curve over ``[a, b]``, segment by
    segment from its nodes (not through ``TermCurve.cumulative``)."""
    ends = list(curve.times[1:]) + [math.inf]
    total = 0.0
    for start, end, value in zip(curve.times, ends, curve.values):
        lo, hi = max(a, start), min(b, end)
        if hi > lo:
            total += value * (hi - lo)
    return total


def naive_collateral_value(flows, curve, t, left=False):
    """``v_X(t)`` flow by flow: every flow still owed at ``t`` (after
    ``t``, or at ``t`` too for the left limit) discounted back to ``t``."""
    total = 0.0
    for t_i, amt in flows:
        if t_i > t or (left and t_i == t):
            total += amt * math.exp(-piecewise_integral(curve, t, t_i))
    return total


def naive_inverse_survival(nodes, w):
    """Default time at survival level ``w`` for the intensity given as
    ``(time, value)`` nodes: the first time the cumulative hazard,
    accumulated segment by segment, reaches ``-log(w)``; ``inf`` if it
    never does.

    The level is taken with numpy's ``log``, as the package takes it, so
    a comparison tests the inversion rather than two logarithms.
    """
    if w == 0.0:
        return math.inf
    target = -float(np.log(w))
    ends = [t for t, _ in nodes[1:]] + [math.inf]
    acc = 0.0  # cumulative hazard at the start of the segment
    for (start, lam), end in zip(nodes, ends):
        if end == math.inf:  # the last value extends flat
            if lam > 0.0:
                return start + (target - acc) / lam
            return start if target <= acc else math.inf
        level = acc + lam * (end - start)
        if target <= level:
            return min(start + (target - acc) / lam, end) if lam > 0.0 else start
        acc = level
    raise AssertionError("unreachable: the last segment is unbounded")


def naive_locate(seg, tau):
    """``(j, dt, paid)`` of default times ``tau`` on an oracle segment
    table ``seg``: the segment ``j`` of the last grid point at or before
    each time (``len(seg.grid)`` past maturity, a survivor), the time
    ``dt`` into it, and the flows paid, without those dated ``tau``."""
    tau = np.asarray(tau, dtype=float)
    survived = tau > seg.maturity
    j = np.searchsorted(seg.grid, np.where(survived, 0.0, tau), side="right") - 1
    j[survived] = len(seg.grid)
    dt = np.where(survived, 0.0, tau - seg.grid[np.minimum(j, len(seg.grid) - 1)])
    paid = np.where(dt == 0.0, seg.paid_before[j], seg.paid_upto[j])
    return j, dt, paid


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def chunked_mean_m2(payoffs, chunk):
    """``(n, mean, M2)`` of ``payoffs``, folded chunk by chunk in order.

    Each chunk of ``chunk`` payoffs, in path order, takes ``np.var``'s two
    passes: its mean, then the sum of its squared deviations from it.  The
    running totals absorb each chunk by the update of Chan, Golub &
    LeVeque (1979).
    """
    totals = None
    for start in range(0, len(payoffs), chunk):
        x = np.asarray(payoffs[start : start + chunk], dtype=float)
        mean = float(np.mean(x))
        group = (len(x), mean, float(np.sum((x - mean) ** 2)))
        if totals is None:
            totals = group
            continue
        n_a, mean_a, m2_a = totals
        n_b, mean_b, m2_b = group
        total = n_a + n_b
        delta = mean_b - mean_a
        m2 = m2_a + m2_b + delta * delta * (n_a * n_b / total)
        totals = total, mean_a + delta * (n_b / total), m2
    return totals
