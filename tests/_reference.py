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
    """``(j, dt)`` of default times ``tau``, at most maturity, on an oracle
    segment table ``seg``: the segment ``j`` of the last grid point at or
    before each time, and the time ``dt`` into it."""
    tau = np.asarray(tau, dtype=float)
    j = np.searchsorted(seg.grid, tau, side="right") - 1
    return j, tau - seg.grid[j]


def pair_strata(prob, paths):
    """``(j, k, m)`` of every pair of a pair-stratified sample, in order:
    segment ``j`` of positive probability ``prob[j]`` holds ``m =
    max(1, round(paths * prob[j] / 2))`` pairs, ``k = 0, ..., m - 1``,
    and a segment of probability 0 none."""
    strata = []
    for j, p in enumerate(prob):
        if p > 0.0:
            m = max(1, round(paths * float(p) / 2))
            strata += [(j, k, m) for k in range(m)]
    return strata


def stratified_time(lam, span, k, m, u):
    """The time into a segment of hazard ``lam`` and length ``span`` of a
    draw ``u`` in sub-stratum ``k`` of ``m``: where the segment's
    conditional default law reaches ``(k + u) / m``, at most ``span``."""
    q = (k + u) / m
    return min(-math.log1p(q * math.expm1(-lam * span)) / lam, span)


def gathered_times(seg, paths, u):
    """``(j, dt)`` of the draws ``u``, from the first of a simulation of
    ``paths`` paths on the segment table ``seg``, by the per-draw map:
    each draw's segment ``j`` spelled out as an index array, and each
    constant of its segment gathered through it."""
    pairs = np.where(seg.prob > 0.0, np.maximum(np.rint(paths * seg.prob / 2), 1.0), 0.0)
    first = np.concatenate(([0], np.cumsum(pairs.astype(np.int64))))
    j = np.repeat(np.arange(len(pairs)), np.diff(np.minimum(2 * first, len(u))))
    k = (np.arange(len(u)) >> 1) - first[j]  # the pair's sub-stratum
    q = (k + u) / pairs[j] * seg.shrink[j]
    with np.errstate(divide="ignore"):
        dt = -(np.log1p(q) / seg.lam[j])
    return j, np.minimum(dt, seg.span[j])


def gathered_paid(seg, j, dt):
    """The flows paid by defaults ``dt`` into segments ``j``, gathered."""
    return np.where(dt == 0.0, seg.paid_before[j], seg.paid_upto[j])


def gathered_first_default_payoffs(seg, slope, log_scale, settle, j, dt):
    """First-default payoffs from the segment tables of the simulator,
    gathered per draw: the flows paid and ``settle exp(log_scale + slope
    dt)``."""
    return gathered_paid(seg, j, dt) + settle[j] * np.exp(slope[j] * dt + log_scale[j])


def gathered_dependent_payoffs(seg, cum, rate, k_c, theta, threshold, j, dt):
    """Dependent-default payoffs from the segment tables of the simulator,
    gathered per draw, with the Clayton term as one expression: the
    product law at ``theta <= threshold``."""
    h_r, h_i, h_c = (h[j] + lam[j] * dt for h, lam in zip(cum, rate))
    if theta <= threshold:
        log_c = -(h_i + h_c)
    else:
        log_c = -np.log1p(np.expm1(theta * h_i) + np.expm1(theta * h_c)) / theta
    x = seg.log_vx[j] + seg.rate_x[j] * dt + (-h_r + log_c + h_c)
    return gathered_paid(seg, j, dt) + k_c[j] * np.exp(x)


def pair_stratified_estimate(prob, survival, paid_all, paths, payoffs):
    """``(mean, std_error)`` of a pair-stratified sample, pair by pair.

    ``payoffs`` holds two payoffs per pair of :func:`pair_strata`, in its
    order.  Pair ``(x1, x2)`` of segment ``j`` with ``m`` pairs weighs ``w
    = prob[j] / m``; the survivors, of probability ``survival``, are paid
    ``paid_all``.  The mean is ``survival * paid_all + sum w (x1 + x2) /
    2`` and the variance ``sum w**2 (x1 - x2)**2 / 4``.
    """
    strata = pair_strata(prob, paths)
    assert len(payoffs) == 2 * len(strata)
    mean, variance = survival * paid_all, 0.0
    for s, (j, _, m) in enumerate(strata):
        w = float(prob[j]) / m
        x1, x2 = payoffs[2 * s], payoffs[2 * s + 1]
        mean += w * (x1 + x2) / 2
        variance += w * w * (x1 - x2) ** 2 / 4
    return mean, math.sqrt(variance)


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)
