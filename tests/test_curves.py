import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valadj import TermCurve, as_curve, combined
from valadj.curves import _BUCKET_MIN_KEYS, _Locator


def evaluate(curve, method, t):
    """``curve.method(t)``; ``value_left`` is the left limit ``value(t, left=True)``."""
    if method == "value_left":
        return curve.value(t, left=True)
    return getattr(curve, method)(t)


class TestValidation:
    def test_first_node_must_be_zero(self):
        with pytest.raises(ValueError):
            TermCurve((0.5,), (0.01,))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            TermCurve((0.0, 1.0, 1.0), (0.01, 0.02, 0.03))
        with pytest.raises(ValueError):
            TermCurve((0.0, 2.0, 1.0), (0.01, 0.02, 0.03))

    def test_finite_nodes(self):
        with pytest.raises(ValueError):
            TermCurve((0.0,), (math.nan,))
        with pytest.raises(ValueError):
            TermCurve((0.0, math.inf), (0.01, 0.02))

    def test_node_integral_must_be_finite(self):
        # 2**1023 over two years is 2**1024: the integral at the second
        # node overflows, and the curve is rejected naming that node
        with np.errstate(over="raise"):
            with pytest.raises(ValueError, match=r"integral overflows a double at t = 2\.0"):
                TermCurve((0.0, 2.0, 3.0), (2.0**1023, 0.0, 1.0))
        # the largest finite integral is accepted
        assert TermCurve((0.0, 1.0), (2.0**1023, 0.0))._cum[-1] == 2.0**1023

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TermCurve((0.0, 1.0), (0.01,))
        with pytest.raises(ValueError):
            TermCurve((), ())


class TestEvaluation:
    def test_right_continuity_at_node(self):
        c = TermCurve.from_nodes([(0.0, 0.01), (0.5, 0.03)])
        assert c.value(0.5) == 0.03
        assert c.value(0.5, left=True) == 0.01
        assert c.value(0.49) == 0.01
        assert c.value(0.0, left=True) == 0.01

    def test_flat_extrapolation(self):
        c = TermCurve.from_nodes([(0.0, 0.01), (2.0, 0.04)])
        assert c.value(100.0) == 0.04

    def test_negative_time_rejected(self):
        c = TermCurve.flat(0.02)
        with pytest.raises(ValueError):
            c.value(-0.1)
        with pytest.raises(ValueError):
            c.cumulative(-1.0)
        with pytest.raises(ValueError):
            c.integrated_rate(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
    @pytest.mark.parametrize("method", ["value", "value_left", "cumulative"])
    @pytest.mark.parametrize(
        "curve",
        [TermCurve.flat(0.02), TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.03), (4.0, 0.0)])],
        ids=["one_node", "multi_node"],
    )
    def test_bad_time_inside_array_rejected(self, curve, method, bad):
        ts = np.linspace(0.0, 6.0, 13)
        evaluate(curve, method, ts)
        ts[7] = bad
        with pytest.raises(ValueError):
            evaluate(curve, method, ts)

    @pytest.mark.parametrize("rate", [0.02, 0.0, -0.015])
    def test_one_node_curve_matches_general_formula(self, rate):
        # below its second node, a two-node curve with equal values runs
        # the searched formula on the same segment constants
        flat = TermCurve.flat(rate)
        general = TermCurve.from_nodes([(0.0, rate), (50.0, rate)])
        ts = np.concatenate(([0.0, 1e-300, 2.5], np.linspace(0.0, 49.0, 41)))
        for method in ("value", "value_left", "cumulative"):
            got, expected = evaluate(flat, method, ts), evaluate(general, method, ts)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
            assert evaluate(flat, method, 0.0) == evaluate(general, method, 0.0)
            assert math.copysign(1.0, flat.cumulative(0.0)) == 1.0

    def test_vectorized_matches_scalar(self):
        c = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.03), (4.0, 0.0)])
        ts = np.linspace(0.0, 6.0, 37)
        np.testing.assert_array_equal(c.value(ts), [c.value(t) for t in ts])
        np.testing.assert_allclose(
            c.cumulative(ts), [c.cumulative(t) for t in ts], rtol=0, atol=0
        )


class TestIntegration:
    def test_two_segment_integral(self):
        c = TermCurve.from_nodes([(0.0, 0.01), (0.5, 0.03)])
        assert c.integrated_rate(0.0, 1.0) == pytest.approx(0.02, rel=1e-15)

    def test_zero_length(self):
        assert TermCurve.flat(0.07).integrated_rate(3.0, 3.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            TermCurve.flat(0.01).integrated_rate(2.0, 1.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            TermCurve.flat(0.01).integrated_rate(0.0, math.inf)

    def test_discount_factor(self):
        c = TermCurve.flat(0.02)
        assert c.discount_factor(0.0, 0.0) == 1.0
        assert c.discount_factor(0.0, 1.0) == pytest.approx(math.exp(-0.02), rel=1e-15)

    def test_discount_semigroup(self):
        c = TermCurve.from_nodes([(0.0, 0.01), (0.7, 0.05), (2.0, -0.01)])
        lhs = c.discount_factor(0.0, 3.0)
        rhs = c.discount_factor(0.0, 1.1) * c.discount_factor(1.1, 3.0)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_node_bump_moves_integral_linearly(self):
        base = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.02)])
        bumped = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.02 + 1e-4)])
        # the bumped segment covers [1, 3] of the integration window
        gap = bumped.integrated_rate(0.0, 3.0) - base.integrated_rate(0.0, 3.0)
        assert gap == pytest.approx(2e-4, rel=1e-12)


class TestAlgebra:
    def test_add_on_union_grid(self):
        a = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.02)])
        b = TermCurve.from_nodes([(0.0, 0.005), (0.5, 0.015)])
        c = combined((a, b), np.add)
        assert c.times == (0.0, 0.5, 1.0)
        assert c.value(0.25) == 0.015
        assert c.value(0.75) == 0.025
        assert c.value(2.0) == 0.035

    def test_sub_and_scale(self):
        a = TermCurve.flat(0.03)
        b = TermCurve.flat(0.01)
        assert combined((a, b), np.subtract).value(1.0) == pytest.approx(0.02)

    def test_combined_general(self):
        a = TermCurve.flat(0.04)
        b = TermCurve.from_nodes([(0.0, 1.0), (2.0, 3.0)])
        c = combined((a, b), lambda x, y: x * y)
        assert c.value(1.0) == pytest.approx(0.04)
        assert c.value(2.0) == pytest.approx(0.12)

    def test_combined_evaluates_each_curve_once(self):
        a = TermCurve.from_nodes([(0.0, 0.01), (1.0, 0.02), (3.0, 0.03)])
        b = TermCurve.from_nodes([(0.0, 0.5), (2.0, 0.25)])
        args = []

        def fn(x, y):
            args.append((x, y))
            return x - 2.0 * y

        c = combined((a, b), fn)
        assert len(args) == 1
        x, y = args[0]
        assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
        assert c.times == (0.0, 1.0, 2.0, 3.0)
        assert c.values == tuple(a.value(t) - 2.0 * b.value(t) for t in c.times)

    def test_as_curve(self):
        assert as_curve(0.02).values == (0.02,)
        c = TermCurve.flat(0.01)
        assert as_curve(c) is c


@st.composite
def term_curves(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    extra = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
            unique=True,
        )
    )
    times = (0.0, *sorted(extra))
    values = tuple(
        draw(
            st.lists(
                st.floats(min_value=-0.05, max_value=0.3, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    return TermCurve(times, values)


@given(
    curve=term_curves(),
    t0=st.floats(min_value=0.0, max_value=12.0),
    dt1=st.floats(min_value=0.0, max_value=6.0),
    dt2=st.floats(min_value=0.0, max_value=6.0),
)
@settings(max_examples=200, deadline=None)
def test_integral_additivity(curve, t0, dt1, dt2):
    t1, t2 = t0 + dt1, t0 + dt1 + dt2
    split = curve.integrated_rate(t0, t1) + curve.integrated_rate(t1, t2)
    whole = curve.integrated_rate(t0, t2)
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-14)


@given(curve=term_curves(), t=st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=100, deadline=None)
def test_value_is_left_value_off_nodes(curve, t):
    if t not in curve.times:
        assert curve.value(t) == curve.value(t, left=True)


class TestLocator:
    """``_Locator`` returns ``np.searchsorted``'s indices on both sides,
    through its bucket table or, for short key arrays and crowded knots,
    the binary search itself."""

    def test_paths(self):
        assert _Locator(np.arange(121) * 0.25)._table is not None
        # zero span: one bucket holding every knot
        assert _Locator([3.0])._table is not None
        assert _Locator([2.0, 2.0, 2.0])._table is not None
        # a month of daily flows, then one at 30y: 31 knots share a bucket
        assert _Locator(np.append(np.arange(1, 32) / 365.0, 30.0))._table is None
        # the span or the bucket scale is not finite
        assert _Locator([-1e308, 1e308])._table is None
        assert _Locator([0.0, 5e-324])._table is None


@st.composite
def knot_arrays(draw):
    """Sorted finite knots: one or many, with repeats (the cumulative
    hazard stays level over a zero-intensity segment), sometimes with a
    tight cluster that crowds one bucket."""
    bound = draw(st.sampled_from([1e3, 1e300]))
    values = draw(
        st.lists(st.floats(min_value=-bound, max_value=bound), min_size=1, max_size=40)
    )
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
    knots = np.repeat(values, repeats)
    if draw(st.booleans()):
        start = draw(st.sampled_from(list(knots)))
        knots = np.append(knots, start + np.arange(1, draw(st.integers(2, 12))) * 1e-9)
    return np.sort(knots)


def _ulp_neighbours(values):
    """Each value and the doubles one ulp below and above it."""
    return np.concatenate((values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)))


@given(knots=knot_arrays(), extra=st.lists(st.floats(allow_nan=False), max_size=20))
@settings(max_examples=300, deadline=None)
def test_locator_matches_searchsorted(knots, extra):
    loc = _Locator(knots)
    keys = np.concatenate((_ulp_neighbours(knots), [0.0, -0.0, math.inf, -math.inf], extra))
    # repeated keys, enough of them for the bucket table
    long_keys = np.resize(keys, _BUCKET_MIN_KEYS + len(keys))
    for x in (long_keys, keys, np.array(keys[0])):
        for side in ("left", "right"):
            np.testing.assert_array_equal(
                loc(x, side), np.searchsorted(knots, x, side=side), strict=True
            )
