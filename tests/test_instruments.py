import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valadj import (
    CashflowSchedule,
    CloseoutSpec,
    TermCurve,
    closeout_values,
    collateral_value,
)

from _reference import naive_collateral_value


class TestScheduleValidation:
    def test_needs_flows(self):
        with pytest.raises(ValueError):
            CashflowSchedule((), (), 1.0)
        with pytest.raises(ValueError):
            CashflowSchedule.from_flows([])

    def test_increasing_times(self):
        with pytest.raises(ValueError):
            CashflowSchedule.from_flows([(2.0, 1.0), (1.0, 1.0)])

    def test_flows_after_valuation_date(self):
        with pytest.raises(ValueError):
            CashflowSchedule.from_flows([(0.0, 1.0)])
        with pytest.raises(ValueError):
            CashflowSchedule.from_flows([(-1.0, 1.0)])

    def test_maturity_covers_flows(self):
        with pytest.raises(ValueError):
            CashflowSchedule.from_flows([(2.0, 1.0)], maturity=1.5)
        s = CashflowSchedule.from_flows([(2.0, 1.0)], maturity=3.0)
        assert s.maturity == 3.0

    def test_finite_amounts(self):
        with pytest.raises(ValueError):
            CashflowSchedule.from_flows([(1.0, math.inf)])

    def test_finite_times(self):
        # NaN compares false both ways, so ordering checks alone pass it
        with pytest.raises(ValueError, match="finite"):
            CashflowSchedule.from_flows([(1, 1.0), (math.nan, 2.0), (3, 5.0)])
        with pytest.raises(ValueError, match="finite"):
            CashflowSchedule.from_flows([(1.0, 1.0), (math.inf, 2.0)], maturity=3.0)


class TestCollateralValue:
    def test_zero_rate_sums_remaining_flows(self):
        s = CashflowSchedule.from_flows([(1.0, 2.0), (2.0, 3.0)])
        flat0 = TermCurve.flat(0.0)
        assert collateral_value(s, flat0, 0.0) == pytest.approx(5.0)
        assert collateral_value(s, flat0, 1.5) == pytest.approx(3.0)

    def test_single_flow_discount(self):
        s = CashflowSchedule.from_flows([(1.0, 1.0)])
        rx = TermCurve.flat(0.005)
        assert collateral_value(s, rx, 0.0) == pytest.approx(
            math.exp(-0.005), rel=1e-15
        )

    def test_ex_dividend_at_flow_date(self):
        s = CashflowSchedule.from_flows([(1.0, 2.0), (2.0, 3.0)])
        rx = TermCurve.flat(0.01)
        # the flow at t=1 is gone; only the t=2 flow remains
        assert collateral_value(s, rx, 1.0) == pytest.approx(
            3.0 * math.exp(-0.01), rel=1e-15
        )

    def test_zero_at_maturity(self):
        s = CashflowSchedule.from_flows([(1.0, 2.0)])
        assert collateral_value(s, TermCurve.flat(0.01), 1.0) == 0.0

    def test_time_bounds(self):
        s = CashflowSchedule.from_flows([(1.0, 1.0)])
        with pytest.raises(ValueError):
            collateral_value(s, TermCurve.flat(0.0), -0.1)
        with pytest.raises(ValueError):
            collateral_value(s, TermCurve.flat(0.0), 1.5)

    def test_vectorized_matches_scalar(self):
        s = CashflowSchedule.from_flows([(1.0, 2.0), (3.0, -1.5)])
        rx = TermCurve.from_nodes([(0.0, 0.005), (2.0, 0.02)])
        ts = np.linspace(0.0, 3.0, 41)
        out = collateral_value(s, rx, ts)
        np.testing.assert_allclose(
            out, [collateral_value(s, rx, t) for t in ts], rtol=0, atol=0
        )

    def test_growth_ode_between_flows(self):
        # dv_X/dt = r_X v_X away from payment dates
        s = CashflowSchedule.from_flows([(2.5, 1.0), (5.0, -1.0)])
        rx = TermCurve.flat(0.005)
        h = 1e-5
        for t in (0.7, 2.0, 3.3, 4.6):
            fd = (
                collateral_value(s, rx, t + h) - collateral_value(s, rx, t - h)
            ) / (2 * h)
            assert fd == pytest.approx(
                0.005 * collateral_value(s, rx, t), abs=1e-8
            )

    def test_left_limit_adds_flow_amount(self):
        # with r_X = 0 and dyadic amounts every step is exact
        s = CashflowSchedule.from_flows([(1.0, 2.5), (2.0, -1.0)])
        flat0 = TermCurve.flat(0.0)
        for t, amount in ((1.0, 2.5), (2.0, -1.0), (0.0, 0.0), (1.5, 0.0)):
            gap = collateral_value(s, flat0, t, left=True) - collateral_value(s, flat0, t)
            assert gap == amount
        rx = TermCurve.from_nodes([(0.0, 0.005), (1.5, 0.03)])
        ts = np.array([0.0, 0.4, 1.0, 1.5, 1.9, 2.0])
        gap = collateral_value(s, rx, ts, left=True) - collateral_value(s, rx, ts)
        np.testing.assert_allclose(gap, [0.0, 0.0, 2.5, 0.0, 0.0, -1.0], rtol=0, atol=1e-15)
        assert gap[[0, 1, 3, 4]].tolist() == [0.0] * 4

    def test_no_overflow_far_from_valuation_date(self):
        # exp(int_0^t r_X) alone would overflow here (e^990)
        s = CashflowSchedule.from_flows([(1000.0, 3.0)])
        rx = TermCurve.flat(1.0)
        ts = np.array([0.0, 500.0, 990.0, 999.5, 1000.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            left = collateral_value(s, rx, ts, left=True)
            right = collateral_value(s, rx, ts)
        expected = 3.0 * np.exp(-(1000.0 - ts))
        np.testing.assert_allclose(left, expected, rtol=1e-15, atol=0)
        np.testing.assert_allclose(right[:-1], expected[:-1], rtol=1e-15, atol=0)
        assert right[-1] == 0.0
        assert collateral_value(s, rx, 990.0) == pytest.approx(3.0 * math.exp(-10.0), rel=1e-15)

    def test_jump_equals_amount(self):
        s = CashflowSchedule.from_flows([(2.5, 1.0), (5.0, -1.0)])
        rx = TermCurve.flat(0.005)
        eps = 1e-12
        before = collateral_value(s, rx, 2.5 - eps)
        after = collateral_value(s, rx, 2.5)
        assert before - after == pytest.approx(1.0, abs=1e-9)


class TestCloseout:
    def test_recovery_range(self):
        with pytest.raises(ValueError):
            CloseoutSpec(-0.1, 0.4)
        with pytest.raises(ValueError):
            CloseoutSpec(0.4, 1.1)

    @pytest.mark.parametrize("recovery", [True, 1, np.float32(1.0)], ids=["bool", "int", "float32"])
    def test_recoveries_stored_as_floats(self, recovery):
        spec = CloseoutSpec(recovery, 0)
        assert (spec.recovery_investor, spec.recovery_counterparty) == (1.0, 0.0)
        assert type(spec.recovery_investor) is float
        assert type(spec.recovery_counterparty) is float

    def test_positive_mark(self):
        k_i, k_c = closeout_values(CloseoutSpec(0.4, 0.4), 1.0)
        assert k_i == 1.0
        assert k_c == 0.4

    def test_negative_mark(self):
        k_i, k_c = closeout_values(CloseoutSpec(0.4, 0.4), -1.0)
        assert k_i == pytest.approx(-0.4)
        assert k_c == -1.0

    def test_full_recovery_is_neutral(self):
        for vx in (-2.0, -0.3, 0.0, 1.7):
            k_i, k_c = closeout_values(CloseoutSpec(1.0, 1.0), vx)
            assert k_i == pytest.approx(vx)
            assert k_c == pytest.approx(vx)

    def test_vectorized(self):
        vx = np.array([-1.0, 0.0, 2.0])
        k_i, k_c = closeout_values(CloseoutSpec(0.4, 0.6), vx)
        np.testing.assert_allclose(k_i, [-0.4, 0.0, 2.0])
        np.testing.assert_allclose(k_c, [-1.0, 0.0, 1.2])


@given(
    vx=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    rec_i=st.floats(min_value=0.0, max_value=1.0),
    rec_c=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_closeout_decomposition(vx, rec_i, rec_c):
    spec = CloseoutSpec(rec_i, rec_c)
    k_i, k_c = closeout_values(spec, vx)
    assert k_i >= vx - 1e-12
    assert k_c <= vx + 1e-12
    # gap drivers: what the defaulting party withholds
    assert k_i - vx == pytest.approx((1.0 - rec_i) * max(-vx, 0.0), abs=1e-12)
    assert vx - k_c == pytest.approx((1.0 - rec_c) * max(vx, 0.0), abs=1e-12)


@st.composite
def schedules_and_curves(draw):
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=12))
    times = np.cumsum(gaps).tolist()
    amounts = draw(
        st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=len(times), max_size=len(times))
    )
    maturity = times[-1] + draw(st.sampled_from([0.0, 0.5, 3.0]))
    node_gaps = draw(st.lists(st.floats(0.1, 10.0), min_size=0, max_size=6))
    on_flows = draw(st.lists(st.sampled_from(times), max_size=3))
    nodes = sorted({0.0, *np.cumsum(node_gaps).tolist(), *on_flows})
    rates = draw(
        st.lists(st.floats(-0.05, 0.3, allow_nan=False), min_size=len(nodes), max_size=len(nodes))
    )
    schedule = CashflowSchedule(tuple(times), tuple(amounts), maturity)
    return schedule, TermCurve(tuple(nodes), tuple(rates))


@given(data=schedules_and_curves(), extra=st.lists(st.floats(0.0, 1.0), max_size=5))
@settings(max_examples=200, deadline=None)
def test_collateral_value_matches_naive_reference(data, extra):
    schedule, rx = data
    flows = list(zip(schedule.times, schedule.amounts))
    maturity = schedule.maturity
    ts = sorted(
        {0.0, maturity, *schedule.times}
        | {t for t in rx.times if t <= maturity}
        | {x * maturity for x in extra}
    )
    scale = sum(abs(a) for a in schedule.amounts) * math.exp(0.05 * maturity)
    for left in (False, True):
        vec = collateral_value(schedule, rx, np.array(ts), left=left)
        for t, got in zip(ts, vec):
            want = naive_collateral_value(flows, rx, t, left=left)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13 * scale)
            assert collateral_value(schedule, rx, t, left=left) == got
