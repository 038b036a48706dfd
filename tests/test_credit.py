import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valadj import CreditCurve, JointDefaultModel, TermCurve, clayton_survival_copula

from _reference import naive_inverse_survival

# frozen finite-difference oracle: theta=1, flat lam_I=lam_C=0.02, t=5
FTD_THETA1_T5 = 0.018262128682421233


def flat_model(theta, lam_i=0.02, lam_c=0.02):
    return JointDefaultModel(
        CreditCurve("I", TermCurve.flat(lam_i)),
        CreditCurve("C", TermCurve.flat(lam_c)),
        theta,
    )


class TestCreditCurve:
    def test_survival_flat(self):
        c = CreditCurve("I", TermCurve.flat(0.02))
        assert c.survival(0.0) == 1.0
        assert float(c.survival(5.0)) == pytest.approx(math.exp(-0.1), rel=1e-15)

    def test_zero_intensity_never_defaults(self):
        c = CreditCurve("I", TermCurve.flat(0.0))
        assert float(c.survival(50.0)) == 1.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            CreditCurve("I", TermCurve.flat(-0.01))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CreditCurve("I", TermCurve.flat(0.02)).survival(-1.0)


class TestInverseSurvival:
    def test_round_trip_flat(self):
        c = CreditCurve("I", TermCurve.flat(0.02))
        for w in (0.999, 0.9, 0.5, 0.01):
            t = c.inverse_survival(w)
            assert float(c.survival(t)) == pytest.approx(w, rel=1e-12)

    def test_round_trip_piecewise(self):
        c = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.05), (1.0, 0.0), (2.0, 0.01)]))
        for w in (0.97, 0.951229424500714, 0.9, 0.2):
            t = c.inverse_survival(w)
            assert float(c.survival(t)) == pytest.approx(w, rel=1e-12)

    def test_flat_span_maps_to_its_left_edge(self):
        c = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.05), (1.0, 0.0), (2.0, 0.01)]))
        # survival is constant on [1, 2]; the boundary level inverts to t = 1
        w = float(c.survival(1.5))
        assert c.inverse_survival(w) == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_level_is_inf(self):
        c = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.05), (1.0, 0.0)]))
        assert c.inverse_survival(0.5) == math.inf
        assert c.inverse_survival(0.0) == math.inf

    def test_boundary_levels(self):
        c = CreditCurve("I", TermCurve.flat(0.02))
        assert c.inverse_survival(1.0) == 0.0
        assert c.inverse_survival(0.0) == math.inf

    def test_out_of_range_rejected(self):
        c = CreditCurve("I", TermCurve.flat(0.02))
        with pytest.raises(ValueError):
            c.inverse_survival(1.5)
        with pytest.raises(ValueError):
            c.inverse_survival(-0.1)

    @pytest.mark.parametrize("bad", [1.5, 1.0 + 2**-52, -0.1, -5e-324])
    @pytest.mark.parametrize("nodes", [[(0.0, 0.02)], [(0.0, 0.05), (1.0, 0.0), (2.0, 0.01)]])
    def test_one_level_out_of_range_rejects_the_array(self, nodes, bad):
        c = CreditCurve("I", TermCurve.from_nodes(nodes))
        w = np.linspace(0.0, 1.0, 9)
        w[4] = bad
        with pytest.raises(ValueError):
            c.inverse_survival(w)

    @pytest.mark.parametrize(
        "nodes",
        [[(0.0, 0.02)], [(0.0, 0.05), (1.0, 0.0), (2.0, 0.01)], [(0.0, 0.05), (1.0, 0.0)]],
        ids=["flat", "piecewise", "zero_tail"],
    )
    def test_nan_level_rejected(self, nodes):
        # a NaN level has no default time; it used to map to NaN, or to
        # inf under a zero tail.  The array is long enough for the bucket
        # lookup of a piecewise curve.
        c = CreditCurve("I", TermCurve.from_nodes(nodes))
        w = np.linspace(0.0, 1.0, 4096)
        c.inverse_survival(w)
        w[1234] = math.nan
        for levels in (math.nan, np.array(math.nan), w):
            with pytest.raises(ValueError):
                c.inverse_survival(levels)

    def test_vectorized_matches_scalar(self):
        c = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.03), (2.0, 0.01)]))
        ws = np.linspace(0.01, 0.99, 23)
        out = c.inverse_survival(ws)
        np.testing.assert_allclose(out, [c.inverse_survival(w) for w in ws], rtol=0)


class TestCopula:
    def test_frozen_value(self):
        assert clayton_survival_copula(0.9, 0.9, 1.0) == pytest.approx(
            0.9 / 1.1, rel=1e-14
        )

    def test_independence(self):
        assert clayton_survival_copula(0.8, 0.7, 0.0) == pytest.approx(0.56, rel=1e-15)

    def test_uniform_marginals(self):
        for theta in (0.0, 0.5, 2.0):
            assert clayton_survival_copula(0.73, 1.0, theta) == pytest.approx(
                0.73, rel=1e-12
            )
            assert clayton_survival_copula(1.0, 0.31, theta) == pytest.approx(
                0.31, rel=1e-12
            )

    def test_zero_argument(self):
        assert clayton_survival_copula(0.0, 0.5, 1.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            clayton_survival_copula(1.2, 0.5, 1.0)
        with pytest.raises(ValueError):
            clayton_survival_copula(0.5, 0.5, -0.5)

    def test_monotone_in_theta(self):
        vals = [clayton_survival_copula(0.9, 0.9, th) for th in (0.0, 0.5, 1.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_theta_is_near_independence(self):
        gap = abs(
            clayton_survival_copula(0.9, 0.8, 1e-8)
            - clayton_survival_copula(0.9, 0.8, 0.0)
        )
        assert gap <= 1e-6


class TestJointModel:
    def test_theta_validation(self):
        with pytest.raises(ValueError):
            flat_model(-0.1)
        with pytest.raises(ValueError):
            flat_model(math.nan)

    def test_distinct_names_required(self):
        c = CreditCurve("X", TermCurve.flat(0.02))
        with pytest.raises(ValueError):
            JointDefaultModel(c, c, 1.0)

    def test_marginal_consistency(self):
        model = flat_model(1.0, lam_i=0.02, lam_c=0.03)
        for t in np.linspace(0.0, 10.0, 101):
            u_i = float(model.investor.survival(t))
            u_c = float(model.counterparty.survival(t))
            assert model.joint_survival(t, 0.0) == pytest.approx(u_i, abs=1e-12)
            assert model.joint_survival(0.0, t) == pytest.approx(u_c, abs=1e-12)

    def test_independence_factorizes(self):
        model = flat_model(0.0, lam_i=0.02, lam_c=0.03)
        js = model.joint_survival(3.0, 7.0)
        assert js == pytest.approx(math.exp(-0.06) * math.exp(-0.21), rel=1e-14)

    def test_monotone_dependence(self):
        vals = [flat_model(th).joint_survival(5.0, 5.0) for th in (0.0, 0.5, 1.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_theta_close_to_independence(self):
        gap = abs(
            flat_model(1e-8).joint_survival(5.0, 5.0)
            - flat_model(0.0).joint_survival(5.0, 5.0)
        )
        assert gap <= 1e-6


class TestFtdIntensity:
    def test_independence_reduces_to_hazard(self):
        model = flat_model(0.0, lam_i=0.02, lam_c=0.03)
        assert model.ftd_intensity("I", 4.0) == pytest.approx(0.02, rel=1e-14)
        assert model.ftd_intensity("C", 4.0) == pytest.approx(0.03, rel=1e-14)

    def test_frozen_value(self):
        model = flat_model(1.0)
        assert model.ftd_intensity("I", 5.0) == pytest.approx(FTD_THETA1_T5, rel=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            flat_model(1.0).ftd_intensity("Z", 1.0)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_finite_difference_oracle(self, theta, t):
        # FTD_I(t) = -d/dt_I log U(t_I, t_C) at t_I = t_C = t
        model = flat_model(theta, lam_i=0.02, lam_c=0.03)
        h = 1e-5
        fd = -(
            model.log_joint_survival(t + h, t) - model.log_joint_survival(t - h, t)
        ) / (2 * h)
        assert model.ftd_intensity("I", t) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 3.0])
    def test_sum_is_diagonal_log_derivative(self, theta):
        model = flat_model(theta, lam_i=0.02, lam_c=0.03)
        t, h = 3.0, 1e-5
        fd = -(
            model.log_joint_survival(t + h, t + h)
            - model.log_joint_survival(t - h, t - h)
        ) / (2 * h)
        total = model.ftd_intensity("I", t) + model.ftd_intensity("C", t)
        assert total == pytest.approx(fd, abs=1e-6)

    def test_left_limit_at_hazard_node(self):
        inv = CreditCurve("I", TermCurve.from_nodes([(0.0, 0.02), (1.0, 0.05)]))
        cpty = CreditCurve("C", TermCurve.flat(0.03))
        model = JointDefaultModel(inv, cpty, 1.0)
        right = model.ftd_intensity("I", 1.0)
        left = model.ftd_intensity("I", 1.0, left=True)
        # same copula factor, different hazard on each side of the node
        assert right / left == pytest.approx(0.05 / 0.02, rel=1e-12)


class TestPartialSurvival:
    def test_independence_factorizes(self):
        model = flat_model(0.0, lam_i=0.02, lam_c=0.03)
        val = model.joint_survival_partial_tc(3.0, 5.0)
        expect = -0.03 * math.exp(-0.06) * math.exp(-0.15)
        assert val == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 3.0])
    def test_finite_difference_oracle(self, theta):
        model = flat_model(theta, lam_i=0.02, lam_c=0.03)
        t_i, t_c, h = 3.0, 5.0, 1e-5
        fd = (
            model.joint_survival(t_i, t_c + h) - model.joint_survival(t_i, t_c - h)
        ) / (2 * h)
        assert model.joint_survival_partial_tc(t_i, t_c) == pytest.approx(fd, abs=1e-8)

    def test_zero_hazard_gives_zero(self):
        model = flat_model(1.0, lam_i=0.02, lam_c=0.0)
        assert model.joint_survival_partial_tc(3.0, 5.0) == 0.0

    def test_non_positive(self):
        model = flat_model(2.0)
        ts = np.linspace(0.0, 8.0, 30)
        assert np.all(np.asarray(model.joint_survival_partial_tc(4.0, ts)) <= 0.0)


@given(
    u=st.floats(min_value=0.01, max_value=1.0),
    v=st.floats(min_value=0.01, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=200, deadline=None)
def test_copula_bounds_and_marginals(u, v, theta):
    c = clayton_survival_copula(u, v, theta)
    assert 0.0 <= c <= min(u, v) + 1e-15
    assert clayton_survival_copula(u, 1.0, theta) == pytest.approx(u, rel=1e-10)


@st.composite
def intensity_nodes(draw):
    """Flat and piecewise intensities, with zero-intensity segments and
    zero tails."""
    n = draw(st.integers(min_value=1, max_value=5))
    extra = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
            unique=True,
        )
    )
    values = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=3.0)),
            min_size=n,
            max_size=n,
        )
    )
    return list(zip((0.0, *sorted(extra)), values))


def node_levels(curve):
    """Survival levels whose ``-log`` lands exactly on a node's cumulative
    hazard, where one exists among the neighbours of ``exp(-H)``."""
    found = []
    for h in curve.intensity._cum:
        w = float(np.exp(-h))
        for _ in range(4):
            if -float(np.log(w)) == h:
                found.append(w)
                break
            w = float(np.nextafter(w, 0.0 if -float(np.log(w)) < h else 1.0))
    return found


@given(
    nodes=intensity_nodes(),
    draws=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_inverse_survival_matches_naive_walk(nodes, draws):
    curve = CreditCurve("I", TermCurve.from_nodes(nodes))
    w = np.array([0.0, 1.0, *draws, *node_levels(curve)])
    got = curve.inverse_survival(w)
    expected = np.array([naive_inverse_survival(nodes, x) for x in w])
    if len(nodes) == 1:
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_array_max_ulp(got, expected, maxulp=2)
    # a scalar level takes the same route as an array of them
    assert [curve.inverse_survival(float(x)) for x in w[:3]] == list(got[:3])


def test_levels_on_node_hazards():
    # survival levels whose -log is exactly the cumulative hazard at a
    # node, with a zero-intensity span and a zero tail: each inverts to
    # the left edge of the level's span
    h = [-float(np.log(w)) for w in (0.8, 0.5, 0.3)]
    nodes = [(0.0, h[0]), (1.0, 0.0), (2.0, h[1] - h[0]), (3.0, h[2] - h[1]), (4.0, 0.0)]
    curve = CreditCurve("I", TermCurve.from_nodes(nodes))
    assert list(curve.intensity._cum) == [0.0, h[0], h[0], h[1], h[2]]
    assert node_levels(curve) == [1.0, 0.8, 0.8, 0.5, 0.3]
    for w, t in [(1.0, 0.0), (0.8, 1.0), (0.5, 3.0), (0.3, 4.0), (0.2999, math.inf)]:
        assert curve.inverse_survival(w) == naive_inverse_survival(nodes, w) == t
