"""Constant-metric geometry: distances and measurement-set projection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccm.geom import MeasurementProjector, MetricError, RankDeficientError, distance

vec2 = st.tuples(st.floats(-5, 5), st.floats(-5, 5)).map(np.array)


def spd_metrics():
    return st.tuples(
        st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(-0.9, 0.9)
    ).map(lambda t: np.array([[t[0], t[2] * np.sqrt(t[0] * t[1])], [t[2] * np.sqrt(t[0] * t[1]), t[1]]]))


def test_distance_zero_at_coincident_points():
    M = np.diag([2.0, 3.0])
    x = np.array([1.0, -2.0])
    assert distance(x, x, M) == 0.0


def test_distance_euclidean_345():
    assert distance([0, 0], [3, 4], np.eye(2)) == pytest.approx(5.0)


def test_distance_weighted():
    assert distance([0, 0], [1, 1], np.diag([4.0, 1.0])) == pytest.approx(np.sqrt(5.0))


def test_distance_rejects_non_pd():
    with pytest.raises(MetricError):
        distance([0, 0], [1, 1], np.diag([1.0, -1.0]))
    with pytest.raises(MetricError):
        distance([0, 0], [1, 1], np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(vec2, vec2, vec2, spd_metrics())
def test_distance_metric_axioms(a, b, c, M):
    dab = distance(a, b, M)
    assert dab == pytest.approx(distance(b, a, M), rel=1e-12, abs=1e-12)
    assert distance(a, c, M) <= dab + distance(b, c, M) + 1e-9
    if not np.allclose(a, b):
        assert dab > 0


def test_geodesic_segment_length_and_points():
    # under a constant metric the geodesic is the straight segment, so its
    # midpoint lies at half the length from either end
    start, end = np.zeros(2), np.array([3.0, 4.0])
    assert distance(start, end, np.eye(2)) == pytest.approx(5.0)
    mid = start + 0.5 * (end - start)
    np.testing.assert_allclose(mid, [1.5, 2.0])
    assert distance(start, mid, np.eye(2)) == pytest.approx(2.5)
    assert distance(mid, end, np.eye(2)) == pytest.approx(2.5)


# -- projection -----------------------------------------------------------------


def test_projection_coordinate_case():
    xbar = MeasurementProjector(np.array([[0.0, 1.0]]), np.eye(2)).project([3.0, 5.0], [2.0])
    np.testing.assert_allclose(xbar, [3.0, 2.0], atol=1e-12)


def test_projection_fixed_point_when_consistent():
    C = np.array([[1.0, -1.0]])
    x_hat = np.array([2.0, 1.5])
    y = C @ x_hat
    xbar = MeasurementProjector(C, np.diag([1.0, 3.0])).project(x_hat, y)
    np.testing.assert_allclose(xbar, x_hat, atol=1e-12)


def test_projection_weighted_closed_form():
    # min x'Wx s.t. x1 + x2 = 1 with W = diag(1,4): solution (0.8, 0.2),
    # frozen from a brute-force scan along the constraint line
    W = np.diag([1.0, 4.0])
    C = np.array([[1.0, 1.0]])
    xbar = MeasurementProjector(C, W).project([0.0, 0.0], [1.0])
    ts = np.linspace(-2, 3, 5001)
    cost = ts**2 * 1.0 + (1 - ts) ** 2 * 4.0
    t_best = ts[np.argmin(cost)]
    np.testing.assert_allclose(xbar, [t_best, 1 - t_best], atol=1e-3)
    np.testing.assert_allclose(xbar, [0.8, 0.2], atol=1e-10)
    assert float((C @ xbar)[0]) == pytest.approx(1.0, abs=1e-10)


def test_projection_rank_deficient_reported():
    C = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(RankDeficientError):
        MeasurementProjector(C, np.eye(2)).project([0.0, 0.0], [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(vec2, spd_metrics(), st.floats(-3, 3))
def test_projection_idempotent_and_stationary(x_hat, W, yval):
    C = np.array([[0.5, -1.2]])
    y = np.array([yval])
    proj = MeasurementProjector(C, W)
    xbar = proj.project(x_hat, y)
    assert float((C @ xbar)[0]) == pytest.approx(yval, abs=1e-9)
    again = proj.project(xbar, y)
    np.testing.assert_allclose(again, xbar, atol=1e-9)
    # KKT stationarity: W(xbar - x_hat) lies in range(C')
    resid = W @ (xbar - x_hat)
    coeff = float((C @ resid)[0]) / float((C @ C.T)[0, 0])
    np.testing.assert_allclose(resid, coeff * C.ravel(), atol=1e-9)


def test_projection_minimizes_distance_among_consistent_points():
    rng = np.random.default_rng(3)
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    C = np.array([[1.0, 2.0]])
    y = np.array([0.7])
    x_hat = np.array([1.3, -0.4])
    xbar = MeasurementProjector(C, W).project(x_hat, y)
    d_star = distance(x_hat, xbar, W)
    # 1000 random points on the constraint line
    t = rng.uniform(-10, 10, size=1000)
    zs = np.stack([t, (0.7 - t) / 2.0], axis=1)
    for z in zs:
        assert d_star <= distance(x_hat, z, W) + 1e-9
