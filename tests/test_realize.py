"""Control/observer law realization: closed forms vs quadrature, ISS bounds."""

import numpy as np
import pytest

from ccm.geom import MeasurementProjector
from ccm.poly import Polynomial
from ccm.realize import (
    ControlLaw,
    ISS_KAPPA_KEY,
    ObserverLaw,
    control_reference,
    kappa_candidates,
    two_exponential_bound,
)
from ccm.sim import iss_bound
from ccm.synth import ControllerMetric, ObserverMetric


def simpson(g, n=4001):
    s = np.linspace(0.0, 1.0, n)
    vals = np.array([g(t) for t in s])
    h = s[1] - s[0]
    return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())


@pytest.fixture(scope="module")
def laws(mg_model, metrics_slow):
    cmetric, ometric = metrics_slow
    return ControlLaw(cmetric, mg_model), ObserverLaw(ometric, mg_model)


# -- control law ------------------------------------------------------------------


def test_control_zero_error_returns_reference(laws):
    claw, _ = laws
    u = claw.control(np.zeros(2))
    np.testing.assert_allclose(u, np.zeros(1), atol=1e-15)


def test_control_constant_rho_closed_form(mg_model):
    metric = ControllerMetric(
        W=np.array([[0.5, 0.1], [0.1, 0.8]]),
        rho=Polynomial.constant(2, 3.0),
        lam=0.5, alpha1=0.1, alpha2=2.0,
    )
    claw = ControlLaw(metric, mg_model)
    x_hat = np.array([1.2, -0.4])
    dc = -x_hat
    expected = 0.5 * 3.0 * (mg_model.B.T @ metric.M @ dc)
    np.testing.assert_allclose(claw.control(x_hat), expected, rtol=1e-13)


def test_control_matches_simpson_quadrature(laws, mg_model):
    claw, _ = laws
    metric = claw.metric
    x_hat = np.array([1.0, 1.0])
    dc = -x_hat
    r_oracle = simpson(lambda s: metric.rho(x_hat + s * dc))
    u_oracle = 0.5 * r_oracle * (mg_model.B.T @ metric.M @ dc)
    np.testing.assert_allclose(claw.control(x_hat), u_oracle, atol=1e-9)


def test_control_matches_quadrature_on_random_states(laws, mg_model):
    claw, _ = laws
    rng = np.random.default_rng(0)
    for _ in range(10):
        x_hat = rng.uniform(-2, 2, size=2)
        dc = -x_hat
        r = simpson(lambda s: claw.metric.rho(x_hat + s * dc))
        u_oracle = 0.5 * r * (mg_model.B.T @ claw.metric.M @ dc)
        np.testing.assert_allclose(claw.control(x_hat), u_oracle, atol=1e-9)
        np.testing.assert_allclose(
            claw.control(x_hat), control_reference(claw, x_hat), atol=1e-12
        )


def test_control_linear_in_error_for_constant_rho(mg_model):
    metric = ControllerMetric(
        W=np.array([[0.5, 0.0], [0.0, 0.8]]),
        rho=Polynomial.constant(2, 2.0),
        lam=0.5, alpha1=0.1, alpha2=2.0,
    )
    claw = ControlLaw(metric, mg_model)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = rng.uniform(-1, 1, size=(2, 2))
        s, t = rng.uniform(-2, 2, size=2)
        lhs = claw.control(-(s * a + t * b))
        rhs = s * claw.control(-a) + t * claw.control(-b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_target_must_be_equilibrium(mg_model, metrics_slow):
    cmetric, _ = metrics_slow
    with pytest.raises(ValueError, match="equilibrium"):
        ControlLaw(cmetric, mg_model, x_star=[1.0, 0.0])
    # a genuine equilibrium with matching input is accepted:
    # f(x*) + B u* = 0 at x* = (1, -1.5-0.5) ... use origin-shifted input
    x_star = np.array([0.5, -1.5 * 0.25 - 0.5 * 0.125])
    f_val = mg_model.f_value(x_star)
    u_star = np.array([-f_val[1]])
    if abs(f_val[0]) < 1e-12:
        ControlLaw(cmetric, mg_model, x_star=x_star, u_star=u_star)


# -- observer law -----------------------------------------------------------------


def test_observer_consistent_measurement_gives_plant_flow(laws, mg_model):
    _, olaw = laws
    x_hat = np.array([0.7, -0.3])
    y = mg_model.C @ x_hat
    np.testing.assert_allclose(
        olaw.rhs(x_hat, y), mg_model.f_value(x_hat), atol=1e-12
    )


def test_observer_constant_rho_is_luenberger(mg_model):
    W = np.array([[0.4, -0.1], [-0.1, 0.9]])
    metric = ObserverMetric(
        W=W, rho=Polynomial.constant(2, 5.0), lam=0.5, alpha1=0.1, alpha2=2.0
    )
    olaw = ObserverLaw(metric, mg_model)
    K = 0.5 * 5.0 * np.linalg.solve(W, mg_model.C.T)
    x_hat = np.array([1.1, 0.2])
    y = np.array([0.9])
    expected = mg_model.f_value(x_hat) + K @ (y - mg_model.C @ x_hat)
    np.testing.assert_allclose(olaw.rhs(x_hat, y), expected, rtol=1e-12)


def test_observer_matches_simpson_quadrature(laws, mg_model):
    _, olaw = laws
    metric = olaw.metric
    x_hat = np.array([1.0, 1.0])
    y = np.array([0.5])
    xbar = MeasurementProjector(mg_model.C, metric.W).project(x_hat, y)
    do = x_hat - xbar
    r = simpson(lambda s: metric.rho(xbar + s * do))
    expected = mg_model.f_value(x_hat) + 0.5 * r * (
        np.linalg.solve(metric.W, mg_model.C.T) @ (y - mg_model.C @ x_hat)
    )
    np.testing.assert_allclose(olaw.rhs(x_hat, y), expected, atol=1e-9)


def test_observer_random_states_quadrature(laws, mg_model):
    _, olaw = laws
    rng = np.random.default_rng(2)
    for _ in range(10):
        x_hat = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=1)
        xbar = olaw.projector.project(x_hat, y)
        do = x_hat - xbar
        r = simpson(lambda s: olaw.metric.rho(xbar + s * do))
        expected = mg_model.f_value(x_hat) + 0.5 * r * (
            np.linalg.solve(olaw.metric.W, mg_model.C.T) @ (y - mg_model.C @ x_hat)
        )
        np.testing.assert_allclose(olaw.rhs(x_hat, y), expected, atol=1e-9)


# -- closed-loop linearization ------------------------------------------------------


def test_origin_linearization_respects_certified_rate(mg_model, metrics_slow):
    cmetric, ometric = metrics_slow
    A0 = mg_model.jacobian().eval(np.zeros(2))
    B, C = mg_model.B, mg_model.C
    K0 = -0.5 * cmetric.rho(np.zeros(2)) * (B.T @ cmetric.M)
    L0 = 0.5 * ometric.rho(np.zeros(2)) * np.linalg.solve(ometric.W, C.T)
    top = np.hstack([A0, B @ K0])
    bot = np.hstack([L0 @ C, A0 + B @ K0 - L0 @ C])
    loop = np.vstack([top, bot])
    eigs = np.linalg.eigvals(loop)
    lam = cmetric.lam
    assert eigs.real.max() <= -lam + 1e-6


# -- ISS bound ---------------------------------------------------------------------


def test_iss_bound_homogeneous_decay(metrics_slow):
    cmetric, _ = metrics_slow
    ts, d = iss_bound(cmetric, d0=2.0, disturbance_env=lambda t: 0.0, T=5.0, dt=1e-3)
    np.testing.assert_allclose(d, 2.0 * np.exp(-cmetric.lam * ts), rtol=1e-9)


def test_iss_bound_constant_env_steady_state(metrics_slow):
    cmetric, _ = metrics_slow
    kappa = kappa_candidates(cmetric)[ISS_KAPPA_KEY]
    c = 0.4
    ts, d = iss_bound(cmetric, 0.0, lambda t: c, T=120.0, dt=1e-2)
    assert d[-1] == pytest.approx(kappa * c / cmetric.lam, rel=1e-3)


def test_iss_bound_exponential_env_matches_closed_form(metrics_slow):
    cmetric, _ = metrics_slow
    kappa = kappa_candidates(cmetric)[ISS_KAPPA_KEY]
    beta, alpha = 1.7, 0.8
    ts, d = iss_bound(cmetric, 0.5, lambda t: beta * np.exp(-alpha * t), T=10.0, dt=1e-3)
    analytic = two_exponential_bound(
        0.5, cmetric.lam, np.log(kappa * beta), alpha, ts
    )
    np.testing.assert_allclose(d, analytic, atol=1e-8)


def test_kappa_candidates_reported(metrics_slow):
    cmetric, _ = metrics_slow
    cands = kappa_candidates(cmetric)
    assert set(cands) == {"sqrt_alpha1", "sqrt_alpha2", "inv_sqrt_alpha1"}
    assert cands["inv_sqrt_alpha1"] == pytest.approx(1.0 / np.sqrt(cmetric.alpha1))


def test_two_exponential_bound_handles_equal_rates():
    ts = np.linspace(0, 5, 11)
    out = two_exponential_bound(1.0, 2.0, np.log(3.0), 2.0 + 1e-12, ts)
    expected = np.exp(-2.0 * ts) + 3.0 * ts * np.exp(-2.0 * ts)
    np.testing.assert_allclose(out, expected, rtol=1e-6)
