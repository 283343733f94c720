"""Simulation engine: integrators, loop modes, noise model, trace statistics."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ccm import sim
from ccm.poly import PolyMatrix, Polynomial, poly_from_text
from ccm.realize import ControlLaw, ObserverLaw
from ccm.sim import (
    SimConfig,
    SimTrace,
    SimulationError,
    _closed_loop_field,
    decay_rate,
    integrate,
    limit_cycle_state,
    moore_greitzer,
    overshoot,
    run_open_loop,
    run_output_feedback,
    run_state_feedback,
    trace_summary,
)
from ccm.sos import monomials_upto
from ccm.synth import ControllerMetric, ObserverMetric, SystemModel


# -- integrators ------------------------------------------------------------------


def test_rk4_exponential_decay():
    cfg = SimConfig(dt=1e-3, T=1.0, x0=np.array([1.0]))
    ts, xs = integrate(lambda t, x: [-v for v in x], np.array([1.0]), cfg)
    assert xs[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_rk45_exponential_decay():
    cfg = SimConfig(dt=1e-2, T=1.0, integrator="rk45", x0=np.array([1.0]))
    ts, xs = integrate(lambda t, x: [-v for v in x], np.array([1.0]), cfg)
    assert xs[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_zero_rhs_constant_trajectory():
    cfg = SimConfig(dt=0.1, T=2.0)
    ts, xs = integrate(lambda t, x: [0.0 for _ in x], np.array([3.0, -1.0]), cfg)
    assert np.all(xs == xs[0])


def test_record_count_fixed_step():
    for dt, T in [(1e-3, 60.0), (0.25, 1.0), (0.1, 0.9999999)]:
        cfg = SimConfig(dt=dt, T=T)
        ts, xs = integrate(lambda t, x: [-v for v in x], np.array([1.0]), cfg)
        assert len(ts) == cfg.nsteps + 1
        assert len(ts) == int(np.floor(T / dt + 1e-9)) + 1


def test_cross_integrator_agreement_on_benchmark():
    model = moore_greitzer()
    x0 = np.array([1.0, -1.0])
    tr4 = run_open_loop(model, SimConfig(dt=1e-3, T=50.0, x0=x0))
    tr45 = run_open_loop(model, SimConfig(dt=1e-3, T=50.0, x0=x0, integrator="rk45"))
    assert np.abs(tr4.x - tr45.x).max() <= 1e-5


def test_rk4_observed_convergence_order():
    model = moore_greitzer()
    x0 = np.array([1.0, -1.0])
    finals = []
    for dt in (0.02, 0.01, 0.005):
        tr = run_open_loop(model, SimConfig(dt=dt, T=5.0, x0=x0))
        finals.append(tr.x[-1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = np.log2(e1 / e2)
    assert order >= 3.5


def test_divergence_aborts_with_diagnostic():
    cfg = SimConfig(dt=0.5, T=30.0, x0=np.array([1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="non-finite"):
            integrate(lambda t, x: [v * v * v for v in x], np.array([1.0]), cfg)


# -- open loop --------------------------------------------------------------------


def test_open_loop_origin_is_equilibrium(mg_model):
    tr = run_open_loop(mg_model, SimConfig(dt=1e-2, T=5.0))
    assert np.abs(tr.x).max() == 0.0


def test_open_loop_sustained_oscillation(trace_open):
    norms = np.linalg.norm(trace_open.x, axis=1)
    assert norms.max() <= 10.0
    tail = trace_open.x[int(0.6 * len(trace_open.t)):]
    amplitude = tail[:, 0].max() - tail[:, 0].min()
    assert amplitude >= 0.1


def test_open_loop_tiny_state_neutral_linearization(mg_model):
    # A(0) has purely imaginary eigenvalues: log|x| slope ~ 0
    tr = run_open_loop(mg_model, SimConfig(dt=1e-3, T=10.0, x0=np.array([1e-6, 0.0])))
    norms = np.linalg.norm(tr.x, axis=1)
    slope = np.polyfit(tr.t, np.log(norms), 1)[0]
    eig_real = np.linalg.eigvals(mg_model.jacobian().eval(np.zeros(2))).real.max()
    assert abs(slope - eig_real) <= 1e-3


# -- state feedback ---------------------------------------------------------------


def test_state_feedback_zero_initial_state(mg_model, laws_slow):
    claw, _ = laws_slow
    tr = run_state_feedback(mg_model, claw, SimConfig(dt=1e-2, T=2.0))
    assert np.abs(tr.x).max() == 0.0
    assert np.abs(tr.u).max() == 0.0


def test_state_feedback_respects_rate_guarantee(mg_model, laws_slow):
    claw, _ = laws_slow
    cfg = SimConfig(dt=1e-3, T=30.0, x0=np.array([1.0, -1.0]))
    tr = run_state_feedback(mg_model, claw, cfg)
    assert np.all(tr.d <= tr.d_bound * (1.0 + 1e-6) + 1e-12)


def test_state_and_output_feedback_coincide_with_exact_observer(mg_model, laws_slow, lc_state):
    claw, olaw = laws_slow
    cfg = SimConfig(dt=1e-3, T=5.0, x0=lc_state, xhat0=lc_state)
    sf = run_state_feedback(mg_model, claw, cfg)
    of = run_output_feedback(mg_model, claw, olaw, cfg)
    assert np.abs(sf.x - of.x).max() <= 1e-9
    assert np.abs(of.x - of.x_hat).max() <= 1e-9


# -- output feedback ---------------------------------------------------------------


def test_output_feedback_equilibrium_start_stays_zero(mg_model, laws_slow):
    claw, olaw = laws_slow
    tr = run_output_feedback(mg_model, claw, olaw, SimConfig(dt=1e-2, T=2.0))
    assert np.abs(tr.x).max() == 0.0
    assert np.abs(tr.x_hat).max() == 0.0


def test_output_feedback_converges_from_limit_cycle(trace_conv_slow):
    assert np.linalg.norm(trace_conv_slow.x[-1]) <= 1e-3
    rate = decay_rate(trace_conv_slow, (30.0, 60.0))
    assert rate <= -0.1


def test_bound_dominates_distance_noise_free(trace_conv_slow):
    tr = trace_conv_slow
    assert np.all(tr.d <= 1.05 * tr.d_bound + 1e-12)


def test_noise_free_measurement_identity(trace_conv_slow):
    assert np.array_equal(trace_conv_slow.y, trace_conv_slow.y_clean)


def test_noisy_run_bounded(trace_noise_slow):
    norms = np.linalg.norm(trace_noise_slow.x, axis=1)
    window = trace_noise_slow.t >= 50.0
    assert norms[window].max() <= 1.0
    assert norms[window].mean() <= 0.5
    # noise actually present
    assert np.abs(trace_noise_slow.y - trace_noise_slow.y_clean).max() > 0.1


def test_output_feedback_adaptive_backend_agrees(mg_model, laws_slow, lc_state):
    claw, olaw = laws_slow
    base = dict(dt=1e-3, T=3.0, x0=lc_state, xhat0=np.zeros(2))
    t4 = run_output_feedback(mg_model, claw, olaw, SimConfig(**base))
    t45 = run_output_feedback(
        mg_model, claw, olaw, SimConfig(integrator="rk45", **base)
    )
    assert np.abs(t4.x - t45.x).max() <= 1e-7


def test_noise_requires_fixed_step(mg_model, laws_slow):
    claw, olaw = laws_slow
    cfg = SimConfig(dt=1e-2, T=1.0, noise_std=0.3, integrator="rk45")
    with pytest.raises(ValueError, match="rk4"):
        run_output_feedback(mg_model, claw, olaw, cfg)


def test_seeded_runs_bit_identical(mg_model, laws_slow, lc_state):
    claw, olaw = laws_slow

    def go():
        cfg = SimConfig(dt=1e-3, T=2.0, x0=lc_state, xhat0=np.zeros(2),
                        noise_std=0.3, seed=11)
        return run_output_feedback(mg_model, claw, olaw, cfg)

    a, b = go(), go()
    assert a.to_csv() == b.to_csv()
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_different_seeds_differ(mg_model, laws_slow, lc_state):
    claw, olaw = laws_slow
    traces = []
    for seed in (0, 1):
        cfg = SimConfig(dt=1e-2, T=1.0, x0=lc_state, xhat0=np.zeros(2),
                        noise_std=0.3, seed=seed)
        traces.append(run_output_feedback(mg_model, claw, olaw, cfg))
    assert not np.array_equal(traces[0].y, traces[1].y)


def test_noise_is_one_seeded_draw_held_per_step(mg_model, laws_slow, lc_state):
    claw, olaw = laws_slow
    sigma, seed = 0.3, 4
    cfg = SimConfig(dt=1e-2, T=1.0, x0=lc_state, xhat0=np.zeros(2),
                    noise_std=sigma, seed=seed)
    tr = run_output_feedback(mg_model, claw, olaw, cfg)
    xi = np.random.default_rng(seed).standard_normal((cfg.nsteps + 1, mg_model.p))
    assert np.array_equal(tr.y, tr.y_clean + sigma * xi)

    # the first RK4 step holds xi[0] over all four stages
    def rhs(t, z):
        x, xh = z[:2], z[2:]
        u = claw.control(xh, t)
        y = mg_model.C @ x + sigma * xi[0]
        return np.concatenate([mg_model.f_value(x) + mg_model.B @ u, olaw.rhs(xh, y, t, u)])

    h, z0 = cfg.dt, np.concatenate([lc_state, np.zeros(2)])
    k1 = rhs(0.0, z0)
    k2 = rhs(h / 2, z0 + h / 2 * k1)
    k3 = rhs(h / 2, z0 + h / 2 * k2)
    k4 = rhs(h, z0 + h * k3)
    z1 = z0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(np.concatenate([tr.x[1], tr.x_hat[1]]), z1, rtol=1e-13, atol=1e-15)


# -- compiled closed-loop field ----------------------------------------------------


def _rel_err(got, want) -> float:
    return float(np.abs(np.asarray(got) - want).max() / max(np.abs(want).max(), 1e-300))


def _random_metrics(rng, n, rho_degree):
    """SPD metrics and random rho polynomials: the field compiles any constants."""
    def spd():
        A = rng.standard_normal((n, n))
        return A @ A.T + n * np.eye(n)

    def rho():
        monos = monomials_upto(n, rho_degree)
        return Polynomial(n, dict(zip(monos, rng.uniform(0.1, 2.0, len(monos)))))

    common = dict(lam=0.5, alpha1=0.1, alpha2=100.0)
    return ControllerMetric(W=spd(), rho=rho(), **common), ObserverMetric(W=spd(), rho=rho(), **common)


def _lag_model():
    """The 3-state actuator-lag model: n = 3, B = e3, C = e2."""
    f = ["-x2 - 1.5*x1^2 - 0.5*x1^3", "x1 + x3", "-2.0*x3"]
    return SystemModel(PolyMatrix.column([poly_from_text(t, 3) for t in f]),
                       np.array([[0.0], [0.0], [1.0]]), np.array([[0.0, 1.0, 0.0]]))


def _check_field_against_laws(model, claw, olaw, seed=0, npts=25):
    rng = np.random.default_rng(seed)
    n, B, C = model.n, model.B, model.C
    sf = _closed_loop_field(model, claw, None)
    of = _closed_loop_field(model, claw, olaw)
    for _ in range(npts):
        x, xh, e = rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n), rng.normal(0, 0.3, model.p)
        u = claw.control(xh)
        want = np.concatenate([model.f_value(x) + B @ u, olaw.rhs(xh, C @ x + e, 0.0, u)])
        assert _rel_err(of(0.0, np.concatenate([x, xh]), e.tolist()), want) <= 1e-12
        assert _rel_err(sf(0.0, x), model.f_value(x) + B @ claw.control(x)) <= 1e-12
    # the default noise row is zero
    z = np.concatenate([x, xh])
    np.testing.assert_array_equal(of(0.0, z), of(0.0, z, [0.0] * model.p))


@pytest.mark.parametrize("regime", ["slow", "medium", "fast"])
def test_compiled_field_matches_laws_on_presets(request, mg_model, regime):
    cmetric, ometric = request.getfixturevalue(f"metrics_{regime}")
    _check_field_against_laws(mg_model, ControlLaw(cmetric, mg_model), ObserverLaw(ometric, mg_model))


def test_compiled_field_matches_laws_rho_degree_4(mg_model):
    cmetric, ometric = _random_metrics(np.random.default_rng(1), 2, 4)
    _check_field_against_laws(mg_model, ControlLaw(cmetric, mg_model), ObserverLaw(ometric, mg_model))


def test_compiled_field_matches_laws_three_state_lag():
    model = _lag_model()
    cmetric, ometric = _random_metrics(np.random.default_rng(2), 3, 2)
    _check_field_against_laws(model, ControlLaw(cmetric, model), ObserverLaw(ometric, model))


def test_compiled_field_matches_laws_nonzero_target(mg_model, metrics_slow):
    # f(x*) + B u* = 0: x1* = 0.2, x2* = -1.5 x1*^2 - 0.5 x1*^3, u* = -x1*
    x_star = np.array([0.2, -1.5 * 0.2**2 - 0.5 * 0.2**3])
    claw = ControlLaw(metrics_slow[0], mg_model, x_star=x_star, u_star=[-0.2])
    _check_field_against_laws(mg_model, claw, ObserverLaw(metrics_slow[1], mg_model))


def test_field_applies_the_laws_bit_for_bit():
    # with f = 0 and B = I the plant rows of the field are u itself, so the
    # field must hold exactly the laws' values, not values close to them
    zero = Polynomial.zero(2)
    model = SystemModel(PolyMatrix.column([zero, zero]), np.eye(2), np.array([[1.0, 0.0]]))
    cmetric, ometric = _random_metrics(np.random.default_rng(5), 2, 2)
    claw, olaw = ControlLaw(cmetric, model), ObserverLaw(ometric, model)
    sf, of = _closed_loop_field(model, claw, None), _closed_loop_field(model, claw, olaw)
    rng = np.random.default_rng(6)
    for _ in range(25):
        x, xh, e = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2), rng.normal(0, 0.3, 1)
        u = claw.control(xh)
        assert np.array_equal(sf(0.0, x), claw.control(x))
        want = np.concatenate([u, olaw.rhs(xh, model.C @ x + e, 0.0, u)])
        assert np.array_equal(of(0.0, np.concatenate([x, xh]), e.tolist()), want)


def test_batched_control_matches_per_point(mg_model, laws_slow):
    claw, _ = laws_slow
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (200, 2))
    batched = claw.control(pts)
    assert batched.shape == (200, 1)
    per_point = np.stack([claw.control(p) for p in pts])
    assert _rel_err(batched, per_point) <= 1e-14
    assert np.array_equal(batched, per_point)  # one compiled source for both
    assert np.array_equal(claw.control(pts.reshape(20, 10, 2)), batched.reshape(20, 10, 1))
    const = ControlLaw(ControllerMetric(W=np.eye(2), rho=Polynomial.constant(2, 2.0), lam=0.5,
                                        alpha1=0.1, alpha2=2.0), mg_model)
    assert _rel_err(const.control(pts), np.stack([const.control(p) for p in pts])) <= 1e-14
    assert np.array_equal(const.control(pts), np.stack([const.control(p) for p in pts]))


def test_batched_observer_and_projection_match_per_point(laws_slow):
    _, olaw = laws_slow
    rng = np.random.default_rng(4)
    xh, y, u = rng.uniform(-2.0, 2.0, (200, 2)), rng.normal(size=(200, 1)), rng.normal(size=(200, 1))
    per_point = np.stack([olaw.rhs(a, b, 0.0, c) for a, b, c in zip(xh, y, u)])
    assert np.array_equal(olaw.rhs(xh, y, 0.0, u), per_point)
    proj = olaw.projector
    assert np.array_equal(proj.project(xh, y), np.stack([proj.project(a, b) for a, b in zip(xh, y)]))


@pytest.mark.parametrize("mode,sigma", [("state_fb", 0.0), ("output_fb", 0.0), ("output_fb", 0.3)])
def test_trace_u_is_the_law_at_each_state(mg_model, laws_slow, lc_state, mode, sigma):
    # the loop's field and ControlLaw.control run the same lines, so the
    # recorded u is the control at each recorded estimate, bit for bit
    claw, olaw = laws_slow
    cfg = SimConfig(dt=1e-3, T=0.5, x0=lc_state, xhat0=np.zeros(2), noise_std=sigma, seed=2)
    if mode == "state_fb":
        tr = run_state_feedback(mg_model, claw, cfg)
    else:
        tr = run_output_feedback(mg_model, claw, olaw, cfg)
    assert np.array_equal(tr.u, claw.control(tr.x_hat))
    assert np.array_equal(tr.u, np.stack([claw.control(p) for p in tr.x_hat]))


def _reference_loop(model, claw, olaw, cfg):
    """The closed loop stepped through the per-point laws, one call per stage."""
    n, B, C, f = model.n, model.B, model.C, model.f_value
    ts = cfg.time_grid()
    e = cfg.noise_std * np.random.default_rng(cfg.seed).standard_normal((len(ts), model.p))

    def rhs(t, z, ek):
        if olaw is None:
            return f(z) + B @ claw.control(z)
        x, xh = z[:n], z[n:]
        u = claw.control(xh)
        return np.concatenate([f(x) + B @ u, olaw.rhs(xh, C @ x + ek, t, u)])

    zs = [cfg.x0 if olaw is None else np.concatenate([cfg.x0, cfg.xhat0])]
    h = cfg.dt
    for k in range(cfg.nsteps):
        z = zs[-1]
        k1 = rhs(ts[k], z, e[k])
        k2 = rhs(ts[k] + h / 2, z + h / 2 * k1, e[k])
        k3 = rhs(ts[k] + h / 2, z + h / 2 * k2, e[k])
        k4 = rhs(ts[k] + h, z + h * k3, e[k])
        zs.append(z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    zs = np.array(zs)
    xs = zs[:, :n]
    xhs = xs if olaw is None else zs[:, n:]
    u = np.stack([claw.control(p) for p in xhs])
    dx = xs - claw.x_star
    d = np.sqrt(np.einsum("ki,ij,kj->k", dx, claw.metric.M, dx))
    lam = claw.metric.lam
    if olaw is None:
        return xs, xhs, u, d, d[0] * np.exp(-lam * ts), np.zeros(len(ts))
    de = xhs - xs
    est_err = np.sqrt(np.einsum("ki,ij,kj->k", de, olaw.metric.W, de))
    w_mag = np.linalg.norm((u - np.stack([claw.control(p) for p in xs])) @ B.T, axis=1)
    # the ISS bound  d' = -lam d + kappa |w(t)|,  kappa = 1/sqrt(alpha1), stepped by RK4
    kappa = 1.0 / np.sqrt(claw.metric.alpha1)
    bound_rhs = lambda t, v: -lam * v + kappa * np.interp(t, ts, w_mag)
    db = [np.array([d[0]])]
    for k in range(cfg.nsteps):
        db.append(_numpy_rk4_step(bound_rhs, ts[k], db[-1], h))
    d_bound = np.concatenate(db)
    return xs, xhs, u, d, d_bound, est_err


@pytest.mark.parametrize("mode,sigma", [("state_fb", 0.0), ("output_fb", 0.0), ("output_fb", 0.3)])
def test_trajectory_matches_per_call_reference(mg_model, laws_slow, lc_state, mode, sigma):
    claw, olaw = laws_slow
    cfg = SimConfig(dt=1e-3, T=1.5, x0=lc_state, xhat0=np.zeros(2), noise_std=sigma, seed=9)
    if mode == "state_fb":
        olaw = None
        tr = run_state_feedback(mg_model, claw, cfg)
    else:
        tr = run_output_feedback(mg_model, claw, olaw, cfg)
    xs, xhs, u, d, d_bound, est_err = _reference_loop(mg_model, claw, olaw, cfg)
    for got, want in ((tr.x, xs), (tr.x_hat, xhs), (tr.u, u), (tr.d, d)):
        assert _rel_err(got, want) <= 1e-12
    if olaw is not None:
        assert _rel_err(tr.est_err, est_err) <= 1e-12
    assert _rel_err(tr.d_bound, d_bound) <= 1e-9
    xi = np.random.default_rng(cfg.seed).standard_normal((cfg.nsteps + 1, mg_model.p))
    assert np.array_equal(tr.y, tr.y_clean + sigma * xi)


# the limit-cycle start and two starts within 0.1 of it
_GATE_OFFSETS = ((0.0, 0.0), (0.07, -0.07), (-0.1, 0.0))


@pytest.mark.parametrize("mode", ["state_fb", "output_fb"])
@pytest.mark.parametrize("regime,integrator", [
    ("slow", "rk4"), ("medium", "rk4"), ("fast", "rk4"), ("slow", "rk45"),
])
def test_noise_free_feedback_within_bound_and_converging(request, mg_model, lc_state,
                                                        regime, integrator, mode):
    # the closed-loop benchmark's gate: d under d_bound to 1e-9 relative and
    # 1e-12 absolute, and past the peak (the estimate closing in) by T
    cmetric, ometric = request.getfixturevalue(f"metrics_{regime}")
    claw, olaw = ControlLaw(cmetric, mg_model), ObserverLaw(ometric, mg_model)
    for offset in _GATE_OFFSETS:
        cfg = SimConfig(dt=1e-3, T=3.0, x0=lc_state + offset, xhat0=np.zeros(2),
                        integrator=integrator)
        if mode == "state_fb":
            tr = run_state_feedback(mg_model, claw, cfg)
            converged = tr.d[-1] < tr.d[0]
        else:
            tr = run_output_feedback(mg_model, claw, olaw, cfg)
            converged = tr.d[-1] < tr.d.max() and tr.est_err[-1] < tr.est_err[0]
        assert np.all(tr.d <= tr.d_bound * (1 + 1e-9) + 1e-12), offset
        assert converged, offset


# -- float stage combination against the numpy one ---------------------------------


def _numpy_rk4_step(rhs, t, z, dt, *args):
    """The RK4 stage combination over numpy arrays that the float path
    replaced, kept verbatim as the oracle."""
    k1 = rhs(t, z, *args)
    k2 = rhs(t + dt / 2, z + (dt / 2) * k1, *args)
    k3 = rhs(t + dt / 2, z + (dt / 2) * k2, *args)
    k4 = rhs(t + dt, z + dt * k3, *args)
    return z + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _array_rhs(rhs):
    """A float-sequence rhs behind the array-in, array-out contract of the oracle."""
    return lambda t, z, *args: np.array(rhs(t, z.tolist(), *args))


def _oracle_integrate(rhs, x0, cfg, noise=None):
    ts, f = cfg.time_grid(), _array_rhs(rhs)
    if cfg.integrator == "rk45":
        sol = solve_ivp(f, (0.0, cfg.T), x0, method="RK45", t_eval=ts,
                        rtol=sim.RK45_RTOL, atol=sim.RK45_ATOL)
        return ts, sol.y.T
    zs = [np.asarray(x0, dtype=float)]
    for k in range(cfg.nsteps):
        args = () if noise is None else (noise[k],)
        zs.append(_numpy_rk4_step(f, ts[k], zs[-1], cfg.dt, *args))
    return ts, np.array(zs)


def _with_numpy_stages(run):
    """run() with integrate stepping through the numpy oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "integrate", _oracle_integrate)
        return run()


_TRACE_COLUMNS = ("t", "x", "x_hat", "u", "y", "y_clean", "d", "d_bound", "est_err")


@pytest.mark.parametrize("regime,mode,sigma,integrator", [
    *[(r, m, 0.0, "rk4") for r in ("slow", "medium", "fast")
      for m in ("open", "state_fb", "output_fb")],
    ("slow", "output_fb", 0.3, "rk4"), ("medium", "output_fb", 0.3, "rk4"),
    ("slow", "state_fb", 0.0, "rk45"), ("slow", "output_fb", 0.0, "rk45"),
])
def test_float_stages_match_numpy_stages_bit_for_bit(request, mg_model, lc_state,
                                                     regime, mode, sigma, integrator):
    cmetric, ometric = request.getfixturevalue(f"metrics_{regime}")
    claw, olaw = ControlLaw(cmetric, mg_model), ObserverLaw(ometric, mg_model)
    # at dt = 1 ms the increments are so small against the state that a
    # regrouped stage sum often rounds to the same state; 5 ms shows it
    cfg = SimConfig(dt=5e-3, T=2.0, x0=lc_state, xhat0=np.zeros(2), noise_std=sigma,
                    seed=5, integrator=integrator)
    run = {"open": lambda: run_open_loop(mg_model, cfg),
           "state_fb": lambda: run_state_feedback(mg_model, claw, cfg),
           "output_fb": lambda: run_output_feedback(mg_model, claw, olaw, cfg)}[mode]
    got, want = run(), _with_numpy_stages(run)
    for name in _TRACE_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _decimal_step_weights(z: float) -> list[Decimal]:
    """The one-step weights at 50 digits: I_k = int_0^1 e^(-zu) u^k du by
    I_0 = (1 - e^-z)/z, I_k = (k I_(k-1) - e^-z)/z, against the Lagrange
    basis in u = 1 - s of the nodes s = 0, 1/2, 1."""
    with localcontext() as ctx:
        ctx.prec = 50
        z = Decimal(z)
        e = (-z).exp()
        i0 = (1 - e) / z
        i1 = (i0 - e) / z
        i2 = (2 * i1 - e) / z
        return [+(2 * i2 - i1), +(4 * i1 - 4 * i2), +(i0 - 3 * i1 + 2 * i2)]


@pytest.mark.parametrize("z", [1e-9, 1e-4, 5e-3, 0.5, 30.0])
def test_iss_bound_step_weights_match_decimal(z):
    got = sim._step_weights(z)
    for g, want in zip(got, _decimal_step_weights(z)):
        assert abs(Decimal(g) - want) <= Decimal("1e-14") * abs(want)


def test_divergence_diagnostic_names_time_and_state(mg_model, metrics_fast, lc_state):
    # mg-fast with sigma = 0.3 and seed 7 diverges within the first half second
    claw, olaw = ControlLaw(metrics_fast[0], mg_model), ObserverLaw(metrics_fast[1], mg_model)
    cfg = SimConfig(dt=1e-3, T=3.0, x0=lc_state, xhat0=np.zeros(2), noise_std=0.3, seed=7)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as info:
            run_output_feedback(mg_model, claw, olaw, cfg)
    assert str(info.value) == "non-finite state at t=0.472: [nan nan nan nan]"


# -- statistics / csv ---------------------------------------------------------------


def test_overshoot_of_monotone_decay_is_one():
    t = np.linspace(0, 5, 100)
    x = np.exp(-t)[:, None] * np.array([[1.0, 0.0]])
    tr = SimTrace(t=t, x=x, x_hat=x, u=np.zeros((100, 1)), y=np.zeros((100, 1)),
                  y_clean=np.zeros((100, 1)), d=np.exp(-t), d_bound=np.exp(-t),
                  est_err=np.zeros(100))
    assert overshoot(tr) == 1.0


def test_decay_rate_exact_exponential():
    t = np.linspace(0, 5, 501)
    d = np.exp(-2.0 * t)
    tr = SimTrace(t=t, x=d[:, None] * np.ones((1, 2)), x_hat=np.zeros((501, 2)),
                  u=np.zeros((501, 1)), y=np.zeros((501, 1)),
                  y_clean=np.zeros((501, 1)), d=d, d_bound=d, est_err=np.zeros(501))
    assert decay_rate(tr, (0.0, 5.0)) == pytest.approx(-2.0, abs=1e-3)


def test_decay_rate_window_validation(trace_open):
    with pytest.raises(ValueError, match="window"):
        decay_rate(trace_open, (10.0, 99.0))


def test_csv_header_and_round_trip(trace_conv_slow):
    text = trace_conv_slow.to_csv()
    first = text.splitlines()[0]
    assert first == "t,phi,psi,phi_hat,psi_hat,u,y,y_clean,d,d_bound,est_err"
    again = SimTrace.from_csv(text)
    assert again.to_csv() == text
    np.testing.assert_array_equal(again.x, trace_conv_slow.x)
    np.testing.assert_array_equal(again.d_bound, trace_conv_slow.d_bound)


def test_trace_summary_fields(trace_conv_slow):
    s = trace_summary(trace_conv_slow)
    assert set(s) >= {"overshoot", "decay_rate", "final_state_norm", "max_state_norm"}
    assert s["final_state_norm"] <= 1e-3


def test_benchmark_factory_values():
    model = moore_greitzer()
    assert model.n == 2 and model.m == 1 and model.p == 1
    f1 = model.f.entry(0, 0)
    assert f1.coeff((0, 1)) == -1.0
    assert f1.coeff((2, 0)) == -1.5
    assert f1.coeff((3, 0)) == -0.5
    assert model.f.entry(1, 0).coeff((1, 0)) == 1.0
    np.testing.assert_array_equal(model.B, [[0.0], [1.0]])
    np.testing.assert_array_equal(model.C, [[0.0, 1.0]])


def test_limit_cycle_state_deterministic():
    a = limit_cycle_state()
    b = limit_cycle_state()
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) > 0.05


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, T=-1.0)
    with pytest.raises(ValueError):
        SimConfig(integrator="euler")
    with pytest.raises(ValueError):
        SimConfig(noise_std=-0.1)
    for bad in ({"dt": np.nan}, {"T": np.nan}, {"T": np.inf},
                {"noise_std": np.nan}, {"x0": [0.0, np.nan]},
                {"xhat0": [np.inf, 0.0]}):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(**bad)


def test_simconfig_rejects_steps_above_budget():
    with pytest.raises(ValueError) as info:
        SimConfig(T=1e12)  # rejected before the time grid is formed
    assert str(info.value) == "T/dt = 1e+15 is above the budget of 1000000 steps"
    assert SimConfig(T=60.0).nsteps <= sim.MAX_SIM_STEPS  # the CLI default
