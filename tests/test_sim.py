"""Simulation engine: integrators, loop modes, noise model, trace statistics."""

import numpy as np
import pytest

from ccm.sim import (
    SimConfig,
    SimTrace,
    SimulationError,
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


# -- integrators ------------------------------------------------------------------


def test_rk4_exponential_decay():
    cfg = SimConfig(dt=1e-3, T=1.0, x0=np.array([1.0]))
    ts, xs = integrate(lambda t, x: -x, np.array([1.0]), cfg)
    assert xs[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_rk45_exponential_decay():
    cfg = SimConfig(dt=1e-2, T=1.0, integrator="rk45", x0=np.array([1.0]))
    ts, xs = integrate(lambda t, x: -x, np.array([1.0]), cfg)
    assert xs[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_zero_rhs_constant_trajectory():
    cfg = SimConfig(dt=0.1, T=2.0)
    ts, xs = integrate(lambda t, x: np.zeros_like(x), np.array([3.0, -1.0]), cfg)
    assert np.all(xs == xs[0])


def test_record_count_fixed_step():
    for dt, T in [(1e-3, 60.0), (0.25, 1.0), (0.1, 0.9999999)]:
        cfg = SimConfig(dt=dt, T=T)
        ts, xs = integrate(lambda t, x: -x, np.array([1.0]), cfg)
        assert len(ts) == cfg.nsteps + 1
        assert len(ts) == int(np.floor(T / dt + 1e-9)) + 1


def test_cross_integrator_agreement_on_benchmark():
    model = moore_greitzer()
    x0 = np.array([1.0, -1.0])
    tr4 = run_open_loop(model, SimConfig(dt=1e-3, T=50.0, x0=x0))
    tr45 = run_open_loop(
        model,
        SimConfig(dt=1e-3, T=50.0, x0=x0, integrator="rk45",
                  rk45_rtol=1e-9, rk45_atol=1e-12),
    )
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
            integrate(lambda t, x: x**3, np.array([1.0]), cfg)


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
