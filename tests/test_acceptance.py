"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time

import numpy as np

from ccm.geom import MeasurementProjector
from ccm.poly import poly_from_text
from ccm.realize import ControlLaw, ObserverLaw
from ccm.sdp import SdpProblem, SdpStatus, solve
from ccm.sim import (
    SimConfig,
    decay_rate,
    overshoot,
    run_output_feedback,
)
from ccm.sos import is_sos
from ccm.synth import Role, SynthStatus, synthesize, verify_pointwise

PARAM_SETS = [(0.1, 0.1, 1.3), (5.0, 0.1, 30.0), (10.0, 0.1, 100.0)]


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_synthesis_feasible_at_paper_parameters(mg_model):
    lines = []
    ok = True
    for lam, a1, a2 in PARAM_SETS:
        for role in (Role.CONTROLLER, Role.OBSERVER):
            t0 = time.perf_counter()
            res = synthesize(mg_model, role, lam, a1, a2)
            elapsed = time.perf_counter() - t0
            good = res.status is SynthStatus.FEASIBLE and elapsed < 5.0
            ok = ok and good
            lines.append(
                f"({lam},{a1},{a2}) {role.value}: {res.status.value} in {elapsed:.2f}s"
            )
    report(1, ok, "; ".join(lines))


def test_criterion_2_pointwise_lmi_verification(
    mg_model, metrics_slow, metrics_medium, metrics_fast
):
    worst = -np.inf
    for pair in (metrics_slow, metrics_medium, metrics_fast):
        for metric in pair:
            chk = verify_pointwise(metric, mg_model, box=[(-5.0, 5.0)] * 2, grid=101)
            worst = max(worst, chk.max_violation)
    report(
        2, worst <= 1e-6,
        f"max LMI eigenvalue over all six metrics on 101x101 grid: {worst:.3e} <= 1e-6",
    )


def test_criterion_3_closed_loop_convergence(trace_conv_slow):
    final = float(np.linalg.norm(trace_conv_slow.x[-1]))
    rate = decay_rate(trace_conv_slow, (30.0, 60.0))
    ok = final <= 1e-3 and rate <= -0.1
    report(3, ok, f"|x(60)| = {final:.2e} <= 1e-3; fitted rate on [30,60] = {rate:.3f} <= -0.1")


def test_criterion_4_peaking_ordering(mg_model, metrics_slow, metrics_medium,
                                      metrics_fast, lc_state):
    ovs = {}
    for name, pair in (("slow", metrics_slow), ("medium", metrics_medium),
                       ("fast", metrics_fast)):
        claw = ControlLaw(pair[0], mg_model)
        olaw = ObserverLaw(pair[1], mg_model)
        cfg = SimConfig(dt=1e-3, T=20.0, x0=lc_state, xhat0=np.zeros(2))
        ovs[name] = overshoot(run_output_feedback(mg_model, claw, olaw, cfg))
    ok = ovs["fast"] > ovs["medium"] > ovs["slow"]
    report(
        4, ok,
        f"overshoot ordering {ovs['fast']:.2f} (rate 10) > {ovs['medium']:.2f} "
        f"(rate 5) > {ovs['slow']:.2f} (rate 0.1)",
    )


def test_criterion_5_noise_robustness(trace_noise_slow):
    norms = np.linalg.norm(trace_noise_slow.x, axis=1)
    window = trace_noise_slow.t >= 50.0
    mx, mean = float(norms[window].max()), float(norms[window].mean())
    ok = mx <= 1.0 and mean <= 0.5
    report(5, ok, f"noise 0.3 run: max|x| on [50,100] = {mx:.3f} <= 1.0, mean = {mean:.3f} <= 0.5")


def test_criterion_6_open_loop_oscillation(trace_open):
    norms = np.linalg.norm(trace_open.x, axis=1)
    tail = trace_open.x[int(0.6 * len(trace_open.t)):]
    amplitude = float(tail[:, 0].max() - tail[:, 0].min())
    ok = norms.max() <= 10.0 and amplitude >= 0.1
    report(
        6, ok,
        f"open loop from (1,-1): max|x| = {norms.max():.2f} <= 10, "
        f"flow amplitude over final 40% = {amplitude:.2f} >= 0.1",
    )


def test_criterion_7a_sdp_analytic_fixture():
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("X", 0, 0): 1.0, ("X", 1, 1): 1.0}, 1.0)
    prob.set_objective({("X", 0, 0): 1.0, ("X", 1, 1): 2.0})
    sol = solve(prob)
    err = abs(sol.objective_value - 1.0)
    report(
        "7a", sol.status is SdpStatus.FEASIBLE and err <= 1e-6,
        f"diagonal-objective SDP optimum error {err:.2e} <= 1e-6",
    )


def test_criterion_7b_sos_oracle_set():
    feasible = is_sos(poly_from_text("x1^2 + 1", 1)).status is SdpStatus.FEASIBLE
    odd = is_sos(poly_from_text("x1", 1)).status is SdpStatus.INFEASIBLE
    motzkin = is_sos(
        poly_from_text("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
    ).status is SdpStatus.INFEASIBLE
    report(
        "7b", feasible and odd and motzkin,
        f"x^2+1 feasible: {feasible}; x infeasible: {odd}; Motzkin infeasible: {motzkin}",
    )


def _simpson(g, n=4001):
    s = np.linspace(0.0, 1.0, n)
    vals = np.array([g(t) for t in s])
    h = s[1] - s[0]
    return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())


def test_criterion_7c_quadrature_agreement(mg_model, laws_slow):
    claw, olaw = laws_slow
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        xh = rng.uniform(-2, 2, size=2)
        dc = -xh
        r = _simpson(lambda s: claw.metric.rho(xh + s * dc))
        u_oracle = 0.5 * r * (mg_model.B.T @ claw.metric.M @ dc)
        worst = max(worst, float(np.abs(claw.control(xh) - u_oracle).max()))
        y = rng.uniform(-1, 1, size=1)
        xbar = olaw.projector.project(xh, y)
        do = xh - xbar
        ro = _simpson(lambda s: olaw.metric.rho(xbar + s * do))
        rhs_oracle = mg_model.f_value(xh) + 0.5 * ro * (
            np.linalg.solve(olaw.metric.W, mg_model.C.T) @ (y - mg_model.C @ xh)
        )
        worst = max(worst, float(np.abs(olaw.rhs(xh, y) - rhs_oracle).max()))
    report("7c", worst <= 1e-9, f"control/observer vs quadrature max error {worst:.2e} <= 1e-9")


def test_criterion_7d_kkt_projection_vs_brute_force():
    W = np.diag([1.0, 4.0])
    C = np.array([[1.0, 1.0]])
    xbar = MeasurementProjector(C, W).project([0.0, 0.0], [1.0])
    ts = np.linspace(-2, 3, 200001)
    cost = ts**2 + 4.0 * (1.0 - ts) ** 2
    t_best = ts[np.argmin(cost)]
    err = float(np.abs(xbar - np.array([t_best, 1 - t_best])).max())
    report("7d", err <= 1e-3, f"KKT projection vs brute-force grid: error {err:.2e} <= 1e-3")


def test_criterion_7e_iss_bound_dominance(trace_conv_slow):
    tr = trace_conv_slow
    ok = bool(np.all(tr.d <= 1.05 * tr.d_bound + 1e-12))
    ratio = float(np.max(tr.d / np.maximum(tr.d_bound, 1e-300)))
    report("7e", ok, f"noise-free distance within 1.05x bound (max ratio {ratio:.4f})")


def test_criterion_7f_structural_duality(mg_model):
    from ccm.poly import PolyMatrix, jacobian
    from ccm.sdp import problem_to_text
    from ccm.sos import compile as sos_compile
    from ccm.synth import metric_constraints

    g = PolyMatrix.column([
        poly_from_text("x2 - 1.5*x1^2 - 0.5*x1^3", 2),
        poly_from_text("-1*x1", 2),
    ])
    lam, a1, a2 = 0.1, 0.1, 1.3
    cons1, b1, p1, _ = metric_constraints(
        mg_model.jacobian().transpose(), mg_model.C.T, lam, a1, a2
    )
    cons2, b2, p2, _ = metric_constraints(jacobian(g), mg_model.C.T, lam, a1, a2)
    t1 = problem_to_text(sos_compile(cons1, b1, p1)[0])
    t2 = problem_to_text(sos_compile(cons2, b2, p2)[0])
    report("7f", t1 == t2, "observer program == controller program of transposed dynamics")


def test_criterion_8_cli_determinism(tmp_path):
    from ccm.cli import main

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[model]\nstates = phi psi\nf1 = -psi - 1.5*phi^2 - 0.5*phi^3\nf2 = phi\n"
        "B = 0; 1\nC = 0 1\n"
        "[controller]\nlambda = 0.1\nalpha1 = 0.1\nalpha2 = 1.3\n"
        "[observer]\nlambda = 0.1\nalpha1 = 0.1\nalpha2 = 1.3\n"
        "[sim]\ndt = 0.001\nT = 2\nx0 = limit-cycle\nxhat0 = 0 0\nseed = 3\n"
        "noise_std = 0.3\n"
    )
    mdir = tmp_path / "m"
    assert main(["synthesize", "-c", str(cfg), "-o", str(mdir)]) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main([
            "simulate", "-c", str(cfg), "-m", str(mdir), "--mode", "output_fb",
            "-o", str(out),
        ]) == 0
        outs.append((out / "trace_output_fb.csv").read_bytes())
    report(8, outs[0] == outs[1], "repeated `ccm simulate` with fixed seed: bit-identical CSV")
