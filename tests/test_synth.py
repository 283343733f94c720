"""Metric synthesis: hand-solvable scalar programs, benchmark feasibility,
controller/observer duality, pointwise verification, serialization."""

import hashlib
import time

import numpy as np
import pytest

from ccm.poly import PolyMatrix, Polynomial, poly_from_text
from ccm.sdp import SolveOptions, problem_to_text
from ccm.sos import check_certificate, compile as sos_compile
from ccm.synth import (
    MAX_GRID_POINTS,
    MAX_RHO_DEGREE,
    ControllerMetric,
    Role,
    SynthStatus,
    SystemModel,
    controller_program,
    lmi_values,
    metric_constraints,
    metric_from_text,
    metric_to_text,
    observer_program,
    synthesize,
    verify_pointwise,
)


def scalar_model(f_text="x1", b=1.0, c=1.0):
    f = PolyMatrix.column([poly_from_text(f_text, 1)])
    return SystemModel(f, np.array([[b]]), np.array([[c]]))


def test_system_model_rejects_non_finite_data():
    good = scalar_model()
    with pytest.raises(ValueError, match="B must be finite"):
        SystemModel(good.f, np.array([[np.nan]]), good.C)
    with pytest.raises(ValueError, match="C must be finite"):
        SystemModel(good.f, good.B, np.array([[np.inf]]))
    bad_f = PolyMatrix.column([Polynomial(1, {(1,): np.nan})])
    with pytest.raises(ValueError, match="f must be finite"):
        SystemModel(bad_f, good.B, good.C)


@pytest.mark.parametrize("role", [Role.CONTROLLER, Role.OBSERVER])
def test_synthesize_rejects_non_finite_parameters(role):
    model = scalar_model()
    for args, name in (((np.nan, 0.1, 1.0), "lambda"), ((np.inf, 0.1, 1.0), "lambda"),
                       ((1.0, np.nan, 1.0), "alpha1"), ((1.0, 0.1, np.inf), "alpha2"),
                       ((1.0, 0.1, np.nan), "alpha2")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            synthesize(model, role, *args)


@pytest.mark.parametrize("role", [Role.CONTROLLER, Role.OBSERVER])
def test_synthesize_rejects_rho_degree_out_of_range(role):
    for degree in (-2, -1, MAX_RHO_DEGREE + 1):
        with pytest.raises(ValueError, match=r"rho_degree must be in \[0, "):
            synthesize(scalar_model(), role, 1.0, 0.1, 1.0, degree)


def test_system_model_equality():
    from ccm.sim import moore_greitzer

    assert moore_greitzer() == moore_greitzer()
    assert scalar_model() == scalar_model()
    mg = moore_greitzer()
    assert not mg == SystemModel(mg.f, mg.B, np.array([[1.0, 0.0]]))
    assert mg != SystemModel(mg.f, np.array([[1.0], [0.0]]), mg.C)
    assert mg != SystemModel(mg.f, np.array([[0.0, 0.0], [1.0, 0.0]]), mg.C)  # B shape
    other_f = PolyMatrix.column([poly_from_text("-x2 - 1.5*x1^2", 2), poly_from_text("x1", 2)])
    assert mg != SystemModel(other_f, mg.B, mg.C)
    assert scalar_model() != scalar_model(b=2.0)
    assert mg != scalar_model() and mg != "model"


# -- hand-solvable scalar programs ------------------------------------------------


def test_scalar_controller_feasible_with_known_slack():
    # xdot = x + u, lambda = 1: LMI reduces to 4w <= rho(x), so any feasible
    # solution must carry rho(0) >= 4w
    res = synthesize(scalar_model(), Role.CONTROLLER, 1.0, 0.5, 2.0)
    assert res.status is SynthStatus.FEASIBLE
    w = float(res.metric.W[0, 0])
    assert 0.5 - 1e-7 <= w <= 2.0 + 1e-7
    assert res.metric.rho((0.0,)) >= 4 * w - 1e-6


def test_scalar_controller_unactuated_infeasible():
    # xdot = x with B = 0: 2w + 2*lam*w <= 0 impossible for w > 0
    from ccm.sdp import check_solution

    res = synthesize(scalar_model(b=0.0), Role.CONTROLLER, 0.7, 0.5, 2.0)
    assert res.status is SynthStatus.INFEASIBLE
    assert res.certificate is not None
    assert check_solution(res.problem, res.solution, 1e-7).ok


def test_scalar_observer_stable_but_blind_depends_on_rate():
    # xdot = -x with C = 0: -2w <= -2*lam*w feasible iff lam <= 1
    res = synthesize(scalar_model("-1*x1", c=0.0), Role.OBSERVER, 2.0, 0.5, 2.0)
    assert res.status is SynthStatus.INFEASIBLE
    res = synthesize(scalar_model("-1*x1", c=0.0), Role.OBSERVER, 0.9, 0.5, 2.0)
    assert res.status is SynthStatus.FEASIBLE


def test_scalar_observer_feasible_with_known_slack():
    # xdot = x, C = 1, lambda = 1: 4w <= rho(x)
    res = synthesize(scalar_model(), Role.OBSERVER, 1.0, 0.5, 2.0)
    assert res.status is SynthStatus.FEASIBLE
    w = float(res.metric.W[0, 0])
    assert res.metric.rho((0.0,)) >= 4 * w - 1e-6


def test_marginal_solver_surfaces_as_inconclusive():
    res = synthesize(
        scalar_model(), Role.CONTROLLER, 1.0, 0.5, 2.0,
        solver_opts=SolveOptions(max_iter=1),
    )
    assert res.status is SynthStatus.INCONCLUSIVE
    assert res.metric is None


# -- benchmark programs ------------------------------------------------------------


def test_benchmark_slow_metrics_certified(mg_model, metrics_slow):
    cmetric, ometric = metrics_slow
    for metric in (cmetric, ometric):
        ev = metric.w_eigenvalues()
        assert ev[0] >= 0.1 - 1e-6 and ev[-1] <= 1.3 + 1e-6
        assert check_certificate(metric.rho, metric.rho_certificate, 1e-6)
        chk = verify_pointwise(metric, mg_model)
        assert chk.passed, chk.max_violation
    lo, hi = cmetric.m_bounds()
    assert lo == pytest.approx(1.0 / cmetric.w_eigenvalues()[-1])
    assert hi == pytest.approx(1.0 / cmetric.w_eigenvalues()[0])


def test_benchmark_solver_output_passes_independent_check(mg_model):
    from ccm.sdp import check_solution

    res = synthesize(mg_model, Role.CONTROLLER, 0.1, 0.1, 1.3)
    assert res.status is SynthStatus.FEASIBLE
    assert check_solution(res.problem, res.solution, 1e-6).ok


def test_benchmark_tight_bounds_at_fast_rate_not_feasible(mg_model):
    # lambda = 5 inside the narrow W-range: solver must not claim feasibility
    res = synthesize(mg_model, Role.CONTROLLER, 5.0, 0.1, 1.3)
    assert res.status in (SynthStatus.INFEASIBLE, SynthStatus.INCONCLUSIVE)


def test_synthesized_rho_nonnegative_and_matches_term_sum(metrics_slow):
    cmetric, _ = metrics_slow
    pt = np.array([1.0, 1.0])
    val = cmetric.rho(pt)
    manual = sum(c * pt[0] ** m[0] * pt[1] ** m[1] for m, c in cmetric.rho.terms.items())
    assert val == pytest.approx(manual, rel=1e-14)
    assert val >= -1e-9


def test_benchmark_gram_basis_enumeration(mg_model, metrics_slow):
    # the contraction constraint has x-degree 2 (the Jacobian of a cubic
    # field), so the basis carries x-monomials of degree <= 1 per delta
    # component: 6 elements; the recovered certificate reproduces the
    # concrete constraint polynomial to numerical residual
    from ccm.sos import gram_basis

    prog = controller_program(mg_model, 0.1, 0.1, 1.3)
    main = prog.constraints[0]
    xdeg = max(sum(m[:2]) for m in main.expression.monomials())
    assert xdeg == 2
    basis = gram_basis(main)
    assert len(basis) == 6
    assert basis[:2] == [(0, 0, 1, 0), (0, 0, 0, 1)]
    cmetric, _ = metrics_slow
    cert = cmetric.lmi_certificate
    assert cert is not None and len(cert.basis) == 6


# -- duality ------------------------------------------------------------------------


def test_observer_program_is_transposed_controller_program(mg_model):
    # transposed vector field g with jacobian(g) == jacobian(f)'
    g = PolyMatrix.column(
        [
            poly_from_text("x2 - 1.5*x1^2 - 0.5*x1^3", 2),
            poly_from_text("-1*x1", 2),
        ]
    )
    A_t = mg_model.jacobian().transpose()
    A_g = __import__("ccm.poly", fromlist=["jacobian"]).jacobian(g)
    assert A_t == A_g

    lam, a1, a2 = 0.1, 0.1, 1.3
    cons1, bounds1, params1, _ = metric_constraints(A_t, mg_model.C.T, lam, a1, a2)
    cons2, bounds2, params2, _ = metric_constraints(A_g, mg_model.C.T, lam, a1, a2)
    prob1, _ = sos_compile(cons1, bounds1, params1)
    prob2, _ = sos_compile(cons2, bounds2, params2)
    assert problem_to_text(prob1) == problem_to_text(prob2)


def test_observer_lmi_matches_direct_construction(mg_model, metrics_slow):
    _, ometric = metrics_slow
    pts = np.array([[0.3, -1.2], [0.0, 0.0], [-2.0, 1.0]])
    V = lmi_values(ometric, mg_model, pts)
    A = mg_model.jacobian()
    C = mg_model.C
    W = ometric.W
    for k, x in enumerate(pts):
        Ax = A.eval(x)
        direct = (
            Ax.T @ W + W @ Ax
            - ometric.rho(x) * (C.T @ C)
            + 2 * ometric.lam * W
        )
        np.testing.assert_allclose(V[k], direct, atol=1e-12)


# -- pointwise verification -----------------------------------------------------------


def test_verify_rejects_corrupted_metric(mg_model, metrics_slow):
    cmetric, _ = metrics_slow
    bad = ControllerMetric(
        W=cmetric.W * 100.0, rho=cmetric.rho,
        lam=cmetric.lam, alpha1=cmetric.alpha1, alpha2=cmetric.alpha2,
    )
    chk = verify_pointwise(bad, mg_model)
    assert not chk.passed
    assert chk.max_violation > 0
    V = lmi_values(bad, mg_model, chk.worst_point[None, :])
    assert np.linalg.eigvalsh(V[0])[-1] == pytest.approx(chk.max_violation, rel=1e-12)


def test_verify_linear_system_analytic():
    f = PolyMatrix.column([poly_from_text("-1*x1", 2), poly_from_text("-2*x2", 2)])
    model = SystemModel(f, np.zeros((2, 1)), np.array([[1.0, 0.0]]))
    metric = ControllerMetric(
        W=np.eye(2), rho=Polynomial.zero(2), lam=0.9, alpha1=0.5, alpha2=2.0
    )
    chk = verify_pointwise(metric, model, box=[(-1, 1), (-1, 1)], grid=11)
    # constant LMI diag(-2,-4) + 1.8 I: max eigenvalue -0.2 everywhere
    assert chk.max_violation == pytest.approx(-0.2, abs=1e-9)


def test_verify_single_point_grid_uses_midpoint(mg_model, metrics_slow):
    cmetric, _ = metrics_slow
    chk = verify_pointwise(cmetric, mg_model, box=[(-2, 4), (-3, 1)], grid=1)
    assert chk.grid_points == 1
    np.testing.assert_allclose(chk.worst_point, [1.0, -1.0])


@pytest.mark.parametrize("grid,message", [
    (0, "grid must be at least 1, got 0"),
    (-3, "grid must be at least 1, got -3"),
    (10**8, "grid 100000000 on 2 states gives 10000000000000000 points, "
            "above the budget of 2097152"),
])
def test_verify_rejects_grid_outside_budget(mg_model, metrics_slow, monkeypatch, grid, message):
    monkeypatch.setattr("ccm.synth._grid_points", None)  # rejected before any point is formed
    with pytest.raises(ValueError) as info:
        verify_pointwise(metrics_slow[0], mg_model, grid=grid)
    assert str(info.value) == message
    assert 1001**2 <= MAX_GRID_POINTS  # the benchmark's largest grid


def test_rate_monotonicity_by_reverification(mg_model, metrics_medium):
    # a rate-5 certificate remains valid when re-checked at any smaller rate
    cmetric, ometric = metrics_medium
    for metric in (cmetric, ometric):
        for weaker in (1.0, 0.5, 0.1):
            chk = verify_pointwise(metric, mg_model, lam=weaker)
            assert chk.passed, (weaker, chk.max_violation)


# -- serialization -----------------------------------------------------------------


def test_metric_text_round_trip_lossless(mg_model, metrics_slow):
    cmetric, ometric = metrics_slow
    for metric in (cmetric, ometric):
        text = metric_to_text(metric, mg_model)
        again, model2 = metric_from_text(text)
        assert type(again) is type(metric)
        np.testing.assert_array_equal(again.W, metric.W)
        assert again.rho == metric.rho
        assert again.lam == metric.lam
        assert (again.alpha1, again.alpha2) == (metric.alpha1, metric.alpha2)
        assert model2 is not None
        assert model2.f == mg_model.f
        np.testing.assert_array_equal(model2.B, mg_model.B)
        np.testing.assert_array_equal(model2.C, mg_model.C)
        # second serialization is bit-identical
        assert metric_to_text(again, model2) == text


def test_metric_text_rejects_bad_header(mg_model, metrics_slow):
    with pytest.raises(ValueError, match="header"):
        metric_from_text("not-a-metric\n")
    cmetric, _ = metrics_slow
    metric_from_text(metric_to_text(cmetric))  # without the model section
    good = metric_to_text(cmetric, mg_model)
    w_line = next(ln for ln in good.splitlines() if ln.startswith("W "))
    bad_files = {
        "repeats 'lambda'": good + "lambda 99.0\n",
        "unknown keys": good + "gain 2.0\n",
        "unknown keys.*model.f3": good + "model.f3 x1\n",
        "model is incomplete": "".join(
            ln for ln in good.splitlines(keepends=True) if not ln.startswith("model.B")
        ),
        "W must be finite": good.replace(w_line, "W nan nan; nan nan"),
        "lambda must be finite": good.replace(f"lambda {cmetric.lam!r}", "lambda inf"),
        "alpha1 must be finite": good.replace(f"alpha1 {cmetric.alpha1!r}", "alpha1 nan"),
        "alpha2 must be finite": good.replace(f"alpha2 {cmetric.alpha2!r}", "alpha2 -inf"),
    }
    for match, text in bad_files.items():
        assert text != good
        with pytest.raises(ValueError, match=match):
            metric_from_text(text)


def test_metric_text_checks_n_before_sizing_the_model(mg_model, metrics_slow):
    # n sizes the model key set: a huge n fails on W's shape, not on memory
    good = metric_to_text(metrics_slow[0], mg_model)
    for n, match in (("1000000000", r"expected \(1000000000, 1000000000\)"),
                     ("0", "at least 1"), ("-3", "at least 1")):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            metric_from_text(good.replace("\nn 2\n", f"\nn {n}\n"))
        assert time.perf_counter() - t0 < 0.5


def test_controller_metric_theta_factorization(metrics_slow):
    cmetric, _ = metrics_slow
    theta = cmetric.theta
    np.testing.assert_allclose(theta.T @ theta, cmetric.M, atol=1e-12)
    assert np.allclose(theta, np.triu(theta))


# -- pinned programs ---------------------------------------------------------------
#
# SHA-256 of problem_to_text for programs as ccm builds them: (model, regime,
# role, rho_degree) -> (equalities, digest). A program changes only on purpose,
# together with its pin.

PROGRAM_REGIMES = {"mg-slow": (0.1, 0.1, 1.3), "mg-medium": (5.0, 0.1, 30.0),
                   "mg-fast": (10.0, 0.1, 100.0)}
PINNED_PROGRAMS = {
    ("mg", "mg-slow", "controller", 2):
        (30, "f78716b4d9a75676b136e0a0b6e59065ecbf1bede5f82ca276caa01eb85be4c1"),
    ("mg", "mg-slow", "controller", 4):
        (66, "f3836fd3f238f4759fd3a8fb0a9898afd7cb7952a481a9d3b79bd19ad48799c2"),
    ("mg", "mg-slow", "observer", 2):
        (30, "826a52809b713d748a9522c355bb4a58f2f69460df5cafe4ef3186d20362e84b"),
    ("mg", "mg-slow", "observer", 4):
        (66, "9d73358a649c90f010af89fc58553ab3ee264f63a87b6361ecd6009d44e9566b"),
    ("mg", "mg-medium", "controller", 2):
        (30, "99f20803d71ae9c32a823432b9f3fd12261dc0eb3399cea65acdf45b51767840"),
    ("mg", "mg-medium", "controller", 4):
        (66, "0a33937f329361614339fbf8f23c86be4ca251756cd971882c12ba7a95227e2a"),
    ("mg", "mg-medium", "observer", 2):
        (30, "cb2f1637c8b6a4a0571ff20bac5732b6342902a52df8d184d49fb9ebc079eb31"),
    ("mg", "mg-medium", "observer", 4):
        (66, "df69d73ce0a39435671900bc4148b45b91a06aa6f940684ab2855e3a026ac5d7"),
    ("mg", "mg-fast", "controller", 2):
        (30, "296d05f53628a82efca28abe6c7b0a0b5661d0542b5bf6b61a208a917ce40777"),
    ("mg", "mg-fast", "controller", 4):
        (66, "a2854456b8898e36ff3992941817efbdc998792651ec92f163e486b92bae3148"),
    ("mg", "mg-fast", "observer", 2):
        (30, "fc30760fc4d5c14284f33aa653c3c3b606b91009d58d411e9814bd9543153af9"),
    ("mg", "mg-fast", "observer", 4):
        (66, "2117578d360eda4aafb0499eb54cea892e0589585b40d8cd5b1e176e1da7cf8f"),
    ("lag", "mg-slow", "controller", 4):
        (257, "68cd698269cf431d50029c914c7f1a5eafdb5fe8a5a9ec6e07e9c75e9c2250c1"),
}


def _lag_model():
    """The 3-state actuator-lag model at its nominal coefficients."""
    f = ["-x2 - 1.5*x1^2 - 0.5*x1^3", "x1 + x3", "-2.0*x3"]
    return SystemModel(PolyMatrix.column([poly_from_text(t, 3) for t in f]),
                       np.array([[0.0], [0.0], [1.0]]), np.array([[0.0, 1.0, 0.0]]))


@pytest.mark.parametrize("key", list(PINNED_PROGRAMS))
def test_compiled_programs_pinned(mg_model, key):
    family, regime, role, rho_degree = key
    model = mg_model if family == "mg" else _lag_model()
    build = controller_program if role == "controller" else observer_program
    program = build(model, *PROGRAM_REGIMES[regime], rho_degree)
    prob, info = sos_compile(program.constraints, program.bounds, program.params)
    text = problem_to_text(prob)
    assert (info.n_equalities, hashlib.sha256(text.encode()).hexdigest()) == PINNED_PROGRAMS[key]
