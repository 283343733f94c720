"""Embedded SDP solver: analytic fixtures, random feasible instances, certificates."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccm import sdp
from ccm.sdp import (
    SdpError,
    SdpProblem,
    SdpStatus,
    SolveOptions,
    _symkron,
    check_solution,
    problem_from_text,
    problem_to_text,
    smat,
    solve,
    svec,
)
from ccm.sim import moore_greitzer
from ccm.synth import Role, SynthStatus, synthesize


# -- svec / smat / symmetric Kronecker product ------------------------------------


def test_svec_order_and_scaling():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    r2 = np.sqrt(2.0)
    np.testing.assert_array_equal(svec(M), [1.0, 2.0 * r2, 3.0 * r2, 4.0, 5.0 * r2, 6.0])


def _random_symmetric(rng, d):
    F = rng.normal(size=(d, d))
    return (F + F.T) / 2.0


# loop references: one svec coordinate / one symmetric Kronecker column at a time
def _pairs(d):
    return [(i, j) for j in range(d) for i in range(j, d)]


def _svec_loop(M):
    return np.array([M[i, j] * (np.sqrt(2.0) if i != j else 1.0) for i, j in _pairs(M.shape[0])])


def _smat_loop(v, d):
    M = np.zeros((d, d))
    for k, (i, j) in enumerate(_pairs(d)):
        M[i, j] = M[j, i] = v[k] if i == j else v[k] / np.sqrt(2.0)
    return M


def _symkron_loop(W):
    cols = []
    for i, j in _pairs(W.shape[0]):
        if i == j:
            B = np.outer(W[:, i], W[i, :])
        else:
            B = (np.outer(W[:, i], W[j, :]) + np.outer(W[:, j], W[i, :])) / np.sqrt(2.0)
        cols.append(_svec_loop((B + B.T) / 2.0))
    return np.array(cols).T


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_svec_smat_symkron_identities(d, seed):
    rng = np.random.default_rng(seed)
    A, B, U = (_random_symmetric(rng, d) for _ in range(3))
    F = rng.normal(size=(d, d))
    W = F @ F.T
    # same arithmetic as the loops for svec/smat; _symkron sums in another order
    np.testing.assert_array_equal(svec(A), _svec_loop(A))
    np.testing.assert_array_equal(smat(svec(A), d), _smat_loop(svec(A), d))
    G = _symkron(W)
    np.testing.assert_allclose(G, _symkron_loop(W), rtol=0.0, atol=8 * np.finfo(float).eps * np.abs(G).max())
    # svec/smat invert each other up to the rounding of the sqrt(2) scaling
    np.testing.assert_allclose(smat(svec(A), d), A, rtol=1e-15, atol=0.0)
    # svec is an isometry: the Euclidean product is the trace inner product
    scale = d * np.abs(A).max() * np.abs(B).max()
    assert svec(A) @ svec(B) == pytest.approx(np.trace(A @ B), abs=1e-13 * scale)
    # the symmetric Kronecker product represents U -> W U W
    np.testing.assert_allclose(
        smat(G @ svec(U), d), W @ U @ W,
        rtol=0.0, atol=1e-13 * d * np.abs(W).max() ** 2 * np.abs(U).max(),
    )


def test_non_finite_search_direction_is_marginal(monkeypatch):
    # a Schur solve that returns NaN must end the solve with a message
    monkeypatch.setattr(sdp._HsdCore, "_factor", lambda self, M: lambda v: np.full_like(v, np.nan))
    sol = solve(trace_min_problem())
    assert sol.status is SdpStatus.MARGINAL
    assert "non-finite" in sol.message


def test_non_finite_schur_complement_is_marginal(monkeypatch):
    # an NT scaling that overflows makes the Schur complement inf; that must
    # end the solve as MARGINAL, not escape as a ValueError from cho_factor
    def inf_symkron(W):
        k = W.shape[0] * (W.shape[0] + 1) // 2
        return np.full((k, k), np.inf)

    monkeypatch.setattr(sdp, "_symkron", inf_symkron)
    with np.errstate(invalid="ignore"):
        sol = solve(trace_min_problem())
        res = synthesize(moore_greitzer(), Role.CONTROLLER, 0.1, 0.1, 1.3)
    assert sol.status is SdpStatus.MARGINAL
    assert sol.message == "Schur complement factorization failed"
    assert res.status is SynthStatus.INCONCLUSIVE
    assert res.message == "Schur complement factorization failed"


def trace_min_problem():
    # minimize tr(diag(1,2) X) s.t. tr(X) = 1, X >= 0; optimum 1 at X = e1 e1'
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("X", 0, 0): 1.0, ("X", 1, 1): 1.0}, 1.0, name="trace")
    prob.set_objective({("X", 0, 0): 1.0, ("X", 1, 1): 2.0})
    return prob


def test_trace_min_analytic():
    sol = solve(trace_min_problem())
    assert sol.status is SdpStatus.FEASIBLE
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    X = sol.values["X"]
    np.testing.assert_allclose(X, [[1.0, 0.0], [0.0, 0.0]], atol=1e-5)


def test_diagonal_objective_second_fixture():
    # minimize tr(diag(3,1,2) X) s.t. tr(X)=2 -> 2*lambda_min = 2
    prob = SdpProblem()
    prob.add_block("X", 3)
    prob.add_equality({("X", i, i): 1.0 for i in range(3)}, 2.0)
    prob.set_objective({("X", 0, 0): 3.0, ("X", 1, 1): 1.0, ("X", 2, 2): 2.0})
    sol = solve(prob)
    assert sol.status is SdpStatus.FEASIBLE
    assert sol.objective_value == pytest.approx(2.0, abs=1e-6)


def test_negative_diagonal_infeasible():
    # X >= 0 with X_00 = -1 is infeasible (PSD diagonals are nonnegative)
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("X", 0, 0): 1.0}, -1.0)
    sol = solve(prob)
    assert sol.status is SdpStatus.INFEASIBLE
    assert sol.certificate is not None
    report = check_solution(prob, sol, 1e-8)
    assert report.ok, report.failures()


def test_infeasible_certificate_with_off_diagonal_terms():
    # infeasibility driven through off-diagonal couplings: the Farkas ray's
    # adjoint matrix must be assembled with half-weight per symmetric entry
    rng = np.random.default_rng(2001)
    prob = random_feasible_problem(rng, nblocks=2, dim=4, m=10, with_free=False)
    prob.add_equality({("X0", 0, 0): 1.0, ("X0", 1, 1): 1.0}, -2.0, name="pin")
    sol = solve(prob)
    assert sol.status is SdpStatus.INFEASIBLE
    report = check_solution(prob, sol, 1e-6)
    assert report.ok, report.failures()


def test_inconsistent_equalities_detected_without_iterations():
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("X", 0, 1): 1.0}, 0.5, name="a")
    prob.add_equality({("X", 0, 1): 2.0}, 3.0, name="b")
    sol = solve(prob)
    assert sol.status is SdpStatus.INFEASIBLE
    assert sol.iterations == 0
    assert check_solution(prob, sol, 1e-9).ok


def random_feasible_problem(rng, nblocks=2, dim=3, m=6, with_free=True):
    """Build a problem from a known interior point; the generator is the oracle."""
    prob = SdpProblem()
    interior = {}
    names = []
    for k in range(nblocks):
        name = f"X{k}"
        names.append(name)
        prob.add_block(name, dim)
        F = rng.normal(size=(dim, dim))
        interior[name] = F @ F.T + dim * np.eye(dim)
    sc = []
    if with_free:
        prob.add_scalar("t0", "free")
        prob.add_scalar("t1", "nonneg")
        interior["t0"] = float(rng.normal())
        interior["t1"] = float(rng.uniform(0.5, 2.0))
        sc = ["t0", "t1"]
    for r in range(m):
        terms = {}
        acc = 0.0
        for name in names:
            for _ in range(3):
                i, j = rng.integers(0, dim, size=2)
                c = float(rng.normal())
                ref = (name, int(max(i, j)), int(min(i, j)))
                terms[ref] = terms.get(ref, 0.0) + c
        for name in sc:
            c = float(rng.normal())
            terms[(name,)] = terms.get((name,), 0.0) + c
        for ref, c in terms.items():
            if len(ref) == 1:
                acc += c * interior[ref[0]]
            else:
                acc += c * interior[ref[0]][ref[1], ref[2]]
        prob.add_equality(terms, acc, name=f"r{r}")
    return prob


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_strictly_feasible_problems(seed):
    rng = np.random.default_rng(seed)
    prob = random_feasible_problem(rng, with_free=(seed % 2 == 0))
    sol = solve(prob)
    assert sol.status is SdpStatus.FEASIBLE, sol.message
    for eq in prob.equalities:
        acc = 0.0
        for ref, c in eq.terms.items():
            v = sol.values[ref[0]]
            acc += c * (float(v) if len(ref) == 1 else np.asarray(v)[ref[1], ref[2]])
        assert acc == pytest.approx(eq.rhs, abs=1e-7 * max(1.0, abs(eq.rhs)))


def test_solve_then_check_passes_at_10x_tol():
    rng = np.random.default_rng(7)
    prob = random_feasible_problem(rng)
    opts = SolveOptions()
    sol = solve(prob, opts)
    assert sol.status is SdpStatus.FEASIBLE
    assert check_solution(prob, sol, opts.feas_tol * 10).ok


def test_gap_below_tolerance_at_termination():
    opts = SolveOptions()
    sol = solve(trace_min_problem(), opts)
    assert sol.gap <= opts.gap_tol


def test_feasible_holds_for_each_equality_as_posed():
    # solve-then-check at 10x tol must hold even where the presolved residual
    # passes and the posed equalities do not; such a program is inconclusive
    text = (Path(__file__).parent / "data" / "weakly_feasible_observer.sdp").read_text()
    sol = solve(problem_from_text(text))
    assert sol.status is SdpStatus.MARGINAL
    assert "equality is off" in sol.message


def test_deterministic_repeat():
    prob1 = random_feasible_problem(np.random.default_rng(11))
    prob2 = random_feasible_problem(np.random.default_rng(11))
    s1 = solve(prob1)
    s2 = solve(prob2)
    assert s1.iterations == s2.iterations
    for k in s1.values:
        np.testing.assert_array_equal(np.asarray(s1.values[k]), np.asarray(s2.values[k]))


def test_check_solution_flags_violated_equality():
    prob = trace_min_problem()
    sol = solve(prob)
    bad = dict(sol.values)
    bad["X"] = np.asarray(bad["X"]) + np.eye(2)  # trace off by 2
    from ccm.sdp import SdpSolution

    tampered = SdpSolution(SdpStatus.FEASIBLE, bad, sol.gap, sol.iterations)
    report = check_solution(prob, tampered, 1e-6)
    assert not report.ok
    assert "trace" in report.failures()


def test_exact_feasible_point_checks_clean():
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("X", 0, 0): 1.0}, 2.0, name="pin")
    from ccm.sdp import SdpSolution

    sol = SdpSolution(SdpStatus.FEASIBLE, {"X": np.diag([2.0, 1.0])}, 0.0, 0)
    report = check_solution(prob, sol, 1e-12)
    assert report.ok
    assert all(e.value == 0.0 for e in report.entries if e.kind == "equality")


def test_undeclared_variable_rejected():
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("Y", 0, 0): 1.0}, 0.0)
    with pytest.raises(SdpError, match="undeclared"):
        solve(prob)


def test_entry_out_of_range_rejected():
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_equality({("X", 0, 5): 1.0}, 0.0)
    with pytest.raises(SdpError, match="out of range"):
        solve(prob)


def test_free_scalar_only_equality():
    # equality purely in free scalars: eliminated exactly
    prob = SdpProblem()
    prob.add_block("X", 2)
    prob.add_scalar("a", "free")
    prob.add_scalar("b", "free")
    prob.add_equality({("a",): 1.0, ("b",): 2.0}, 5.0)
    prob.add_equality({("X", 0, 0): 1.0, ("a",): 1.0}, 3.0)
    sol = solve(prob)
    assert sol.status is SdpStatus.FEASIBLE
    assert sol.values["a"] + 2 * sol.values["b"] == pytest.approx(5.0, abs=1e-8)
    X = np.asarray(sol.values["X"])
    assert X[0, 0] + sol.values["a"] == pytest.approx(3.0, abs=1e-8)


def test_marginal_on_tiny_iteration_budget():
    prob = trace_min_problem()
    sol = solve(prob, SolveOptions(max_iter=1))
    assert sol.status is SdpStatus.MARGINAL
    assert "iteration limit" in sol.message


def test_text_round_trip_bit_exact():
    prob = random_feasible_problem(np.random.default_rng(3))
    prob.set_objective({("X0", 0, 0): 1.0 / 3.0, ("t0",): -2.7e-11})
    text = problem_to_text(prob)
    again = problem_to_text(problem_from_text(text))
    assert text == again
    sol1 = solve(prob)
    sol2 = solve(problem_from_text(text))
    assert sol1.status == sol2.status
    assert sol1.objective_value == pytest.approx(sol2.objective_value, rel=1e-12)
