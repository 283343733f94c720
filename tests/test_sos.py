"""SOS compilation: bases, Gram matching, certificates, oracle polynomials."""

import numpy as np
import pytest

from ccm.poly import Polynomial, poly_from_text
from ccm.sdp import SdpStatus, solve
from ccm.sos import (
    MatrixBound,
    MatrixParam,
    OddDegreeError,
    ParamPoly,
    ScalarParam,
    SosConstraint,
    SosKind,
    check_certificate,
    compile as sos_compile,
    gram_basis,
    is_sos,
    monomials_upto,
    recover_certificate,
)


def P(text, nvars=2):
    return poly_from_text(text, nvars)


# -- bases ---------------------------------------------------------------------


def test_scalar_basis_x2_plus_1():
    con = SosConstraint("c", ParamPoly.from_poly(poly_from_text("x1^2 + 1", 1)))
    assert gram_basis(con) == [(0,), (1,)]


def test_scalar_basis_two_vars_degree_2():
    con = SosConstraint("c", ParamPoly.from_poly(P("x1^2 + x2^2 + 1")))
    assert gram_basis(con) == [(0, 0), (1, 0), (0, 1)]


def test_quadratic_form_basis_linear_coefficients():
    # delta' Q(x) delta with Q linear in x, n = 2:
    # basis {d1, d2, x1*d1, x1*d2, x2*d1, x2*d2}
    expr = ParamPoly.from_poly(
        P("x1*x3^2 + x2*x3*x4 + x4^2", nvars=4)
    )
    con = SosConstraint("q", expr, kind=SosKind.QUADRATIC_FORM, ndelta=2)
    assert gram_basis(con) == [
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    ]


def test_quadratic_form_requires_delta_homogeneity():
    with pytest.raises(ValueError, match="homogeneous"):
        SosConstraint(
            "bad",
            ParamPoly.from_poly(P("x2 + x2^2", nvars=2)),
            kind=SosKind.QUADRATIC_FORM,
            ndelta=1,
        )


def test_odd_degree_reported():
    con = SosConstraint("odd", ParamPoly.from_poly(poly_from_text("x1^3 + x1", 1)))
    with pytest.raises(OddDegreeError, match="odd total degree"):
        gram_basis(con)


def test_monomial_enumeration_order():
    assert monomials_upto(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# -- compile + solve -------------------------------------------------------------


def test_single_rho_constraint_shape():
    # rho(x) in SOS, degree 2, 2 vars: one 3x3 Gram block plus matching equalities
    monos = monomials_upto(2, 2)
    rho = ParamPoly(2, {(f"r{k}",): Polynomial(2, {m: 1.0}) for k, m in enumerate(monos)})
    params = [ScalarParam(f"r{k}") for k in range(len(monos))]
    prob, info = sos_compile([SosConstraint("rho", rho)], params=params)
    assert info.block_dims == {"gram.rho": 3}
    assert info.n_scalar_vars == 6
    sol = solve(prob)
    assert sol.status is SdpStatus.FEASIBLE


def test_is_sos_x2_plus_1_with_certificate():
    res = is_sos(poly_from_text("x1^2 + 1", 1))
    assert res.status is SdpStatus.FEASIBLE
    assert check_certificate(poly_from_text("x1^2 + 1", 1), res.certificate, 1e-6)


def test_is_sos_rejects_x():
    res = is_sos(poly_from_text("x1", 1))
    assert res.status is SdpStatus.INFEASIBLE
    assert "odd" in res.message


def test_even_degree_non_sos_detected_by_solver():
    # x1^2*x2^2*(x1^2 - 1) + ... is odd in no variable; use a simple non-SOS:
    # p = x^2 y^2 (x^2 + y^2 - 1) + small const is indefinite; simplest check:
    # -(x1^2) is even degree but negative
    res = is_sos(P("-x1^2"))
    assert res.status is SdpStatus.INFEASIBLE


def test_motzkin_not_sos():
    motzkin = P("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1")
    res = is_sos(motzkin)
    assert res.status is SdpStatus.INFEASIBLE
    # cross-check: no Gram decomposition at the structural basis
    prob, _ = sos_compile([SosConstraint("m", ParamPoly.from_poly(motzkin))])
    assert solve(prob).status is SdpStatus.INFEASIBLE


def test_motzkin_nonnegative_sanity():
    # sanity for the oracle itself: Motzkin is nonnegative on a sample grid
    motzkin = P("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1")
    g = np.linspace(-2, 2, 41)
    pts = np.array([(a, b) for a in g for b in g])
    assert motzkin.eval_many(pts).min() >= -1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_true_sos_feasible_with_valid_certificate(seed):
    rng = np.random.default_rng(seed)
    qs = []
    for _ in range(3):
        q = Polynomial(2, {m: rng.normal() for m in monomials_upto(2, 2)})
        qs.append(q)
    p = Polynomial.zero(2)
    for q in qs:
        p = p + q * q
    res = is_sos(p)
    assert res.status is SdpStatus.FEASIBLE
    assert check_certificate(p, res.certificate, 1e-6)


def test_check_certificate_rejects_wrong_witness():
    from ccm.sos import SosCertificate

    cert = SosCertificate([(0,), (1,)], np.diag([1.0, 1.0]))
    assert check_certificate(poly_from_text("x1^2 + 1", 1), cert, 1e-9)
    assert not check_certificate(poly_from_text("x1^2 + 2", 1), cert, 1e-9)
    assert not check_certificate(poly_from_text("x1", 1), cert, 1e-9)
    bad = SosCertificate([(0,), (1,)], np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert not check_certificate(poly_from_text("1 - x1^2", 1), bad, 1e-9)


def test_parameterized_constraint_with_matrix_bound():
    # w in [1, 4] (1x1 matrix param), constraint: (w - 1) + (4 - w)*x1^2 in SOS
    w = MatrixParam("w", 1)
    expr = (
        ParamPoly.param(1, ("w", 0, 0))
        + ParamPoly.from_poly(poly_from_text("-1", 1))
        + ParamPoly.param(1, ("w", 0, 0), poly_from_text("-1*x1^2", 1))
        + ParamPoly.from_poly(poly_from_text("4*x1^2", 1))
    )
    con = SosConstraint("c", expr)
    prob, info = sos_compile([con], bounds=[MatrixBound(w, 1.0, 4.0)], params=[w])
    sol = solve(prob)
    assert sol.status is SdpStatus.FEASIBLE
    wval = float(np.asarray(sol.values["w"])[0, 0])
    assert 1.0 - 1e-7 <= wval <= 4.0 + 1e-7
    cert = recover_certificate(info, "c", sol.values)
    concrete = expr.substitute_params(sol.values)
    assert check_certificate(concrete, cert, 1e-6)


def test_round_trip_certificates_for_feasible_compiles():
    # randomized parameterized instances: recovered certificates verify at 1e-6
    rng = np.random.default_rng(5)
    for trial in range(3):
        target = Polynomial(2, {m: rng.normal() for m in monomials_upto(2, 1)})
        target = target * target  # SOS by construction
        # theta * 1 + target in SOS with theta free scalar
        expr = ParamPoly.param(2, ("theta",)) + ParamPoly.from_poly(target)
        con = SosConstraint(f"t{trial}", expr)
        prob, info = sos_compile([con], params=[ScalarParam("theta")])
        sol = solve(prob)
        assert sol.status is SdpStatus.FEASIBLE
        cert = recover_certificate(info, f"t{trial}", sol.values)
        assert check_certificate(expr.substitute_params(sol.values), cert, 1e-6)


def test_structured_and_full_encodings_agree():
    # delta-quadratic instances solvable both ways must agree on status
    cases = []
    # feasible: delta' diag(1 + x^2, 2) delta
    cases.append((P("x3^2 + x1^2*x3^2 + 2*x4^2", nvars=4), True))
    # infeasible: delta' diag(x^2 - 1, 1) delta  (indefinite in x)
    cases.append((P("x1^2*x3^2 - x3^2 + x4^2", nvars=4), False))
    for expr, want_feasible in cases:
        structured = SosConstraint("q", ParamPoly.from_poly(expr),
                                   kind=SosKind.QUADRATIC_FORM, ndelta=2)
        # the full encoding: the same expression as a scalar-kind constraint,
        # whose Gram basis is every monomial up to half the total degree
        full = SosConstraint("q", ParamPoly.from_poly(expr))
        assert gram_basis(full) == monomials_upto(4, expr.degree() // 2)
        statuses = []
        for con in (structured, full):
            prob, _ = sos_compile([con])
            statuses.append(solve(prob).status)
        assert statuses[0] == statuses[1]
        assert (statuses[0] is SdpStatus.FEASIBLE) == want_feasible


def test_undeclared_parameter_rejected():
    expr = ParamPoly.param(1, ("theta",))
    with pytest.raises(ValueError, match="not declared"):
        sos_compile([SosConstraint("c", expr)], params=[ScalarParam("other")])


def test_matrix_param_without_bound_rejected():
    expr = ParamPoly.param(1, ("W", 0, 0))
    with pytest.raises(ValueError, match="interval bound"):
        sos_compile([SosConstraint("c", expr)], params=[MatrixParam("W", 1)])


def test_parameters_checked_against_declared_list():
    W = MatrixParam("W", 2)
    entry = SosConstraint("c", ParamPoly.param(1, ("W", 2, 0)))
    scalar = SosConstraint("c", ParamPoly.param(1, ("W",)))
    matrix = SosConstraint("c", ParamPoly.param(1, ("t", 0, 0)))
    cases = [
        ([entry], [MatrixBound(W, 1.0, 2.0)], [W], "beyond its declared dimension"),
        ([scalar], [MatrixBound(W, 1.0, 2.0)], [W], "used as ScalarParam"),
        ([matrix], [], [ScalarParam("t")], "used as MatrixParam"),
        ([], [MatrixBound(W, -1.0, 2.0)], [W], "lo < 0"),
        ([], [MatrixBound(W, 1.0, 2.0)], [], "does not match a declared"),
        ([], [MatrixBound(MatrixParam("W", 3), 1.0, 2.0)], [W], "does not match a declared"),
    ]
    for cons, bounds, params, match in cases:
        with pytest.raises(ValueError, match=match):
            sos_compile(cons, bounds, params)


def test_parampoly_algebra_commutes_with_substitution():
    # every ParamPoly operation is the same Polynomial operation after the
    # parameters are given values
    rng = np.random.default_rng(3)
    values = {"a": 0.7, "W": np.array([[2.0, -0.5], [-0.5, 3.0]])}

    def rand_poly(nvars=2):
        return Polynomial(nvars, {m: rng.normal() for m in monomials_upto(nvars, 2)})

    def rand_pp():
        return (ParamPoly.from_poly(rand_poly()) + ParamPoly.param(2, ("a",), rand_poly())
                + ParamPoly.param(2, ("W", 0, 1), rand_poly())
                + ParamPoly.param(2, ("W", 1, 0), rand_poly()))

    def close(p, q):
        return (p - q).max_abs_coeff() <= 1e-12

    p, q, r = rand_pp(), rand_pp(), rand_poly()
    assert set(p.parts) == {None, ("a",), ("W", 1, 0)}
    sp, sq = p.substitute_params(values), q.substitute_params(values)
    assert close((p + q).substitute_params(values), sp + sq)
    assert close((p - q).substitute_params(values), sp - sq)
    assert close((p + r).substitute_params(values), sp + r)
    assert close(p.scale(-1.5).substitute_params(values), sp * -1.5)
    assert close(p.mul_poly(r).substitute_params(values), sp * r)
    assert close(p.embed(4, 1).substitute_params(values), sp.embed(4, 1))
    assert (p - p).parts == {} and p.scale(0.0).degree() == -1
    assert p.mul_poly(r).degree() == 4
