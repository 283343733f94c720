"""Polynomial substrate: arithmetic, calculus, line integrals, text format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccm.poly import (
    MAX_TERM_DEGREE,
    Polynomial,
    PolyMatrix,
    PolyParseError,
    jacobian,
    line_integral_form,
    line_integral_unit,
    poly_from_text,
    poly_to_text,
)


def P(text, nvars=2, names=None):
    return poly_from_text(text, nvars, names)


# -- strategies ---------------------------------------------------------------

coeffs = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


def polys(nvars=2, max_degree=3, max_terms=5):
    mono = st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)]).filter(
        lambda m: sum(m) <= max_degree
    )
    return st.dictionaries(mono, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d)
    )


def points(nvars=2):
    return st.tuples(*[st.floats(-2, 2) for _ in range(nvars)]).map(np.array)


# -- add / mul ----------------------------------------------------------------


def test_add_cancellation():
    assert P("x1^2 + 1") + P("-1") == P("x1^2")


def test_add_identity():
    p = P("2*x1*x2 - 3")
    assert p + Polynomial.zero(2) == p


def test_add_like_terms():
    assert P("2*x1*x2") + P("3*x1*x2") == P("5*x1*x2")


def test_mul_difference_of_squares():
    assert P("x1 + 1") * P("x1 - 1") == P("x1^2 - 1")


def test_mul_identity():
    p = P("x1^3 - 2*x2 + 0.5")
    assert p * Polynomial.constant(2, 1.0) == p


def test_square_binomial():
    s = P("x1 + x2")
    assert s * s == P("x1^2 + 2*x1*x2 + x2^2")


def test_arity_mismatch_raises():
    with pytest.raises(ValueError, match="arity"):
        P("x1", nvars=1) + P("x1")
    with pytest.raises(ValueError, match="arity"):
        P("x1", nvars=1) * P("x1")


def test_no_stored_zero_coefficients():
    p = P("x1 - x1 + x2")
    assert list(p.terms.keys()) == [(0, 1)]
    # a product that underflows to zero is not stored either
    assert list((P("1e-200*x1 + x2") * 1e-200).terms.keys()) == [(0, 1)]


def coeff_close(a, b, scale):
    return (a - b).max_abs_coeff() <= 1e-12 * max(1.0, scale)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    # addition of floats is commutative exactly; products and re-associated
    # sums accumulate in different orders, so those are coefficient-wise
    # comparisons with a rounding allowance
    assert (p + q) == (q + p)
    pq_scale = p.max_abs_coeff() * q.max_abs_coeff()
    assert coeff_close(p * q, q * p, pq_scale)
    sum_scale = p.max_abs_coeff() + q.max_abs_coeff() + r.max_abs_coeff()
    assert coeff_close((p + q) + r, p + (q + r), sum_scale)
    dist_scale = p.max_abs_coeff() * (q.max_abs_coeff() + r.max_abs_coeff())
    assert coeff_close(p * (q + r), p * q + p * r, dist_scale)


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=2), polys(max_degree=2))
def test_product_degree_adds(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        prod = p * q
        # cancellation of the top form is measure zero but can occur with
        # crafted inputs; all we assert is the upper bound
        assert prod.degree() <= p.degree() + q.degree()


# -- differentiation / evaluation ---------------------------------------------


def test_eval_simple():
    assert P("x1^2 + 1")([2.0, 0.0]) == 5.0


def test_eval_at_origin_gives_constant_term():
    p = P("3*x1^2*x2 - 2*x1 + 7.5")
    assert p([0.0, 0.0]) == 7.5


def test_eval_matches_term_by_term_sum():
    p = P("1.5*x1^2 - 2*x1*x2 + x2^2 + 0.25")
    pt = np.array([1.3, -0.7])
    manual = sum(c * pt[0] ** m[0] * pt[1] ** m[1] for m, c in p.terms.items())
    assert p(pt) == pytest.approx(manual, rel=1e-15)


def test_eval_many_matches_scalar():
    p = P("x1^3 - 0.5*x1*x2 + 2")
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-1.5, 0.3]])
    np.testing.assert_allclose(p.eval_many(pts), [p(x) for x in pts], rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(polys(nvars=3, max_degree=5, max_terms=8), st.lists(points(3), min_size=1, max_size=6))
def test_call_eval_many_and_as_function_bit_equal(p, pts):
    # one compiled source behind all three: the same bits, not just close
    pts = np.array(pts)
    f = p.as_function()
    per_point = np.array([p(x) for x in pts])
    assert np.array_equal(per_point, p.eval_many(pts))
    assert np.array_equal(per_point, [f(*x) for x in pts])
    assert p.as_function() is f


def test_as_function_matches_eval():
    p = P("2*x1^2*x2 - x2 + 0.125")
    f = p.as_function()
    for pt in [(0.0, 0.0), (1.1, -2.2), (3.0, 0.5)]:
        assert f(*pt) == pytest.approx(p(np.array(pt)), rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(polys(), points(), st.integers(0, 1))
def test_diff_matches_finite_differences(p, x, j):
    h = 1e-5
    ep = np.zeros(2)
    ep[j] = h
    fd = (p(x + ep) - p(x - ep)) / (2 * h)
    exact = p.diff(j)(x)
    assert fd == pytest.approx(exact, rel=1e-6, abs=1e-4)


# -- jacobian -----------------------------------------------------------------


def test_jacobian_benchmark_vector_field():
    f = PolyMatrix.column(
        [P("-x2 - 1.5*x1^2 - 0.5*x1^3"), P("x1")]
    )
    A = jacobian(f)
    assert A.entry(0, 0) == P("-3*x1 - 1.5*x1^2")
    assert A.entry(0, 1) == P("-1")
    assert A.entry(1, 0) == P("1")
    assert A.entry(1, 1) == Polynomial.zero(2)


def test_jacobian_of_constant_field_is_zero():
    f = PolyMatrix.column([P("3"), P("-1")])
    A = jacobian(f)
    assert all(A.entry(i, j).is_zero() for i in range(2) for j in range(2))


def test_jacobian_swap_field():
    A = jacobian(PolyMatrix.column([P("x2"), P("x1")]))
    assert A.eval([0.0, 0.0]).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_jacobian_requires_column():
    with pytest.raises(ValueError):
        jacobian(PolyMatrix(2, 1, 2, [[P("x1"), P("x2")]]))


# -- line integrals -----------------------------------------------------------


def simpson(g, n=2001):
    s = np.linspace(0.0, 1.0, n)
    vals = np.array([g(t) for t in s])
    h = s[1] - s[0]
    return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())


def test_line_integral_constant():
    assert line_integral_unit(P("4.25"), [1, 2], [3, -1]) == pytest.approx(4.25)


def test_line_integral_degenerate_path():
    p = P("x1^2*x2 - x2 + 2")
    a = np.array([1.2, -0.8])
    assert line_integral_unit(p, a, np.zeros(2)) == pytest.approx(p(a), rel=1e-14)


def test_line_integral_quadratic_closed_form():
    # int_0^1 (a + s*d)^2 ds == a^2 + a*d + d^2/3; frozen from Simpson oracle
    p = P("x1^2")
    a, d = 0.7, -1.9
    expected = a * a + a * d + d * d / 3
    got = line_integral_unit(p, [a, 5.0], [d, 2.0])
    assert got == pytest.approx(expected, rel=1e-14)
    oracle = simpson(lambda s: (a + s * d) ** 2)
    assert got == pytest.approx(oracle, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(polys(nvars=3, max_degree=4, max_terms=6), points(3), points(3))
def test_line_integral_matches_quadrature(p, a, b):
    oracle = simpson(lambda s: p(a + s * b))
    assert line_integral_unit(p, a, b) == pytest.approx(oracle, abs=1e-9, rel=1e-9)


def test_line_integral_matches_adaptive_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(9)
    for _ in range(10):
        terms = {
            tuple(rng.integers(0, 2, size=3)): rng.uniform(-3, 3) for _ in range(5)
        }
        p = Polynomial(3, terms)
        a = rng.uniform(-2, 2, size=3)
        b = rng.uniform(-2, 2, size=3)
        oracle, _ = quad(lambda s: p(a + s * b), 0.0, 1.0, epsabs=1e-12)
        assert line_integral_unit(p, a, b) == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(polys(max_degree=3), points(), points())
def test_line_integral_form_agrees(p, a, b):
    q = line_integral_form(p)
    assert q.nvars == 4
    direct = line_integral_unit(p, a, b)
    assert q(np.concatenate([a, b])) == pytest.approx(direct, rel=1e-12, abs=1e-12)


# -- text format --------------------------------------------------------------


def test_text_round_trip_exact():
    p = Polynomial(2, {(0, 0): 0.1, (2, 1): -1 / 3, (0, 3): 7.25e-9})
    assert poly_from_text(poly_to_text(p), 2) == p


def test_text_aliases():
    names = ["phi", "psi"]
    p = poly_from_text("-psi - 1.5*phi^2 - 0.5*phi^3", 2, names)
    assert p == P("-x2 - 1.5*x1^2 - 0.5*x1^3")
    assert "phi" in poly_to_text(p, names)


def test_parse_error_carries_position():
    with pytest.raises(PolyParseError) as err:
        poly_from_text("x1 + 2*zz", 2)
    assert err.value.line == 1
    assert err.value.col == 8


def test_parse_rejects_dangling_sign():
    with pytest.raises(PolyParseError):
        poly_from_text("x1 +", 2)


def test_parse_caps_term_degree():
    cap = MAX_TERM_DEGREE
    assert poly_from_text(f"x1^{cap}", 1).degree() == cap
    assert poly_from_text(f"x1^{cap - 1}*x2 + x2^{cap}", 2).degree() == cap
    # the column is the factor that takes the term above the cap
    with pytest.raises(PolyParseError, match=f"term degree {cap + 1} is above the cap") as err:
        poly_from_text(f"1 + 2*x1^{cap - 1}*x2^2", 2)
    assert (err.value.line, err.value.col) == (1, 13)
    with pytest.raises(PolyParseError, match="above the cap"):
        poly_from_text("x1^4000", 1)


def test_zero_renders_and_parses():
    assert poly_to_text(Polynomial.zero(3)) == "0.0"
    assert poly_from_text("0.0", 3).is_zero()


# -- matrices -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(polys(nvars=3), polys(nvars=3), points(3))
def test_column_as_function_matches_entry_functions(p, q, x):
    col = PolyMatrix.column([p, q]).as_function()
    expected = np.array([p.as_function()(*x), q.as_function()(*x)])
    assert np.array_equal(col(x), expected)
    with pytest.raises(ValueError, match="column"):
        PolyMatrix(3, 1, 2, [[p, q]]).as_function()


def test_eval_many_matrix():
    f = PolyMatrix.column([P("x1*x2"), P("x2^2")])
    pts = np.array([[1.0, 2.0], [3.0, -1.0]])
    out = f.eval_many(pts)
    assert out.shape == (2, 2, 1)
    np.testing.assert_allclose(out[:, 0, 0], [2.0, -3.0])
    np.testing.assert_allclose(out[:, 1, 0], [4.0, 1.0])
