"""Sum-of-squares constraint compilation and certificate recovery.

A constraint declares that a polynomial whose coefficients are affine in
decision parameters lies in the SOS cone. Such a polynomial (ParamPoly) is
one plain Polynomial per parameter plus a parameter-free part, so all of its
arithmetic is Polynomial arithmetic. Compilation takes the declared
parameter list, introduces one Gram matrix block per constraint and equates
basis products against the coefficients of the parts; matrix interval
bounds lo*I <= P <= hi*I become two extra PSD blocks tied to P entry-wise.
The same basis-product table reproduces a recovered certificate.

Two constraint kinds are supported:

* ScalarSos: plain SOS membership in the declared variables.
* QuadraticFormSos: the expression is homogeneous of degree exactly two in
  a trailing group of delta-variables. The Gram basis is then built as
  (x-monomial) x (delta-component) products, which keeps problems at the
  scale of the underlying matrix inequality instead of the naive monomial
  encoding.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .poly import Monomial, Polynomial
from .sdp import SdpProblem, SdpStatus, SolveOptions, solve

# parameter references: ("name",) scalar, ("name", i, j) symmetric matrix entry
ParamKey = tuple


@dataclass(frozen=True)
class ScalarParam:
    name: str


@dataclass(frozen=True)
class MatrixParam:
    name: str
    dim: int


def _canon_param(key: ParamKey) -> ParamKey:
    if len(key) == 3:
        return (key[0], max(key[1], key[2]), min(key[1], key[2]))
    return key


def _param_value(key: ParamKey, values: dict[str, object]) -> float:
    if len(key) == 1:
        return float(values[key[0]])
    name, i, j = key
    return float(np.asarray(values[name])[i, j])


class ParamPoly:
    """A polynomial affine in decision parameters: the sum over parts of
    parameter * Polynomial, with the key None for the parameter-free part."""

    __slots__ = ("nvars", "parts")

    def __init__(self, nvars: int, parts: dict[ParamKey | None, Polynomial] | None = None):
        self.nvars = nvars
        self.parts: dict[ParamKey | None, Polynomial] = {}
        for key, p in (parts or {}).items():
            if p.nvars != nvars:
                raise ValueError("arity mismatch")
            if not p.is_zero():
                self.parts[key] = p

    @classmethod
    def from_poly(cls, p: Polynomial) -> "ParamPoly":
        return cls(p.nvars, {None: p})

    @classmethod
    def param(cls, nvars: int, key: ParamKey, multiplier: Polynomial | None = None) -> "ParamPoly":
        """multiplier(x) * parameter; multiplier defaults to 1."""
        if multiplier is None:
            multiplier = Polynomial.constant(nvars, 1.0)
        return cls(nvars, {_canon_param(key): multiplier})

    def _map(self, fn) -> "ParamPoly":
        return ParamPoly(self.nvars, {key: fn(p) for key, p in self.parts.items()})

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = ParamPoly.from_poly(other)
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        parts = dict(self.parts)
        for key, p in other.parts.items():
            parts[key] = parts[key] + p if key in parts else p
        return ParamPoly(self.nvars, parts)

    def __neg__(self):
        return self._map(Polynomial.__neg__)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: float) -> "ParamPoly":
        return self._map(lambda p: p * c)

    def mul_poly(self, p: Polynomial) -> "ParamPoly":
        """Multiply by a parameter-free polynomial (keeps coefficient affinity)."""
        return self._map(lambda part: part * p)

    def embed(self, nvars: int, offset: int = 0) -> "ParamPoly":
        return ParamPoly(nvars, {key: p.embed(nvars, offset) for key, p in self.parts.items()})

    def substitute_params(self, values: dict[str, object]) -> Polynomial:
        out = Polynomial.zero(self.nvars)
        for key, p in self.parts.items():
            out = out + (p if key is None else p * _param_value(key, values))
        return out

    def monomials(self) -> list[Monomial]:
        """Monomials with a nonzero coefficient in some part, first seen first."""
        return list(dict.fromkeys(m for p in self.parts.values() for m in p.terms))

    def degree(self) -> int:
        return max((p.degree() for p in self.parts.values()), default=-1)


class SosKind(enum.Enum):
    SCALAR = "scalar"
    QUADRATIC_FORM = "quadratic_form"


@dataclass
class SosConstraint:
    """expression in the SOS cone; for QUADRATIC_FORM the last ndelta
    variables are the quadratic-form directions."""

    name: str
    expression: ParamPoly
    kind: SosKind = SosKind.SCALAR
    ndelta: int = 0

    def __post_init__(self):
        if self.kind is SosKind.QUADRATIC_FORM:
            if self.ndelta < 1:
                raise ValueError("quadratic-form constraint needs ndelta >= 1")
            nx = self.nx
            for m in self.expression.monomials():
                if sum(m[nx:]) != 2:
                    raise ValueError(
                        f"constraint {self.name!r}: expression is not homogeneous "
                        f"degree 2 in the delta variables (monomial {m})"
                    )

    @property
    def nx(self) -> int:
        return self.expression.nvars - self.ndelta


@dataclass
class MatrixBound:
    """lo * I <= param <= hi * I."""

    param: MatrixParam
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError("matrix bound requires lo <= hi")


class OddDegreeError(ValueError):
    """An odd-total-degree expression admits no SOS basis."""


def monomials_upto(nvars: int, degree: int) -> list[Monomial]:
    """All monomials of total degree <= degree, graded, x1-major within a grade."""
    out: list[Monomial] = []
    for total in range(degree + 1):
        grade = [
            m
            for m in itertools.product(range(total, -1, -1), repeat=nvars)
            if sum(m) == total
        ]
        grade.sort(key=lambda m: tuple(-e for e in m))
        out.extend(grade)
    return out


def gram_basis(constraint: SosConstraint) -> list[Monomial]:
    """Monomial basis indexing the Gram matrix of a constraint.

    ScalarSos: monomials up to half the structural degree. QuadraticFormSos:
    (x-monomials up to half the x-degree) crossed with each delta component.
    """
    expr = constraint.expression
    if constraint.kind is SosKind.SCALAR:
        deg = expr.degree()
        if deg < 0:
            return []
        if deg % 2 == 1:
            raise OddDegreeError(
                f"constraint {constraint.name!r} has odd total degree {deg}; "
                "no SOS representation basis exists"
            )
        return monomials_upto(expr.nvars, deg // 2)
    nx, nd = constraint.nx, constraint.ndelta
    xdeg = max((sum(m[:nx]) for m in expr.monomials()), default=0)
    xmonos = monomials_upto(nx, (xdeg + 1) // 2)
    basis = []
    for mx in xmonos:
        for k in range(nd):
            basis.append(mx + tuple(1 if i == k else 0 for i in range(nd)))
    return basis


@dataclass
class CompileInfo:
    gram_blocks: dict[str, tuple[str, list[Monomial]]] = field(default_factory=dict)
    n_equalities: int = 0
    block_dims: dict[str, int] = field(default_factory=dict)
    n_scalar_vars: int = 0

    def summary(self) -> str:
        blocks = ", ".join(f"{n}:{d}x{d}" for n, d in self.block_dims.items())
        return (
            f"{self.n_scalar_vars} scalar variables, "
            f"{len(self.block_dims)} matrix blocks ({blocks}), "
            f"{self.n_equalities} equality constraints"
        )


def _mono_name(m: Monomial) -> str:
    return "_".join(str(e) for e in m)


def _basis_products(basis: list[Monomial]) -> dict[Monomial, list[tuple[int, int, float]]]:
    """The products basis[a]*basis[b], a <= b, grouped by monomial as
    (a, b, multiplicity) with multiplicity 1 on the diagonal and 2 off it:
    v' G v is the sum over each monomial's entries of multiplicity * G[a, b]."""
    products: dict[Monomial, list[tuple[int, int, float]]] = {}
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            m = tuple(x + y for x, y in zip(basis[a], basis[b]))
            products.setdefault(m, []).append((a, b, 1.0 if a == b else 2.0))
    return products


def _check_declared(key: ParamKey, declared: dict[str, object]):
    name = key[0]
    p = declared.get(name)
    if p is None:
        raise ValueError(f"parameter {name!r} used but not declared")
    kind = MatrixParam if len(key) == 3 else ScalarParam
    if not isinstance(p, kind):
        raise ValueError(f"parameter {name!r} used as {kind.__name__} but declared "
                         f"as {type(p).__name__}")
    if len(key) == 3 and not 0 <= key[2] <= key[1] < p.dim:
        raise ValueError(f"parameter {name!r} entry {key[1:]} is beyond its declared "
                         f"dimension {p.dim}")


def compile(
    constraints: list[SosConstraint],
    bounds: list[MatrixBound] | None = None,
    params: list[object] | None = None,
) -> tuple[SdpProblem, CompileInfo]:
    """Compile SOS constraints plus matrix interval bounds to an SdpProblem.

    params declares the decision parameters, in the order they become SDP
    variables (default: none): scalars free, matrices as PSD blocks, each
    matrix with a bound of lo >= 0. Every parameter a constraint uses must
    be declared, with its kind and within its dimension. Gram blocks and
    coefficient-matching equalities encode the SOS memberships.
    """
    bounds = bounds or []
    params = list(params or [])

    names = set()
    for c in constraints:
        if c.name in names:
            raise ValueError(f"duplicate constraint name {c.name!r}")
        names.add(c.name)

    declared = {p.name: p for p in params}
    for c in constraints:
        for key in c.expression.parts:
            if key is not None:
                _check_declared(key, declared)
    for b in bounds:
        if declared.get(b.param.name) != b.param:
            raise ValueError(f"bound on {b.param.name!r} does not match a declared "
                             "matrix parameter")
        if b.lo < 0:
            raise ValueError(
                f"bound on {b.param.name!r} has lo < 0; only PSD-representable "
                "matrix parameters are supported"
            )
    bounded = {b.param.name for b in bounds}
    for p in params:
        if isinstance(p, MatrixParam) and p.name not in bounded:
            raise ValueError(
                f"matrix parameter {p.name!r} has no interval bound; a bound "
                "with lo >= 0 is required to encode it as a PSD block"
            )

    prob = SdpProblem()
    info = CompileInfo()
    for p in params:
        if isinstance(p, MatrixParam):
            prob.add_block(p.name, p.dim)
            info.block_dims[p.name] = p.dim
        else:
            prob.add_scalar(p.name, "free")
            info.n_scalar_vars += 1

    for c in constraints:
        basis = gram_basis(c)
        if not basis:
            continue  # the zero expression: nothing to match
        gname = f"gram.{c.name}"
        prob.add_block(gname, len(basis))
        info.block_dims[gname] = len(basis)
        info.gram_blocks[c.name] = (gname, basis)

        # coefficient matching: one equality per monomial reachable by basis
        # products or present in some part of the expression
        rows = {
            m: {(gname, b, a): mult for a, b, mult in pairs}
            for m, pairs in _basis_products(basis).items()
        }
        rhs: dict[Monomial, float] = {}
        for key, part in c.expression.parts.items():
            for m, coeff in part.terms.items():
                row = rows.setdefault(m, {})
                if key is None:
                    rhs[m] = coeff
                else:
                    row[key] = -coeff
        for m in sorted(rows, key=lambda mm: (sum(mm), tuple(-e for e in mm))):
            prob.add_equality(rows[m], rhs.get(m, 0.0), name=f"{c.name}.{_mono_name(m)}")
            info.n_equalities += 1

    for b in bounds:
        n = b.param.dim
        lo_name, hi_name = f"{b.param.name}.lo", f"{b.param.name}.hi"
        prob.add_block(lo_name, n)
        prob.add_block(hi_name, n)
        info.block_dims[lo_name] = n
        info.block_dims[hi_name] = n
        for i in range(n):
            for j in range(i + 1):
                ident = 1.0 if i == j else 0.0
                prob.add_equality(
                    {(b.param.name, i, j): 1.0, (lo_name, i, j): -1.0},
                    b.lo * ident,
                    name=f"{b.param.name}.lo.{i}_{j}",
                )
                prob.add_equality(
                    {(b.param.name, i, j): 1.0, (hi_name, i, j): 1.0},
                    b.hi * ident,
                    name=f"{b.param.name}.hi.{i}_{j}",
                )
                info.n_equalities += 2
    prob.validate()
    return prob, info


# -- certificates -----------------------------------------------------------


@dataclass
class SosCertificate:
    basis: list[Monomial]
    gram: np.ndarray

    def reproduce(self, nvars: int) -> Polynomial:
        """basis' * gram * basis as a plain polynomial."""
        terms: dict[Monomial, float] = {}
        for m, pairs in _basis_products(self.basis).items():
            c = 0.0
            for a, b, mult in pairs:
                c += mult * self.gram[a, b]
            terms[m] = c
        return Polynomial(nvars, terms)

    def digest(self) -> str:
        h = hashlib.sha256()
        for m in self.basis:
            h.update(repr(m).encode())
        h.update(np.ascontiguousarray(self.gram).tobytes())
        return h.hexdigest()[:16]


CERT_TOL = 1e-9


def recover_certificate(
    info: CompileInfo, cname: str, values: dict[str, object], cert_tol: float = CERT_TOL
) -> SosCertificate:
    """Extract a Gram block, restore exact symmetry, clip tiny eigenvalues."""
    gname, basis = info.gram_blocks[cname]
    G = np.asarray(values[gname], dtype=float)
    G = (G + G.T) / 2.0
    lam, V = np.linalg.eigh(G)
    lam = np.where(lam < cert_tol, 0.0, lam)
    G = (V * lam) @ V.T
    G = (G + G.T) / 2.0
    return SosCertificate(list(basis), G)


def check_certificate(p: Polynomial, cert: SosCertificate, tol: float) -> bool:
    """True iff the Gram witness reproduces p within tol and is PSD within tol."""
    if cert.basis:
        if len(cert.basis[0]) != p.nvars:
            return False
        lam_min = float(np.linalg.eigvalsh((cert.gram + cert.gram.T) / 2.0).min())
    else:
        lam_min = 0.0
    if lam_min < -tol:
        return False
    diff = cert.reproduce(p.nvars) - p
    return diff.max_abs_coeff() <= tol


@dataclass
class SosResult:
    status: SdpStatus
    certificate: SosCertificate | None
    iterations: int
    message: str = ""


def is_sos(p: Polynomial, opts: SolveOptions | None = None) -> SosResult:
    """Decide SOS membership of a concrete polynomial.

    Odd total degree is decided without solving; otherwise a single-block
    Gram feasibility problem is compiled and solved.
    """
    deg = p.degree()
    if deg >= 0 and deg % 2 == 1:
        return SosResult(
            SdpStatus.INFEASIBLE, None, 0, message=f"odd total degree {deg}"
        )
    con = SosConstraint("p", ParamPoly.from_poly(p))
    prob, info = compile([con])
    sol = solve(prob, opts)
    if sol.status is SdpStatus.FEASIBLE:
        if "p" in info.gram_blocks:
            cert = recover_certificate(info, "p", sol.values)
        else:
            cert = SosCertificate([], np.zeros((0, 0)))
        return SosResult(SdpStatus.FEASIBLE, cert, sol.iterations)
    return SosResult(sol.status, None, sol.iterations, message=sol.message)
