"""Sum-of-squares constraint compilation and certificate recovery.

A constraint declares that a polynomial whose coefficients are affine in
decision parameters lies in the SOS cone. Compilation introduces one Gram
matrix block per constraint and equates basis products against expression
coefficients; matrix interval bounds lo*I <= P <= hi*I become two extra PSD
blocks tied to P entry-wise.

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


class AffExpr:
    """Affine expression const + sum(coeff * param)."""

    __slots__ = ("const", "lin")

    def __init__(self, const: float = 0.0, lin: dict[ParamKey, float] | None = None):
        self.const = float(const)
        self.lin: dict[ParamKey, float] = {}
        if lin:
            for k, v in lin.items():
                v = float(v)
                if v != 0.0:
                    self.lin[k] = self.lin.get(k, 0.0) + v

    def __add__(self, other):
        if not isinstance(other, AffExpr):
            other = AffExpr(other)
        lin = dict(self.lin)
        for k, v in other.lin.items():
            s = lin.get(k, 0.0) + v
            if s == 0.0:
                lin.pop(k, None)
            else:
                lin[k] = s
        return AffExpr(self.const + other.const, lin)

    def __neg__(self):
        return AffExpr(-self.const, {k: -v for k, v in self.lin.items()})

    def __sub__(self, other):
        if not isinstance(other, AffExpr):
            other = AffExpr(other)
        return self + (-other)

    def scale(self, c: float) -> "AffExpr":
        c = float(c)
        if c == 0.0:
            return AffExpr(0.0)
        return AffExpr(self.const * c, {k: v * c for k, v in self.lin.items()})

    def is_zero(self) -> bool:
        return self.const == 0.0 and not self.lin

    def value(self, values: dict[str, object]) -> float:
        out = self.const
        for key, coeff in self.lin.items():
            if len(key) == 1:
                out += coeff * float(values[key[0]])
            else:
                name, i, j = key
                out += coeff * float(np.asarray(values[name])[i, j])
        return out

    def __repr__(self):
        return f"AffExpr({self.const!r}, {self.lin!r})"


def _canon_param(key: ParamKey) -> ParamKey:
    if len(key) == 3:
        return (key[0], max(key[1], key[2]), min(key[1], key[2]))
    return key


class ParamPoly:
    """Polynomial with AffExpr coefficients (affine in decision parameters)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, AffExpr] | None = None):
        self.nvars = nvars
        self.terms: dict[Monomial, AffExpr] = {}
        if terms:
            for m, e in terms.items():
                if not e.is_zero():
                    self.terms[tuple(m)] = e

    @classmethod
    def from_poly(cls, p: Polynomial) -> "ParamPoly":
        return cls(p.nvars, {m: AffExpr(c) for m, c in p.terms.items()})

    @classmethod
    def param(cls, nvars: int, key: ParamKey, multiplier: Polynomial | None = None) -> "ParamPoly":
        """multiplier(x) * parameter; multiplier defaults to 1."""
        key = _canon_param(key)
        if multiplier is None:
            return cls(nvars, {(0,) * nvars: AffExpr(0.0, {key: 1.0})})
        return cls(
            multiplier.nvars,
            {m: AffExpr(0.0, {key: c}) for m, c in multiplier.terms.items()},
        )

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = ParamPoly.from_poly(other)
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        terms = dict(self.terms)
        for m, e in other.terms.items():
            s = terms.get(m, AffExpr()) + e
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
        return ParamPoly(self.nvars, terms)

    def __neg__(self):
        return ParamPoly(self.nvars, {m: -e for m, e in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            other = ParamPoly.from_poly(other)
        return self + (-other)

    def scale(self, c: float) -> "ParamPoly":
        return ParamPoly(self.nvars, {m: e.scale(c) for m, e in self.terms.items()})

    def mul_poly(self, p: Polynomial) -> "ParamPoly":
        """Multiply by a parameter-free polynomial (keeps coefficient affinity)."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        terms: dict[Monomial, AffExpr] = {}
        for m1, e in self.terms.items():
            for m2, c in p.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, AffExpr()) + e.scale(c)
        return ParamPoly(self.nvars, terms)

    def embed(self, nvars: int, offset: int = 0) -> "ParamPoly":
        terms = {}
        for m, e in self.terms.items():
            new = [0] * nvars
            new[offset : offset + self.nvars] = m
            terms[tuple(new)] = e
        return ParamPoly(nvars, terms)

    def substitute_params(self, values: dict[str, object]) -> Polynomial:
        return Polynomial(self.nvars, {m: e.value(values) for m, e in self.terms.items()})

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def param_keys(self) -> set[ParamKey]:
        out = set()
        for e in self.terms.values():
            out.update(e.lin.keys())
        return out


class SosKind(enum.Enum):
    SCALAR = "scalar"
    QUADRATIC_FORM = "quadratic_form"


@dataclass
class SosConstraint:
    """expression in the SOS cone; for QUADRATIC_FORM the last ndelta
    variables are the quadratic-form directions. half_degree, when given,
    enlarges the Gram basis beyond the structural minimum."""

    name: str
    expression: ParamPoly
    kind: SosKind = SosKind.SCALAR
    ndelta: int = 0
    half_degree: int | None = None

    def __post_init__(self):
        if self.kind is SosKind.QUADRATIC_FORM:
            if self.ndelta < 1:
                raise ValueError("quadratic-form constraint needs ndelta >= 1")
            nx = self.nx
            for m in self.expression.terms:
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
    override = constraint.half_degree or 0
    if constraint.kind is SosKind.SCALAR:
        deg = expr.degree()
        if deg < 0:
            return monomials_upto(expr.nvars, override) if override else []
        if deg % 2 == 1:
            raise OddDegreeError(
                f"constraint {constraint.name!r} has odd total degree {deg}; "
                "no SOS representation basis exists"
            )
        return monomials_upto(expr.nvars, max(deg // 2, override))
    nx, nd = constraint.nx, constraint.ndelta
    xdeg = max((sum(m[:nx]) for m in expr.terms), default=0)
    xmonos = monomials_upto(nx, max((xdeg + 1) // 2, override))
    basis = []
    for mx in xmonos:
        for k in range(nd):
            basis.append(mx + tuple(1 if i == k else 0 for i in range(nd)))
    return basis


@dataclass
class CompileInfo:
    gram_blocks: dict[str, tuple[str, list[Monomial]]] = field(default_factory=dict)
    params: list[object] = field(default_factory=list)
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


def compile(
    constraints: list[SosConstraint],
    bounds: list[MatrixBound] | None = None,
    params: list[object] | None = None,
) -> tuple[SdpProblem, CompileInfo]:
    """Compile SOS constraints plus matrix interval bounds to an SdpProblem.

    Decision parameters become SDP variables: scalars free, matrices as PSD
    blocks (each matrix parameter must carry a bound with lo >= 0). Gram
    blocks and coefficient-matching equalities encode the SOS memberships.
    """
    bounds = bounds or []

    names = set()
    for c in constraints:
        if c.name in names:
            raise ValueError(f"duplicate constraint name {c.name!r}")
        names.add(c.name)

    # collect parameters (declared order wins; otherwise sorted by name)
    seen_keys: set[ParamKey] = set()
    for c in constraints:
        seen_keys |= c.expression.param_keys()
    by_name: dict[str, object] = {}
    for key in seen_keys:
        nm = key[0]
        if len(key) == 1:
            existing = by_name.get(nm)
            if isinstance(existing, MatrixParam):
                raise ValueError(f"parameter {nm!r} used as scalar and matrix")
            by_name[nm] = ScalarParam(nm)
        else:
            d = max(key[1], key[2]) + 1
            existing = by_name.get(nm)
            if isinstance(existing, MatrixParam):
                d = max(d, existing.dim)
            by_name[nm] = MatrixParam(nm, d)
    for b in bounds:
        existing = by_name.get(b.param.name)
        if existing is not None and isinstance(existing, MatrixParam):
            if existing.dim > b.param.dim:
                raise ValueError(
                    f"bound on {b.param.name!r} declares dim {b.param.dim} "
                    f"but entries up to {existing.dim} are referenced"
                )
        by_name[b.param.name] = b.param
    if params is not None:
        declared = {p.name: p for p in params}
        for nm, inferred in by_name.items():
            if nm not in declared:
                raise ValueError(f"parameter {nm!r} used but not declared")
            if isinstance(inferred, MatrixParam) and not isinstance(
                declared[nm], MatrixParam
            ):
                raise ValueError(f"parameter {nm!r}: matrix/scalar mismatch")
        ordered = list(params)
    else:
        ordered = [by_name[nm] for nm in sorted(by_name)]

    bounded = {b.param.name for b in bounds}
    for p in ordered:
        if isinstance(p, MatrixParam) and p.name not in bounded:
            raise ValueError(
                f"matrix parameter {p.name!r} has no interval bound; a bound "
                "with lo >= 0 is required to encode it as a PSD block"
            )
    for b in bounds:
        if b.lo < 0:
            raise ValueError(
                f"bound on {b.param.name!r} has lo < 0; only PSD-representable "
                "matrix parameters are supported"
            )

    prob = SdpProblem()
    info = CompileInfo(params=ordered)
    for p in ordered:
        if isinstance(p, MatrixParam):
            prob.add_block(p.name, p.dim)
            info.block_dims[p.name] = p.dim
        else:
            prob.add_scalar(p.name, "free")
            info.n_scalar_vars += 1

    for c in constraints:
        basis = gram_basis(c)
        gname = f"gram.{c.name}"
        dim = len(basis)
        if dim == 0:
            # zero expression: nothing to certify beyond exact zero coefficients
            for m, e in c.expression.terms.items():
                prob.add_equality(
                    {k: -v for k, v in e.lin.items()},
                    e.const,
                    name=f"{c.name}.{_mono_name(m)}",
                )
                info.n_equalities += 1
            continue
        prob.add_block(gname, dim)
        info.block_dims[gname] = dim
        info.gram_blocks[c.name] = (gname, basis)

        # coefficient matching: every monomial reachable by basis products or
        # present in the expression gets one equality
        products: dict[Monomial, dict[tuple[int, int], float]] = {}
        for a in range(dim):
            for b_i in range(a, dim):
                m = tuple(x + y for x, y in zip(basis[a], basis[b_i]))
                mult = 1.0 if a == b_i else 2.0
                products.setdefault(m, {})[(b_i, a)] = mult
        monos = set(products) | set(c.expression.terms)
        for m in sorted(monos, key=lambda mm: (sum(mm), tuple(-e for e in mm))):
            terms: dict = {}
            for (bi, ai), mult in products.get(m, {}).items():
                terms[(gname, bi, ai)] = terms.get((gname, bi, ai), 0.0) + mult
            e = c.expression.terms.get(m, AffExpr())
            for k, v in e.lin.items():
                terms[k] = terms.get(k, 0.0) - v
            prob.add_equality(terms, e.const, name=f"{c.name}.{_mono_name(m)}")
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
        dim = len(self.basis)
        for a in range(dim):
            for b in range(a, dim):
                m = tuple(x + y for x, y in zip(self.basis[a], self.basis[b]))
                mult = 1.0 if a == b else 2.0
                c = mult * self.gram[a, b]
                if c:
                    terms[m] = terms.get(m, 0.0) + c
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
