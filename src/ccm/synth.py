"""Contraction-metric synthesis for polynomial control-affine systems.

Builds the controller and observer feasibility programs

    -delta'( W A(x)' + A(x) W - rho_c(x) B B' + 2 lambda W ) delta  in SOS
    -delta'( A(x)' W + W A(x) - rho_o(x) C' C + 2 lambda W ) delta  in SOS
    rho in SOS,   alpha1 I <= W <= alpha2 I

with constant symmetric W and a polynomial multiplier rho, compiles them
through the sos module, and independently re-verifies solutions as
pointwise matrix inequalities on sampling grids. The observer program is
the controller program of the transposed system (A -> A', B -> C'), which
is how it is constructed here.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .poly import PolyMatrix, Polynomial, jacobian, linear_source, poly_from_text, poly_to_text
from .sdp import SdpProblem, SdpSolution, SdpStatus, SolveOptions, solve
from .sos import (
    CompileInfo,
    MatrixBound,
    MatrixParam,
    ParamPoly,
    ScalarParam,
    SosCertificate,
    SosConstraint,
    SosKind,
    check_certificate,
    compile as sos_compile,
    monomials_upto,
    recover_certificate,
)

# factor on lambda*W in the synthesis inequality; 2.0 makes the certified
# exponential rate of the closed loop equal to lambda
RATE_MULTIPLIER = 2.0

# largest accepted multiplier degree: the Gram blocks grow combinatorially
# with it (degree 6 on two states already takes about 0.1 s per program)
MAX_RHO_DEGREE = 10

# largest accepted verification grid, grid^n points: 2^21, grid 1448 on two
# states, about 0.3 GB of LMI values and eigenvalues at n = 2
MAX_GRID_POINTS = 2**21


@dataclass
class SystemModel:
    """Polynomial control-affine system: xdot = f(x) + B u, y = C x."""

    f: PolyMatrix
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if self.f.cols != 1:
            raise ValueError("f must be a column matrix")
        n = self.f.rows
        if self.f.nvars != n:
            raise ValueError("f must have one variable per state")
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns")
        f_coeffs = [c for i in range(n) for c in self.f.entry(i, 0).terms.values()]
        for name, values in (("B", self.B), ("C", self.C), ("f", f_coeffs)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")

    def __eq__(self, other):
        if not isinstance(other, SystemModel):
            return NotImplemented
        return (self.f == other.f and np.array_equal(self.B, other.B)
                and np.array_equal(self.C, other.C))

    @property
    def n(self) -> int:
        return self.f.rows

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def jacobian(self) -> PolyMatrix:
        return jacobian(self.f)

    @cached_property
    def f_value(self):
        """f compiled once per model: f_value(x) -> (n,) array, with the
        entry expressions of rhs_source. For point checks such as the
        equilibrium test of a control target; the loops run generated
        source instead."""
        return self.f.as_function()

    def rhs_source(self, xs: list[str], us: list[str] | None = None) -> list[str]:
        """f(x) + B u as one source expression per state, in the names xs, us;
        f(x) alone when us is None."""
        fs = [self.f.entry(i, 0)._source(xs) for i in range(self.n)]
        if us is None:
            return fs
        return [f"({fi}) + ({linear_source(self.B[i], us)})" for i, fi in enumerate(fs)]


class Role(enum.Enum):
    CONTROLLER = "controller"
    OBSERVER = "observer"


@dataclass
class ContractionMetric:
    """Constant metric certificate: W, multiplier rho, rate and W-bounds."""

    W: np.ndarray
    rho: Polynomial
    lam: float
    alpha1: float
    alpha2: float
    rho_certificate: SosCertificate | None = None
    lmi_certificate: SosCertificate | None = None
    # digests survive serialization even though full certificates do not
    rho_digest: str | None = None
    lmi_digest: str | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1]:
            raise ValueError("W must be square")
        if np.abs(self.W - self.W.T).max() > 1e-9 * max(1.0, np.abs(self.W).max()):
            raise ValueError("W must be symmetric")
        self.W = (self.W + self.W.T) / 2.0

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def w_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.W)

    def m_bounds(self) -> tuple[float, float]:
        """Bounds on the inverse metric M = W^-1 (reciprocal of the W range)."""
        lam = self.w_eigenvalues()
        return float(1.0 / lam[-1]), float(1.0 / lam[0])


class ControllerMetric(ContractionMetric):
    role = Role.CONTROLLER

    @property
    def M(self) -> np.ndarray:
        """Contraction metric M = W^-1."""
        return np.linalg.inv(self.W)

    @property
    def theta(self) -> np.ndarray:
        """Upper-triangular factor with theta' theta = M."""
        L = np.linalg.cholesky(self.M)
        return L.T


class ObserverMetric(ContractionMetric):
    role = Role.OBSERVER  # for the observer, W itself is the contraction metric


@dataclass
class SynthesisProgram:
    role: Role
    constraints: list[SosConstraint]
    bounds: list[MatrixBound]
    params: list[object]
    lam: float
    alpha1: float
    alpha2: float
    w_name: str
    rho_monomials: list[tuple[int, ...]]
    rho_prefix: str


def metric_constraints(
    A: PolyMatrix,
    G: np.ndarray,
    lam: float,
    alpha1: float,
    alpha2: float,
    rho_degree: int = 2,
    w_name: str = "W",
    rho_prefix: str = "rho",
    constraint_name: str = "ccm",
) -> tuple[list[SosConstraint], list[MatrixBound], list[object], list[tuple[int, ...]]]:
    """Shared constraint builder for both synthesis roles.

    Emits the quadratic-form constraint for
    -(W A' + A W - rho G G' + RATE_MULTIPLIER*lam W) and rho in SOS, plus
    the interval bound alpha1 I <= W <= alpha2 I.
    """
    for name, value in (("lambda", lam), ("alpha1", alpha1), ("alpha2", alpha2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not (0 < alpha1 <= alpha2):
        raise ValueError("need 0 < alpha1 <= alpha2")
    if not 0 <= rho_degree <= MAX_RHO_DEGREE:
        raise ValueError(f"rho_degree must be in [0, {MAX_RHO_DEGREE}], got {rho_degree}")
    n = A.rows
    G = np.atleast_2d(np.asarray(G, dtype=float))
    GGt = G @ G.T
    nvars = 2 * n  # x then delta
    rho_monos = monomials_upto(n, rho_degree)
    rho = ParamPoly(n, {(f"{rho_prefix}{k}",): Polynomial(n, {m: 1.0})
                        for k, m in enumerate(rho_monos)})

    def wa_entry(i: int, j: int) -> ParamPoly:
        # (W A')_ij = sum_k W_ik * A_jk
        acc = ParamPoly(n)
        for k in range(n):
            a = A.entry(j, k)
            if not a.is_zero():
                acc = acc + ParamPoly.param(n, (w_name, i, k), a)
        return acc

    expr = ParamPoly(nvars)
    for i in range(n):
        for j in range(i, n):
            s_ij = wa_entry(i, j) + wa_entry(j, i)
            s_ij = s_ij - rho.scale(GGt[i, j])
            s_ij = s_ij + ParamPoly.param(
                n, (w_name, i, j), Polynomial.constant(n, RATE_MULTIPLIER * lam)
            )
            s_ij = -s_ij
            delta_mono = tuple(
                (1 if t == n + i else 0) + (1 if t == n + j else 0)
                for t in range(nvars)
            )
            mult = 1.0 if i == j else 2.0
            expr = expr + s_ij.embed(nvars).mul_poly(
                Polynomial(nvars, {delta_mono: mult})
            )

    main = SosConstraint(constraint_name, expr, kind=SosKind.QUADRATIC_FORM, ndelta=n)
    rho_con = SosConstraint(f"{constraint_name}.rho", rho)
    W = MatrixParam(w_name, n)
    bounds = [MatrixBound(W, alpha1, alpha2)]
    params: list[object] = [W] + [ScalarParam(f"{rho_prefix}{k}") for k in range(len(rho_monos))]
    return [main, rho_con], bounds, params, rho_monos


def controller_program(
    model: SystemModel, lam: float, alpha1: float, alpha2: float, rho_degree: int = 2
) -> SynthesisProgram:
    cons, bounds, params, rho_monos = metric_constraints(
        model.jacobian(), model.B, lam, alpha1, alpha2, rho_degree,
        w_name="Wc", rho_prefix="rc", constraint_name="ccm",
    )
    return SynthesisProgram(
        Role.CONTROLLER, cons, bounds, params, lam, alpha1, alpha2,
        "Wc", rho_monos, "rc",
    )


def observer_program(
    model: SystemModel, lam: float, alpha1: float, alpha2: float, rho_degree: int = 2
) -> SynthesisProgram:
    # dual construction: transpose the differential dynamics, sense with C'
    cons, bounds, params, rho_monos = metric_constraints(
        model.jacobian().transpose(), model.C.T, lam, alpha1, alpha2, rho_degree,
        w_name="Wo", rho_prefix="ro", constraint_name="ocm",
    )
    return SynthesisProgram(
        Role.OBSERVER, cons, bounds, params, lam, alpha1, alpha2,
        "Wo", rho_monos, "ro",
    )


class SynthStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SynthesisResult:
    status: SynthStatus
    metric: ContractionMetric | None
    solution: SdpSolution
    problem: SdpProblem
    info: CompileInfo
    program: SynthesisProgram
    wall_time: float
    message: str = ""

    @property
    def certificate(self):
        """Infeasibility certificate from the embedded solver, if any."""
        return self.solution.certificate


def synthesize(
    model: SystemModel,
    role: Role,
    lam: float,
    alpha1: float,
    alpha2: float,
    rho_degree: int = 2,
    solver_opts: SolveOptions | None = None,
) -> SynthesisResult:
    """Solve one synthesis program and certify the outcome.

    Marginal solver terminations surface as INCONCLUSIVE, never as either
    feasibility answer.
    """
    t0 = time.perf_counter()
    if role is Role.CONTROLLER:
        program = controller_program(model, lam, alpha1, alpha2, rho_degree)
    else:
        program = observer_program(model, lam, alpha1, alpha2, rho_degree)
    prob, info = sos_compile(program.constraints, program.bounds, program.params)
    sol = solve(prob, solver_opts)
    elapsed = time.perf_counter() - t0

    if sol.status is SdpStatus.MARGINAL:
        return SynthesisResult(
            SynthStatus.INCONCLUSIVE, None, sol, prob, info, program, elapsed,
            message=sol.message or "solver inconclusive",
        )
    if sol.status is SdpStatus.INFEASIBLE:
        return SynthesisResult(
            SynthStatus.INFEASIBLE, None, sol, prob, info, program, elapsed,
            message="synthesis program infeasible",
        )

    W = np.asarray(sol.values[program.w_name], dtype=float)
    rho = Polynomial(
        model.n,
        {
            m: float(sol.values[f"{program.rho_prefix}{k}"])
            for k, m in enumerate(program.rho_monomials)
        },
    )
    main_name = program.constraints[0].name
    rho_name = program.constraints[1].name
    lmi_cert = recover_certificate(info, main_name, sol.values)
    rho_cert = recover_certificate(info, rho_name, sol.values)
    cls = ControllerMetric if role is Role.CONTROLLER else ObserverMetric
    metric = cls(
        W=W, rho=rho, lam=lam, alpha1=alpha1, alpha2=alpha2,
        rho_certificate=rho_cert, lmi_certificate=lmi_cert,
    )
    msgs = []
    concrete_main = program.constraints[0].expression.substitute_params(sol.values)
    if not check_certificate(concrete_main, lmi_cert, 1e-6):
        msgs.append("contraction certificate residual above 1e-6")
    if not check_certificate(rho, rho_cert, 1e-6):
        msgs.append("multiplier certificate residual above 1e-6")
    return SynthesisResult(
        SynthStatus.FEASIBLE, metric, sol, prob, info, program, elapsed,
        message="; ".join(msgs),
    )


# -- pointwise verification ---------------------------------------------------


@dataclass
class PointwiseCheck:
    max_violation: float
    worst_point: np.ndarray
    passed: bool
    grid_points: int


def _grid_points(box: list[tuple[float, float]], grid: int) -> np.ndarray:
    axes = []
    for lo, hi in box:
        if grid == 1:
            axes.append(np.array([(lo + hi) / 2.0]))
        else:
            axes.append(np.linspace(lo, hi, grid))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def lmi_values(
    metric: ContractionMetric, model: SystemModel, points: np.ndarray,
    lam: float | None = None,
) -> np.ndarray:
    """Evaluate the synthesis matrix inequality at each point (batched).

    Returns the stacked LMI matrices; negative semidefinite means satisfied.
    """
    role = getattr(metric, "role", Role.CONTROLLER)
    lam = metric.lam if lam is None else lam
    W = metric.W
    A_batch = model.jacobian().eval_many(points)
    if role is Role.OBSERVER:
        A_batch = A_batch.transpose(0, 2, 1)
        G = model.C.T
    else:
        G = model.B
    GGt = G @ G.T
    rho_vals = metric.rho.eval_many(points)
    WA = W[None, :, :] @ A_batch.transpose(0, 2, 1)
    V = WA + WA.transpose(0, 2, 1)
    V -= rho_vals[:, None, None] * GGt[None, :, :]
    V += RATE_MULTIPLIER * lam * W[None, :, :]
    return V


def verify_pointwise(
    metric: ContractionMetric,
    model: SystemModel,
    box: list[tuple[float, float]] | None = None,
    grid: int = 101,
    tol: float = 1e-6,
    lam: float | None = None,
) -> PointwiseCheck:
    """Max eigenvalue of the synthesis LMI over a sampling grid.

    max_violation <= 0 means the inequality holds at every grid point;
    `passed` allows slack tol. The scan vectorizes over the grid and
    reduces by max.
    """
    if box is None:
        box = [(-5.0, 5.0)] * model.n
    if len(box) != model.n:
        raise ValueError("box must give one interval per state")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    if grid**model.n > MAX_GRID_POINTS:
        raise ValueError(f"grid {grid} on {model.n} states gives {grid**model.n} points, "
                         f"above the budget of {MAX_GRID_POINTS}")
    pts = _grid_points(box, grid)
    V = lmi_values(metric, model, pts, lam=lam)
    eigs = np.linalg.eigvalsh(V)
    worst_per_point = eigs[:, -1]
    k = int(np.argmax(worst_per_point))
    max_violation = float(worst_per_point[k])
    return PointwiseCheck(max_violation, pts[k], max_violation <= tol, pts.shape[0])


# -- serialization -------------------------------------------------------------
#
# Structured text document; matrices row-major with ';' between rows, rho in
# the polynomial text format, floats via repr for lossless round-trips. The
# certified model is embedded so verification needs no extra inputs.


def _fmt_matrix(M: np.ndarray) -> str:
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(M))


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


def metric_to_text(metric: ContractionMetric, model: SystemModel | None = None) -> str:
    lines = ["ccm-metric v1"]
    lines.append(f"role {metric.role.value}")
    lines.append(f"lambda {metric.lam!r}")
    lines.append(f"alpha1 {metric.alpha1!r}")
    lines.append(f"alpha2 {metric.alpha2!r}")
    lines.append(f"n {metric.n}")
    lines.append(f"W {_fmt_matrix(metric.W)}")
    lines.append(f"rho {poly_to_text(metric.rho)}")
    rho_digest = (
        metric.rho_certificate.digest() if metric.rho_certificate else metric.rho_digest
    )
    lmi_digest = (
        metric.lmi_certificate.digest() if metric.lmi_certificate else metric.lmi_digest
    )
    if rho_digest:
        lines.append(f"rho_certificate_digest {rho_digest}")
    if lmi_digest:
        lines.append(f"lmi_certificate_digest {lmi_digest}")
    if model is not None:
        for i in range(model.n):
            lines.append(f"model.f{i + 1} {poly_to_text(model.f.entry(i, 0))}")
        lines.append(f"model.B {_fmt_matrix(model.B)}")
        lines.append(f"model.C {_fmt_matrix(model.C)}")
    return "\n".join(lines) + "\n"


def metric_from_text(text: str) -> tuple[ContractionMetric, SystemModel | None]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "ccm-metric v1":
        raise ValueError("missing 'ccm-metric v1' header")
    kv: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, value = ln.partition(" ")
        if key in kv:
            raise ValueError(f"metric file repeats {key!r}")
        kv[key] = value.strip()
    for req in ("role", "lambda", "alpha1", "alpha2", "n", "W", "rho"):
        if req not in kv:
            raise ValueError(f"metric file missing {req!r}")
    # n sizes the model key set below, so it is checked against W first
    n = int(kv["n"])
    if n < 1:
        raise ValueError(f"metric file n must be at least 1, got {n}")
    W = _parse_matrix(kv["W"])
    if W.shape != (n, n):
        raise ValueError(f"W has shape {W.shape}, expected ({n}, {n})")
    model_keys = {f"model.f{i + 1}" for i in range(n)} | {"model.B", "model.C"}
    known = {"role", "lambda", "alpha1", "alpha2", "n", "W", "rho",
             "rho_certificate_digest", "lmi_certificate_digest"} | model_keys
    unknown = sorted(set(kv) - known)
    if unknown:
        raise ValueError(f"metric file has unknown keys {unknown}")
    has_model = bool(model_keys & set(kv))
    if has_model and not model_keys <= set(kv):
        raise ValueError(f"metric file model is incomplete: missing {sorted(model_keys - set(kv))}")
    role = Role(kv["role"])
    scalars = {key: float(kv[key]) for key in ("lambda", "alpha1", "alpha2")}
    for key, value in [("W", W), *scalars.items()]:
        if not np.all(np.isfinite(value)):
            raise ValueError(f"metric file {key} must be finite")
    rho = poly_from_text(kv["rho"], n)
    cls = ControllerMetric if role is Role.CONTROLLER else ObserverMetric
    metric = cls(
        W=W, rho=rho, lam=scalars["lambda"],
        alpha1=scalars["alpha1"], alpha2=scalars["alpha2"],
        rho_digest=kv.get("rho_certificate_digest"),
        lmi_digest=kv.get("lmi_certificate_digest"),
    )
    model = None
    if has_model:
        f_entries = [poly_from_text(kv[f"model.f{i + 1}"], n) for i in range(n)]
        model = SystemModel(
            PolyMatrix.column(f_entries), _parse_matrix(kv["model.B"]),
            _parse_matrix(kv["model.C"]),
        )
    return metric, model
