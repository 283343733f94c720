"""Dense semidefinite programming: feasibility and linear objectives.

Small self-contained solver for block-diagonal SDPs

    minimize    <c, x>
    subject to  linear equalities over all variable entries
                matrix blocks PSD, sign-constrained scalars >= 0

Algorithm: primal-dual interior-point on the homogeneous self-dual
embedding with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step. The embedding yields either an optimal point (tau > 0) or a Farkas
improving-ray certificate of infeasibility (kappa > 0). Free scalar
variables are eliminated by a QR presolve, and linearly dependent
equalities are pruned (or turned into immediate infeasibility
certificates), so the Schur complement stays positive definite.

Target problems have PSD blocks up to 30x30, cone dimension (svec
coordinates over all blocks) up to ~540 and up to ~260 equalities (~220
after the presolve); everything is dense and deterministic. Each block lives
in svec coordinates (see _svec_index); the NT scaling G is kept per block,
never as one cone-sized matrix, and the Schur complement A G A' is assembled
block by block.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

SQRT2 = math.sqrt(2.0)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")

# Variable references inside equalities/objectives:
#   ("name", i, j) -> entry (i,j) of matrix block "name" (symmetric, i/j order free)
#   ("name",)      -> scalar "name"
VarRef = tuple


class SdpError(ValueError):
    """Malformed problem: undeclared variables, bad dimensions, bad names."""


class SdpStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    MARGINAL = "marginal"


@dataclass
class Equality:
    """Linear equation sum(coeff * entry) = rhs over declared variables."""

    terms: dict[VarRef, float]
    rhs: float
    name: str = ""


@dataclass
class SolveOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iter: int = 200


class SdpProblem:
    """Block-diagonal SDP instance (feasibility when objective is absent)."""

    def __init__(self):
        self.blocks: list[tuple[str, int]] = []
        self.scalars: list[tuple[str, str]] = []  # (name, "free"|"nonneg")
        self.equalities: list[Equality] = []
        self.objective: dict[VarRef, float] | None = None
        self._names: set[str] = set()

    # -- construction --------------------------------------------------------

    def _claim_name(self, name: str):
        if not _NAME_RE.match(name):
            raise SdpError(f"invalid variable name {name!r}")
        if name in self._names:
            raise SdpError(f"duplicate variable name {name!r}")
        self._names.add(name)

    def add_block(self, name: str, dim: int):
        if dim < 1:
            raise SdpError(f"block {name!r} must have dimension >= 1")
        self._claim_name(name)
        self.blocks.append((name, int(dim)))

    def add_scalar(self, name: str, sign: str = "free"):
        if sign not in ("free", "nonneg"):
            raise SdpError(f"scalar sign must be 'free' or 'nonneg', got {sign!r}")
        self._claim_name(name)
        self.scalars.append((name, sign))

    def add_equality(self, terms: dict[VarRef, float], rhs: float, name: str = ""):
        if not name:
            name = f"eq{len(self.equalities)}"
        self.equalities.append(Equality(dict(terms), float(rhs), name))

    def set_objective(self, terms: dict[VarRef, float]):
        """Linear objective, minimized."""
        self.objective = dict(terms)

    # -- validation ----------------------------------------------------------

    def _canonical_ref(self, ref: VarRef) -> VarRef:
        dims = dict(self.blocks)
        scalars = {n for n, _ in self.scalars}
        if len(ref) == 1:
            if ref[0] not in scalars:
                raise SdpError(f"undeclared scalar {ref[0]!r}")
            return ref
        if len(ref) == 3:
            name, i, j = ref
            if name not in dims:
                raise SdpError(f"undeclared block {name!r}")
            d = dims[name]
            if not (0 <= i < d and 0 <= j < d):
                raise SdpError(f"entry ({i},{j}) out of range for block {name!r} ({d}x{d})")
            return (name, max(i, j), min(i, j))
        raise SdpError(f"malformed variable reference {ref!r}")

    def validate(self):
        for eq in self.equalities:
            if not math.isfinite(eq.rhs):
                raise SdpError(f"equality {eq.name!r} has non-finite rhs")
            canon: dict[VarRef, float] = {}
            for ref, coeff in eq.terms.items():
                if not math.isfinite(coeff):
                    raise SdpError(f"equality {eq.name!r} has non-finite coefficient")
                cref = self._canonical_ref(ref)
                canon[cref] = canon.get(cref, 0.0) + float(coeff)
            eq.terms = canon
        if self.objective is not None:
            canon = {}
            for ref, coeff in self.objective.items():
                cref = self._canonical_ref(ref)
                canon[cref] = canon.get(cref, 0.0) + float(coeff)
            self.objective = canon


@dataclass
class SdpSolution:
    status: SdpStatus
    values: dict[str, object]  # block name -> ndarray, scalar name -> float
    gap: float
    iterations: int
    objective_value: float | None = None
    certificate: dict | None = None  # infeasibility ray: {"y": per-equality}
    message: str = ""


# -- svec helpers --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _svec_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row i, column j and scale f of each svec coordinate of a d x d matrix.

    Coordinate k holds f[k] * M[i[k], j[k]]. The order runs down the lower
    triangle column by column, [(i, j) for j in range(d) for i in range(j, d)],
    and f is sqrt(2) off the diagonal and 1 on it, so svec(A) @ svec(B) equals
    trace(A @ B) for symmetric A and B. The arrays are shared and read-only.
    """
    j, i = np.triu_indices(d)
    f = np.where(i == j, 1.0, SQRT2)
    for a in (i, j, f):
        a.flags.writeable = False
    return i, j, f


def svec(M: np.ndarray) -> np.ndarray:
    i, j, f = _svec_index(M.shape[0])
    return M[i, j] * f


def smat(v: np.ndarray, d: int) -> np.ndarray:
    i, j, f = _svec_index(d)
    M = np.empty((d, d))
    M[i, j] = M[j, i] = v / f
    return M


def _symkron(W: np.ndarray) -> np.ndarray:
    """svec-matrix of the map U -> W U W (symmetric PSD for PSD W).

    Closed form G[a, b] = f_a f_b (W[i_a, i_b] W[j_a, j_b] + W[i_a, j_b] W[j_a, i_b]) / 2.
    """
    i, j, f = _svec_index(W.shape[0])
    Wi, Wj = W[i], W[j]
    # in place: at d = 30 each term is 465 x 465
    G = Wi[:, i]
    G *= Wj[:, j]
    T = Wi[:, j]
    T *= Wj[:, i]
    G += T
    G *= np.outer(f / 2.0, f)
    return G


# -- encoding ------------------------------------------------------------------


class _Encoding:
    """Maps the declared problem onto cone coordinates + free coordinates."""

    def __init__(self, prob: SdpProblem):
        prob.validate()
        self.cone_dims: list[int] = []
        self.cone_names: list[str] = []
        self.offsets: list[int] = []
        off = 0
        self.block_entry: dict[tuple[str, int, int], int] = {}
        for name, d in prob.blocks:
            self.cone_names.append(name)
            self.cone_dims.append(d)
            self.offsets.append(off)
            ii, jj, _ = _svec_index(d)
            for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist()), start=off):
                self.block_entry[(name, i, j)] = k
            off += d * (d + 1) // 2
        self.nonneg_scalars: list[str] = []
        self.free_scalars: list[str] = []
        for name, sign in prob.scalars:
            if sign == "nonneg":
                self.cone_names.append(name)
                self.cone_dims.append(1)
                self.offsets.append(off)
                self.block_entry[(name, 0, 0)] = off
                self.nonneg_scalars.append(name)
                off += 1
            else:
                self.free_scalars.append(name)
        self.ncone = off
        self.free_index = {n: k for k, n in enumerate(self.free_scalars)}
        self.nfree = len(self.free_scalars)

    def row(self, terms: dict[VarRef, float]) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros(self.ncone)
        d = np.zeros(self.nfree)
        for ref, coeff in terms.items():
            if len(ref) == 1:
                name = ref[0]
                if name in self.free_index:
                    d[self.free_index[name]] += coeff
                else:
                    a[self.block_entry[(name, 0, 0)]] += coeff
            else:
                name, i, j = ref
                k = self.block_entry[(name, i, j)]
                # coefficient applies to the matrix entry; svec stores
                # sqrt(2) * entry off the diagonal
                a[k] += coeff if i == j else coeff / SQRT2
        return a, d

    def unpack(self, x: np.ndarray, free_vals: np.ndarray) -> dict[str, object]:
        values: dict[str, object] = {}
        for name, d, off in zip(self.cone_names, self.cone_dims, self.offsets):
            n = d * (d + 1) // 2
            if d == 1 and name in self.nonneg_scalars:
                values[name] = float(x[off])
            else:
                values[name] = smat(x[off : off + n], d)
        for name, k in self.free_index.items():
            values[name] = float(free_vals[k])
        return values


# -- cone operations -----------------------------------------------------------


class _Cone:
    """Product of dense PSD blocks; vectors live in concatenated svec coords."""

    def __init__(self, dims: list[int]):
        self.dims = dims
        self.offsets = []
        off = 0
        for d in dims:
            self.offsets.append(off)
            off += d * (d + 1) // 2
        self.n = off
        self.nu = sum(dims)

    def blocks(self, v: np.ndarray):
        for d, off in zip(self.dims, self.offsets):
            yield d, off, v[off : off + d * (d + 1) // 2]

    def identity(self) -> np.ndarray:
        e = np.zeros(self.n)
        for d, off in zip(self.dims, self.offsets):
            i, j, _ = _svec_index(d)
            e[off : off + i.size] = i == j
        return e

    def mats(self, v: np.ndarray) -> list[np.ndarray]:
        return [smat(vb, d) for d, off, vb in self.blocks(v)]

    def min_eig(self, v: np.ndarray) -> float:
        worst = math.inf
        for M in self.mats(v):
            worst = min(worst, float(np.linalg.eigvalsh(M).min()) if M.shape[0] > 1 else float(M[0, 0]))
        return worst


_trtrs = sla.get_lapack_funcs("trtrs", dtype=np.float64)


def _max_step(L: np.ndarray, dM: np.ndarray) -> float:
    """Largest alpha with chol(M) = L and M + alpha*dM still PSD.

    L is a fresh numpy Cholesky factor (finite, C-ordered) and dM is checked
    by the caller, so LAPACK's triangular solve is called on the Fortran view
    L.T directly, as scipy.linalg.solve_triangular does after validation.
    """
    Y, info = _trtrs(L.T, dM, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError("singular Cholesky factor")
    Y, _ = _trtrs(L.T, Y.T, lower=0, trans=1)
    lam_min = float(np.linalg.eigvalsh((Y + Y.T) / 2.0).min())
    if lam_min >= 0.0:
        return math.inf
    return -1.0 / lam_min


# -- the solver ----------------------------------------------------------------


def solve(prob: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Solve to feasibility/optimality or return an infeasibility certificate.

    Deterministic: identical problems and options give identical output.
    """
    opts = opts or SolveOptions()
    enc = _Encoding(prob)
    m_all = len(prob.equalities)

    A = np.zeros((m_all, enc.ncone))
    D = np.zeros((m_all, enc.nfree))
    b = np.zeros(m_all)
    for r, eq in enumerate(prob.equalities):
        A[r], D[r] = enc.row(eq.terms)
        b[r] = eq.rhs
    c = np.zeros(enc.ncone)
    c_free = np.zeros(enc.nfree)
    if prob.objective:
        crow, c_free = enc.row(prob.objective)
        c = crow

    red = _FreeReduction(A, D, b, c, c_free, opts.feas_tol)
    if red.unbounded:
        return SdpSolution(
            SdpStatus.MARGINAL, {}, math.nan, 0,
            message="objective unbounded along a free variable direction",
        )
    if red.ray_from_null is not None:
        y_full = red.lift_ray(red.ray_from_null, from_null=True)
        cert = {
            "y": {eq.name: float(y_full[r]) for r, eq in enumerate(prob.equalities)},
            "residual": 0.0,
        }
        return SdpSolution(
            SdpStatus.INFEASIBLE, {}, 0.0, 0, certificate=cert,
            message="equalities are linearly inconsistent",
        )

    core = _HsdCore(red.A, red.b, red.c, _Cone(enc.cone_dims), opts)
    result = core.run()

    if result.status is SdpStatus.FEASIBLE:
        x = result.x
        free_vals = red.recover_free(x)
        values = enc.unpack(x, free_vals)
        # The core measures the presolved, row-scaled residual against the
        # largest |rhs|; check_solution measures each equality as posed
        # against its own rhs. On weakly feasible programs the two can differ
        # by two orders of magnitude, so FEASIBLE also requires what
        # solve-then-check promises: each equality within
        # 10 * feas_tol * max(1, |rhs|).
        resid = np.abs(A @ x + D @ free_vals - b) / np.maximum(1.0, np.abs(b))
        worst = float(resid.max(initial=0.0))
        if worst > 10.0 * opts.feas_tol:
            return SdpSolution(
                SdpStatus.MARGINAL, values, result.gap, result.iterations,
                message=f"presolved system converged, but an equality is off by {worst:.1e} relative",
            )
        obj = None
        if prob.objective is not None:
            obj = float(red.c_orig_cone @ x + red.c_free @ free_vals)
        return SdpSolution(
            SdpStatus.FEASIBLE, values, result.gap, result.iterations,
            objective_value=obj, message=result.message,
        )
    if result.status is SdpStatus.INFEASIBLE:
        y_full = red.lift_ray(result.ray)
        cert = {
            "y": {eq.name: float(y_full[r]) for r, eq in enumerate(prob.equalities)},
            "residual": result.gap,
        }
        return SdpSolution(
            SdpStatus.INFEASIBLE, {}, result.gap, result.iterations,
            certificate=cert, message=result.message,
        )
    # marginal: return the scaled iterate as a best effort
    values = {}
    if result.x is not None:
        values = enc.unpack(result.x, red.recover_free(result.x))
    return SdpSolution(
        SdpStatus.MARGINAL, values, result.gap, result.iterations,
        message=result.message,
    )


class _FreeReduction:
    """Eliminate free scalars and dependent equality rows before the IPM.

    Free columns D are QR-factored (with pivoting); the r independent
    transformed rows define the free values from the cone values, the rest
    form the reduced equality system. Dependent reduced rows are dropped
    after a consistency check; an inconsistent row yields a Farkas ray
    immediately (handled by the core via a pre-set certificate).
    """

    def __init__(self, A, D, b, c, c_free, tol):
        self.m_all, self.nfree = D.shape
        self.c_orig_cone = c.copy()
        self.c_free = c_free.copy()
        self.unbounded = False

        if self.nfree > 0 and self.m_all > 0:
            Q, R, piv = sla.qr(D, mode="full", pivoting=True)
            diag = np.abs(np.diag(R)) if R.size else np.array([])
            thresh = (diag.max() if diag.size else 0.0) * max(D.shape) * np.finfo(float).eps
            r = int((diag > max(thresh, 1e-13)).sum()) if diag.size else 0
            self.r = r
            self.Q1 = Q[:, :r]
            self.Q2 = Q[:, r:]
            self.R11 = R[:r, :r]
            self.R12 = R[:r, r:]
            self.piv = piv
            cw = c_free[piv]
            if r > 0:
                u = sla.solve_triangular(self.R11, cw[:r], trans="T", lower=False)
            else:
                u = np.zeros(0)
            resid_null = cw[r:] - (self.R12.T @ u if r > 0 else 0.0)
            if self.nfree > r and np.max(np.abs(resid_null), initial=0.0) > 1e-9 * max(
                1.0, np.max(np.abs(c_free), initial=0.0)
            ):
                self.unbounded = True
                return
            self.u = u
            self.A1 = self.Q1.T @ A
            self.b1 = self.Q1.T @ b
            A_red = self.Q2.T @ A
            b_red = self.Q2.T @ b
            # fold the eliminated free variables into the objective
            self.c_red_base = c - self.A1.T @ u
            self.obj_shift = float(self.b1 @ u)
        elif self.nfree > 0:
            # free variables but no equalities: they only matter through c
            if np.max(np.abs(c_free), initial=0.0) > 0.0:
                self.unbounded = True
                return
            self.r = 0
            self.u = np.zeros(0)
            A_red = A
            b_red = b
            self.c_red_base = c
            self.obj_shift = 0.0
        else:
            self.r = 0
            self.u = np.zeros(0)
            A_red = A
            b_red = b
            self.c_red_base = c
            self.obj_shift = 0.0

        self._drop_dependent_rows(A_red, b_red, tol)
        self.c = self.c_red_base

    def _drop_dependent_rows(self, A_red, b_red, tol):
        self._m_red_full = A_red.shape[0]
        self.kept = np.arange(A_red.shape[0])
        self.ray_from_null: np.ndarray | None = None
        if A_red.shape[0] == 0:
            self.A, self.b = A_red, b_red
            return
        # SVD-based row rank analysis; small dense systems only
        U, s, _ = np.linalg.svd(A_red, full_matrices=True)
        cutoff = (s.max() if s.size else 0.0) * max(A_red.shape) * np.finfo(float).eps
        rank = int((s > max(cutoff, 1e-13)).sum())
        if rank < A_red.shape[0]:
            Unull = U[:, rank:]
            proj = Unull.T @ b_red
            k = int(np.argmax(np.abs(proj))) if proj.size else 0
            if proj.size and abs(proj[k]) > 1e-10 * max(1.0, np.abs(b_red).max()):
                self.ray_from_null = Unull[:, k] * np.sign(proj[k])
                self.A, self.b = A_red, b_red
                return
            # consistent but redundant: keep a maximal independent row set
            _, _, piv = sla.qr(A_red.T, mode="economic", pivoting=True)
            self.kept = np.sort(piv[:rank])
        self.A = A_red[self.kept]
        self.b = b_red[self.kept]

    def recover_free(self, x: np.ndarray) -> np.ndarray:
        if self.nfree == 0:
            return np.zeros(0)
        if self.m_all == 0 or self.r == 0:
            return np.zeros(self.nfree)
        w1 = sla.solve_triangular(self.R11, self.b1 - self.A1 @ x, lower=False)
        w = np.zeros(self.nfree)
        w[: self.r] = w1
        out = np.zeros(self.nfree)
        out[self.piv] = w
        return out

    def lift_ray(self, ray_red: np.ndarray, from_null: bool = False) -> np.ndarray:
        """Map a reduced-system Farkas ray back to per-original-equality duals."""
        if from_null:
            full_red = ray_red
        else:
            full_red = np.zeros(self._m_red_full)
            full_red[self.kept] = ray_red
        if self.nfree > 0 and self.m_all > 0:
            return self.Q2 @ full_red
        return full_red


@dataclass
class _CoreResult:
    status: SdpStatus
    x: np.ndarray | None
    y: np.ndarray
    s: np.ndarray | None
    gap: float
    iterations: int
    ray: np.ndarray | None = None
    message: str = ""


class _HsdCore:
    """Homogeneous self-dual Mehrotra predictor-corrector loop."""

    def __init__(self, A, b, c, cone: _Cone, opts: SolveOptions):
        self.cone = cone
        self.opts = opts
        # row equilibration for conditioning
        if A.shape[0] > 0:
            scale = np.maximum(np.abs(A).max(axis=1), 1e-12)
        else:
            scale = np.zeros(0)
        self.row_scale = scale
        self.A = A / scale[:, None] if A.shape[0] else A
        self.b = b / scale if A.shape[0] else b
        self.c = c

    def run(self) -> _CoreResult:
        A, b, c = self.A, self.b, self.c
        cone = self.cone
        m = A.shape[0]
        tol = self.opts

        if m == 0:
            return self._no_equalities()

        x = cone.identity()
        s = cone.identity()
        y = np.zeros(m)
        tau, kappa = 1.0, 1.0
        nu = cone.nu + 1.0
        bnorm = max(1.0, np.abs(b).max(initial=0.0))
        cnorm = max(1.0, np.abs(c).max(initial=0.0))

        best_msg = ""
        stall = 0
        for it in range(tol.max_iter):
            mu = (x @ s + tau * kappa) / nu

            # -- convergence / certificate tests on the scaled iterate
            xs, ys, ss = x / tau, y / tau, s / tau
            pres = np.abs(A @ xs - b).max(initial=0.0) / bnorm
            dres = np.abs(-A.T @ ys + c - ss).max(initial=0.0) / cnorm
            pobj = float(c @ xs)
            dobj = float(b @ ys)
            relgap = (xs @ ss) / max(1.0, abs(pobj), abs(dobj))
            if pres <= tol.feas_tol and dres <= tol.feas_tol and relgap <= tol.gap_tol:
                return _CoreResult(
                    SdpStatus.FEASIBLE, xs, self._unscale_y(ys), ss, relgap, it
                )
            by = float(b @ y)
            if by > 0:
                # Farkas test: after normalizing b'y = 1, the cone violation
                # of -A'y must vanish absolutely (rows are equilibrated, so
                # this is scale-free in the data); anything laxer can accept
                # a junk ray on weakly feasible problems where y blows up.
                ray = y / by
                viol = self._ray_violation(ray)
                if viol <= tol.feas_tol * max(1.0, np.abs(b).max(initial=0.0)):
                    return _CoreResult(
                        SdpStatus.INFEASIBLE, None, np.zeros(m), None, viol, it,
                        ray=self._unscale_y(ray),
                        message="primal infeasible: Farkas ray found",
                    )
            if tau <= 1e-10 * min(1.0, kappa):
                cx = float(c @ x)
                if cx < 0:
                    return _CoreResult(
                        SdpStatus.MARGINAL, None, np.zeros(m), None, mu, it,
                        message="dual infeasible (objective unbounded below)",
                    )
                return _CoreResult(
                    SdpStatus.MARGINAL, None, np.zeros(m), None, mu, it,
                    message="homogeneous model degenerate (tau -> 0 without certificate)",
                )

            # -- NT scaling per block
            try:
                scal = self._nt_scalings(x, s)
            except np.linalg.LinAlgError:
                return _CoreResult(
                    SdpStatus.MARGINAL, x / tau, self._unscale_y(y / tau), s / tau,
                    mu, it, message="scaling factorization failed",
                )

            r_p = A @ x - b * tau
            r_d = -A.T @ y + c * tau - s
            r_g = float(b @ y - c @ x) - kappa

            # Schur complement A G A' with G = diag(G_b), assembled per block
            AG = np.empty_like(A)
            for sc in scal:
                AG[:, sc["q"]] = A[:, sc["q"]] @ sc["G"]
            M = AG @ A.T
            try:
                Mf = self._factor(M)
            except np.linalg.LinAlgError:
                return _CoreResult(
                    SdpStatus.MARGINAL, x / tau, self._unscale_y(y / tau), s / tau,
                    mu, it, message="Schur complement factorization failed",
                )
            AGc = AG @ c
            u1 = Mf(AGc + b)
            Gc = self._apply_G(scal, c)
            cGc = float(c @ Gc)

            def direction(gamma, ex, tg):
                eta = 1.0 - gamma
                rhs2 = eta * (AG @ r_d) - A @ ex - eta * r_p
                u2 = Mf(rhs2)
                num = (
                    -eta * r_g
                    + float(c @ ex)
                    - eta * float(Gc @ r_d)
                    + tg / tau
                    - float((b - AGc) @ u2)
                )
                den = float((b - AGc) @ u1) + cGc + kappa / tau
                dtau = num / den
                dy = u1 * dtau + u2
                ds = -A.T @ dy + c * dtau + eta * r_d
                dx = ex - self._apply_G(scal, ds)
                dkap = (tg - kappa * dtau) / tau
                return dx, dy, ds, dtau, dkap

            try:
                # predictor (affine scaling)
                ex_aff = self._ex(scal, gamma_mu=0.0, corr=None)
                dxa, dya, dsa, dtaua, dkapa = direction(0.0, ex_aff, -tau * kappa)
                alpha_aff = self._step_length(scal, dxa, dsa, tau, kappa, dtaua, dkapa)
                mu_aff = (
                    (x + alpha_aff * dxa) @ (s + alpha_aff * dsa)
                    + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkapa)
                ) / nu
                gamma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

                # corrector
                corr = self._second_order(scal, dxa, dsa)
                ex = self._ex(scal, gamma_mu=gamma * mu, corr=corr)
                tg = gamma * mu - tau * kappa - dtaua * dkapa
                dx, dy, ds, dtau, dkap = direction(gamma, ex, tg)
                alpha = 0.98 * self._step_length(scal, dx, ds, tau, kappa, dtau, dkap)
            except np.linalg.LinAlgError as exc:
                return _CoreResult(
                    SdpStatus.MARGINAL, x / tau, self._unscale_y(y / tau), s / tau,
                    mu, it, message=f"step length failed: {exc}",
                )
            alpha = min(1.0, alpha)
            if alpha < 1e-10:
                stall += 1
                if stall >= 2:
                    return _CoreResult(
                        SdpStatus.MARGINAL, x / tau, self._unscale_y(y / tau), s / tau,
                        mu, it, message="step length collapsed",
                    )
            else:
                stall = 0

            x = x + alpha * dx
            y = y + alpha * dy
            s = s + alpha * ds
            tau += alpha * dtau
            kappa += alpha * dkap

        return _CoreResult(
            SdpStatus.MARGINAL, x / tau, self._unscale_y(y / tau), s / tau,
            (x @ s + tau * kappa) / nu, tol.max_iter,
            message="iteration limit reached",
        )

    # -- helpers ---------------------------------------------------------

    def _no_equalities(self) -> _CoreResult:
        cone = self.cone
        if np.abs(self.c).max(initial=0.0) == 0.0:
            return _CoreResult(SdpStatus.FEASIBLE, cone.identity(), np.zeros(0), cone.identity() * 0.0, 0.0, 0)
        if cone.min_eig(self.c) >= 0.0:
            x = np.zeros(cone.n)
            return _CoreResult(SdpStatus.FEASIBLE, x, np.zeros(0), self.c.copy(), 0.0, 0)
        return _CoreResult(
            SdpStatus.MARGINAL, None, np.zeros(0), None, math.nan, 0,
            message="dual infeasible (objective unbounded below)",
        )

    def _unscale_y(self, y: np.ndarray) -> np.ndarray:
        return y / self.row_scale if y.size else y

    def _ray_violation(self, ray: np.ndarray) -> float:
        """Max PSD violation of -A^T ray over the cone (0 if a valid ray)."""
        z = -self.A.T @ ray
        return max(0.0, -self.cone.min_eig(z))

    def _factor(self, M: np.ndarray):
        # checked here rather than by cho_factor, whose check raises a
        # ValueError: a non-finite M is a failed factorization (MARGINAL)
        if not np.isfinite(M).all():
            raise np.linalg.LinAlgError("Schur complement not finite")
        m = M.shape[0]
        jitter = 0.0
        base = np.trace(M) / max(m, 1)
        for attempt in range(4):
            try:
                cf = sla.cho_factor(M + jitter * np.eye(m), lower=True, check_finite=False)
                return lambda v: sla.cho_solve(cf, v)
            except np.linalg.LinAlgError:
                jitter = max(base * 1e-14, jitter * 100.0, 1e-14)
        raise np.linalg.LinAlgError("Schur complement not positive definite")

    def _nt_scalings(self, x, s):
        out = []
        for (d, off, xb), (_, _, sb) in zip(self.cone.blocks(x), self.cone.blocks(s)):
            X = smat(xb, d)
            S = smat(sb, d)
            L1 = np.linalg.cholesky(X)
            L2 = np.linalg.cholesky(S)
            Uq, sig, Vt = np.linalg.svd(L2.T @ L1)
            sig = np.maximum(sig, 1e-300)
            R = L1 @ Vt.T / np.sqrt(sig)
            Rinv = (np.sqrt(sig)[:, None] * Vt) @ np.linalg.inv(L1)
            out.append({
                "d": d, "q": slice(off, off + xb.size), "R": R, "Rinv": Rinv,
                "lam": sig, "L1": L1, "L2": L2, "G": _symkron(R @ R.T),
            })
        return out

    @staticmethod
    def _apply_G(scal, v: np.ndarray) -> np.ndarray:
        """G v for the block-diagonal scaling G = diag(G_b)."""
        out = np.empty_like(v)
        for sc in scal:
            out[sc["q"]] = sc["G"] @ v[sc["q"]]
        return out

    def _ex(self, scal, gamma_mu: float, corr) -> np.ndarray:
        """svec(R E R^T) per block, E from the linearized complementarity."""
        ex = np.zeros(self.cone.n)
        for bi, sc in enumerate(scal):
            d, lam, R = sc["d"], sc["lam"], sc["R"]
            T = -np.diag(lam * lam)
            if gamma_mu:
                T = T + gamma_mu * np.eye(d)
            if corr is not None:
                T = T - corr[bi]
            denom = (lam[:, None] + lam[None, :]) / 2.0
            E = T / denom
            ex[sc["q"]] = svec(R @ E @ R.T)
        return ex

    def _second_order(self, scal, dx, ds):
        """Mehrotra correction H(dX~ dS~) per block, in scaled coordinates."""
        out = []
        for sc in scal:
            d, q = sc["d"], sc["q"]
            dXt = sc["Rinv"] @ smat(dx[q], d) @ sc["Rinv"].T
            dSt = sc["R"].T @ smat(ds[q], d) @ sc["R"]
            P = dXt @ dSt
            out.append((P + P.T) / 2.0)
        return out

    def _step_length(self, scal, dx, ds, tau, kappa, dtau, dkap) -> float:
        if not (math.isfinite(dtau) and math.isfinite(dkap)
                and np.isfinite(dx).all() and np.isfinite(ds).all()):
            raise np.linalg.LinAlgError("non-finite search direction")
        alpha = math.inf
        for sc in scal:
            d, q = sc["d"], sc["q"]
            alpha = min(alpha, _max_step(sc["L1"], smat(dx[q], d)))
            alpha = min(alpha, _max_step(sc["L2"], smat(ds[q], d)))
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkap < 0:
            alpha = min(alpha, -kappa / dkap)
        return alpha


# -- independent verification ---------------------------------------------------


@dataclass
class CheckEntry:
    name: str
    kind: str  # "equality" | "block" | "scalar"
    value: float  # residual or min eigenvalue
    ok: bool


@dataclass
class SolutionCheck:
    entries: list[CheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[str]:
        return [e.name for e in self.entries if not e.ok]


def check_solution(prob: SdpProblem, sol: SdpSolution, tol: float) -> SolutionCheck:
    """Recompute equality residuals and eigenvalue floors from scratch.

    Equality residuals are compared against tol * max(1, |rhs|); eigenvalue
    floors against -tol. Infeasible solutions are checked through their
    Farkas ray instead (b'y > 0 and -A'y in the cone).
    """
    prob.validate()
    report = SolutionCheck()
    if sol.status is SdpStatus.INFEASIBLE:
        if not sol.certificate:
            report.entries.append(CheckEntry("certificate", "equality", math.inf, False))
            return report
        yvals = sol.certificate["y"]
        by = sum(yvals.get(eq.name, 0.0) * eq.rhs for eq in prob.equalities)
        report.entries.append(CheckEntry("improving_ray_b_y", "equality", by, by > 0))
        # assemble -A'y per block / scalar
        dims = dict(prob.blocks)
        acc: dict[str, np.ndarray] = {n: np.zeros((d, d)) for n, d in prob.blocks}
        sacc: dict[str, float] = {n: 0.0 for n, _ in prob.scalars}
        for eq in prob.equalities:
            yv = yvals.get(eq.name, 0.0)
            if yv == 0.0:
                continue
            for ref, coeff in eq.terms.items():
                if len(ref) == 1:
                    sacc[ref[0]] += coeff * yv
                else:
                    # c * X_ij reads one symmetric entry, so its adjoint
                    # matrix carries c/2 on each of the two positions
                    name, i, j = ref
                    if i == j:
                        acc[name][i, i] += coeff * yv
                    else:
                        acc[name][i, j] += coeff * yv / 2.0
                        acc[name][j, i] += coeff * yv / 2.0
        scale = max(1.0, max((abs(v) for v in yvals.values()), default=0.0))
        for name, d in prob.blocks:
            lam = float(np.linalg.eigvalsh(-acc[name]).min())
            report.entries.append(CheckEntry(name, "block", lam, lam >= -tol * scale))
        for name, sign in prob.scalars:
            v = -sacc[name]
            ok = v >= -tol * scale if sign == "nonneg" else abs(v) <= tol * scale
            report.entries.append(CheckEntry(name, "scalar", v, ok))
        return report

    values = sol.values
    for eq in prob.equalities:
        acc = 0.0
        for ref, coeff in eq.terms.items():
            if len(ref) == 1:
                acc += coeff * float(values[ref[0]])
            else:
                name, i, j = ref
                acc += coeff * float(np.asarray(values[name])[i, j])
        resid = abs(acc - eq.rhs)
        report.entries.append(
            CheckEntry(eq.name, "equality", resid, resid <= tol * max(1.0, abs(eq.rhs)))
        )
    for name, d in prob.blocks:
        M = np.asarray(values[name])
        sym = float(np.abs(M - M.T).max())
        lam = float(np.linalg.eigvalsh((M + M.T) / 2.0).min())
        ok = sym <= tol and lam >= -tol
        report.entries.append(CheckEntry(name, "block", lam, ok))
    for name, sign in prob.scalars:
        if sign == "nonneg":
            v = float(values[name])
            report.entries.append(CheckEntry(name, "scalar", v, v >= -tol))
    return report


# -- text dump/load --------------------------------------------------------------
#
# Line-oriented problem format (debugging aid; round-trips bit-exactly):
#
#   sdp-problem v1
#   block <name> <dim>
#   scalar <name> free|nonneg
#   min <term> [<term> ...]
#   eq <name> <rhs-repr> <term> [<term> ...]
#
# where <term> is  <name>[i,j]=<coeff-repr>  for block entries and
# <name>=<coeff-repr> for scalars. Coefficients use Python float repr.

_TERM_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_.]*)(\[(?P<i>\d+),(?P<j>\d+)\])?=(?P<c>\S+)")


def _format_term(ref: VarRef, coeff: float) -> str:
    if len(ref) == 1:
        return f"{ref[0]}={coeff!r}"
    name, i, j = ref
    return f"{name}[{i},{j}]={coeff!r}"


def _sorted_refs(terms: dict[VarRef, float]):
    return sorted(terms.items(), key=lambda kv: (kv[0][0], kv[0][1:] or (-1, -1)))


def problem_to_text(prob: SdpProblem) -> str:
    prob.validate()
    lines = ["sdp-problem v1"]
    for name, d in prob.blocks:
        lines.append(f"block {name} {d}")
    for name, sign in prob.scalars:
        lines.append(f"scalar {name} {sign}")
    if prob.objective is not None:
        lines.append("min " + " ".join(_format_term(r, c) for r, c in _sorted_refs(prob.objective)))
    for eq in prob.equalities:
        terms = " ".join(_format_term(r, c) for r, c in _sorted_refs(eq.terms))
        lines.append(f"eq {eq.name} {eq.rhs!r} {terms}")
    return "\n".join(lines) + "\n"


def problem_from_text(text: str) -> SdpProblem:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "sdp-problem v1":
        raise SdpError("missing 'sdp-problem v1' header")
    prob = SdpProblem()

    def parse_terms(parts):
        terms = {}
        for part in parts:
            m = _TERM_RE.fullmatch(part)
            if not m:
                raise SdpError(f"malformed term {part!r}")
            if m.group("i") is not None:
                ref: VarRef = (m.group("name"), int(m.group("i")), int(m.group("j")))
            else:
                ref = (m.group("name"),)
            terms[ref] = float(m.group("c"))
        return terms

    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "block":
            prob.add_block(parts[1], int(parts[2]))
        elif parts[0] == "scalar":
            prob.add_scalar(parts[1], parts[2])
        elif parts[0] == "min":
            prob.set_objective(parse_terms(parts[1:]))
        elif parts[0] == "eq":
            prob.add_equality(parse_terms(parts[3:]), float(parts[2]), name=parts[1])
        else:
            raise SdpError(f"unknown directive {parts[0]!r}")
    prob.validate()
    return prob
