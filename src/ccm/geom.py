"""Riemannian geometry for constant metrics.

With a constant metric the geodesic between two points is the straight
segment, distances are closed-form, and projecting a state estimate onto
the measurement-consistent set {x : C x = y} is a linearly constrained
weighted least-squares problem solved through one KKT system

    [ W  C' ] [ xbar   ]   [ W xhat ]
    [ C  0  ] [ lagmul ] = [ y      ]

factored densely with partial pivoting. Its solution is affine in
(xhat, y); the projector writes that map as generated source, which both
`project` and the observer law run.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .poly import compile_function, eval_rows, linear_source, symbols


class MetricError(ValueError):
    """Metric matrix is not symmetric positive definite."""


class RankDeficientError(ValueError):
    """C has deficient row rank; the KKT system is singular."""


def _check_metric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MetricError("metric must be a square matrix")
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise MetricError("metric must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise MetricError("metric must be positive definite") from None
    return M


def distance(x1, x2, M) -> float:
    """Geodesic distance sqrt((x2-x1)' M (x2-x1)) under constant metric M."""
    M = _check_metric(M)
    d = np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)
    return float(np.sqrt(max(d @ M @ d, 0.0)))


class MeasurementProjector:
    """Reusable projector onto {x : C x = y} in the W-weighted norm.

    Factors the KKT matrix once (LU with partial pivoting) and keeps the
    two affine maps of its solution, xbar = from_xhat xhat + from_y y.
    """

    def __init__(self, C: np.ndarray, W: np.ndarray):
        W = _check_metric(W)
        C = np.atleast_2d(np.asarray(C, dtype=float))
        n = W.shape[0]
        p = C.shape[0]
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns")
        if np.linalg.matrix_rank(C) < p:
            raise RankDeficientError(
                f"C has row rank below {p}; measurement set is degenerate"
            )
        self.C, self.W, self.n, self.p = C, W, n, p
        K = np.zeros((n + p, n + p))
        K[:n, :n] = W
        K[:n, n:] = C.T
        K[n:, :n] = C
        # the KKT solution is affine in (x_hat, y); extract the two maps once
        Kinv = sla.lu_solve(sla.lu_factor(K), np.eye(n + p))
        self.from_xhat = Kinv[:n, :n] @ W  # (n, n)
        self.from_y = Kinv[:n, n:]  # (n, p)
        hs, ys, bs = symbols("h", n), symbols("y", p), symbols("b", n)
        self._project = compile_function(hs + ys, self.lines(hs, ys, bs), f"({', '.join(bs)},)")

    def lines(self, hs: list[str], ys: list[str], outs: list[str]) -> list[str]:
        """Source lines setting the names outs to the projection of the
        estimate named hs with the output named ys."""
        return [f"{outs[i]} = ({linear_source(self.from_xhat[i], hs)})"
                f" + ({linear_source(self.from_y[i], ys)})" for i in range(self.n)]

    def project(self, x_hat, y) -> np.ndarray:
        """xbar for one estimate (n,) and output (p,), or for rows of them."""
        return eval_rows(self._project, (self.n, self.p), x_hat, np.atleast_1d(y))
