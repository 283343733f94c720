"""Riemannian geometry for constant metrics.

With a constant metric the geodesic between two points is the straight
segment, distances are closed-form, and projecting a state estimate onto
the measurement-consistent set {x : C x = y} is a linearly constrained
weighted least-squares problem solved through one KKT system

    [ W  C' ] [ xbar   ]   [ W xhat ]
    [ C  0  ] [ lagmul ] = [ y      ]

factored densely with partial pivoting.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


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
    two affine maps of its solution, so each projection is two small
    matrix-vector products.
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

    def project(self, x_hat, y) -> np.ndarray:
        x_hat = np.asarray(x_hat, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x_hat.shape != (self.n,) or y.shape != (self.p,):
            raise ValueError("projection input dimensions do not match C/W")
        return self.from_xhat @ x_hat + self.from_y @ y
