"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls ccm's numerical code: polynomials are evaluated straight
from their ``Polynomial.terms`` coefficient dicts, the contraction LMI is
assembled with plain numpy, the explicit laws use Gauss-Legendre quadrature
for the rho path integrals and a dense KKT solve for the projection, and the
closed loop is integrated with a numpy RK4 loop.
"""

from __future__ import annotations

import numpy as np

RATE_MULTIPLIER = 2.0  # the synthesis LMI carries 2*lambda*W


def terms_eval(terms: dict, points: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial given as {monomial: coeff} at (N, n) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[0])
    for mono, c in terms.items():
        v = np.full(points.shape[0], float(c))
        for j, e in enumerate(mono):
            if e:
                v = v * points[:, j] ** e
        out += v
    return out


def terms_diff(terms: dict, j: int) -> dict:
    out: dict = {}
    for mono, c in terms.items():
        e = mono[j]
        if e:
            m = list(mono)
            m[j] = e - 1
            out[tuple(m)] = out.get(tuple(m), 0.0) + c * e
    return out


def field_terms(model) -> list[dict]:
    return [dict(model.f.entry(i, 0).terms) for i in range(model.n)]


def jacobian_terms(model) -> list[list[dict]]:
    f = field_terms(model)
    return [[terms_diff(fi, j) for j in range(model.n)] for fi in f]


def lmi_max_eig(W, rho_terms, lam, jac_terms, G, observer: bool, points):
    """Largest eigenvalue and largest absolute entry of the synthesis LMI at
    each point.

    controller: W A' + A W - rho G G' + 2 lam W with G = B
    observer:   A' W + W A - rho G G' + 2 lam W with G = C'
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = W.shape[0]
    A = np.empty((points.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            A[:, i, j] = terms_eval(jac_terms[i][j], points)
    if observer:
        A = A.transpose(0, 2, 1)
    WAt = np.einsum("ik,pjk->pij", W, A)
    V = WAt + WAt.transpose(0, 2, 1)
    V -= terms_eval(rho_terms, points)[:, None, None] * (G @ G.T)[None]
    V += RATE_MULTIPLIER * lam * W[None]
    return np.linalg.eigvalsh(V)[:, -1], np.abs(V).max(axis=(1, 2))


def _gauss_unit(deg: int):
    """Gauss-Legendre rule on [0, 1], exact for polynomials of degree <= deg."""
    k = deg // 2 + 1
    x, w = np.polynomial.legendre.leggauss(k)
    return (x + 1.0) / 2.0, w / 2.0


def _path_integral(terms: dict, deg: int, a: np.ndarray, b: np.ndarray) -> float:
    s, w = _gauss_unit(deg)
    pts = a[None, :] + s[:, None] * b[None, :]
    return float(w @ terms_eval(terms, pts))


def closed_loop(model, cmetric, ometric, x0, xhat0, T, dt, noise_std, seed, mode):
    """Reference integration of the closed loop around the origin target.

    Returns the stacked state history: (x, xhat) for output feedback, x for
    state feedback. Noise is one N(0, 1) draw per output step from
    default_rng(seed), held over the RK4 stages of that step.
    """
    n, p = model.n, model.p
    B, C = model.B, model.C
    f = field_terms(model)
    rc, rc_deg = dict(cmetric.rho.terms), cmetric.rho.degree()
    gain = B.T @ np.linalg.inv(cmetric.W)

    def fval(x):
        return np.array([terms_eval(fi, x)[0] for fi in f])

    def control(xh):
        dc = -xh
        r = _path_integral(rc, rc_deg, xh, dc)
        return 0.5 * r * (gain @ dc)

    nsteps = int(np.floor(T / dt + 1e-9))
    if mode == "state_fb":
        def rhs(z, xi):
            return fval(z) + B @ control(z)
        z = np.asarray(x0, dtype=float).copy()
        xi = np.zeros((nsteps + 1, p))
    else:
        Wo = ometric.W
        ro, ro_deg = dict(ometric.rho.terms), ometric.rho.degree()
        K = np.block([[Wo, C.T], [C, np.zeros((p, p))]])
        winv_ct = np.linalg.solve(Wo, C.T)

        def rhs(z, xi):
            x, xh = z[:n], z[n:]
            u = control(xh)
            y = C @ x + noise_std * xi
            xbar = np.linalg.solve(K, np.concatenate([Wo @ xh, y]))[:n]
            r = _path_integral(ro, ro_deg, xbar, xh - xbar)
            dxh = fval(xh) + B @ u + 0.5 * r * (winv_ct @ (y - C @ xh))
            return np.concatenate([fval(x) + B @ u, dxh])
        z = np.concatenate([np.asarray(x0, float), np.asarray(xhat0, float)])
        xi = np.random.default_rng(seed).standard_normal((nsteps + 1, p))
    out = np.empty((nsteps + 1, z.size))
    out[0] = z
    for k in range(nsteps):
        k1 = rhs(z, xi[k])
        k2 = rhs(z + dt / 2 * k1, xi[k])
        k3 = rhs(z + dt / 2 * k2, xi[k])
        k4 = rhs(z + dt * k3, xi[k])
        z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = z
    return out
