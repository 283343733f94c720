"""Executable control and observer laws for constant synthesized metrics.

With constant W the geodesics are straight segments, so the feedback laws
are explicit:

    control:   u = u* + 1/2 (int_0^1 rho_c(xhat + s*Dc) ds) B' M_c Dc,
               Dc = x* - xhat, M_c = W_c^-1
    observer:  xbar = W_o-projection of xhat onto {x : C x = y}
               dxhat/dt = f(xhat) + 1/2 (int_0^1 rho_o(xbar + s*Do) ds)
                          W_o^-1 C' (y - C xhat),   Do = xhat - xbar

The one-dimensional rho integrals are polynomials in (start, offset) and
are precompiled at law construction; evaluation agrees exactly with
poly.line_integral_unit. The ISS disturbance gains (kappa_candidates) and
the closed-form two-exponential envelope live here too; the bound ODE
itself is integrated in sim (iss_bound), with the loop's RK4 step.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import MeasurementProjector
from .poly import line_integral_form, line_integral_unit
from .synth import ControllerMetric, ObserverMetric, SystemModel


def kappa_candidates(metric) -> dict[str, float]:
    """Disturbance-gain constants for the ISS inequality.

    The self-consistent choice for W >= alpha1*I is 1/sqrt(alpha1) (then
    |Theta w| <= |w|/sqrt(alpha1)); the other two appear in reports for
    comparison.
    """
    return {
        "sqrt_alpha1": math.sqrt(metric.alpha1),
        "sqrt_alpha2": math.sqrt(metric.alpha2),
        "inv_sqrt_alpha1": 1.0 / math.sqrt(metric.alpha1),
    }


ISS_KAPPA_KEY = "inv_sqrt_alpha1"


class ControlLaw:
    """State(-estimate) feedback around a constant feasible target (x*, u*),
    the origin by default."""

    def __init__(self, metric: ControllerMetric, model: SystemModel,
                 x_star=None, u_star=None, tol: float = 1e-8):
        if not isinstance(metric, ControllerMetric):
            raise TypeError("ControlLaw needs a ControllerMetric")
        self.metric = metric
        self.model = model
        n, m = model.n, model.m
        self.x_star = np.zeros(n) if x_star is None else np.asarray(x_star, float)
        self.u_star = np.zeros(m) if u_star is None else np.asarray(u_star, float)
        resid = model.f_value(self.x_star) + model.B @ self.u_star
        if np.abs(resid).max() > tol:
            raise ValueError(
                f"target is not an equilibrium: |f(x*) + B u*| = {np.abs(resid).max():.3e}"
            )
        self.gain = model.B.T @ metric.M  # (m, n)
        self.rho_form = line_integral_form(metric.rho)  # in (x_hat, dc)
        self._rho_int = self.rho_form.as_function()

    def control(self, x_hat, t: float = 0.0) -> np.ndarray:
        """u at one estimate (n,), or at each row of an (N, n) array."""
        x_hat = np.asarray(x_hat, dtype=float)
        dc = self.x_star - x_hat
        r = np.asarray(self._rho_int(*x_hat.T, *dc.T))  # elementwise over rows
        return self.u_star + (0.5 * r)[..., None] * (dc @ self.gain.T)


class ObserverLaw:
    """Estimate dynamics driven by the metric projection onto {x : Cx = y}."""

    def __init__(self, metric: ObserverMetric, model: SystemModel):
        if not isinstance(metric, ObserverMetric):
            raise TypeError("ObserverLaw needs an ObserverMetric")
        self.metric = metric
        self.model = model
        self.projector = MeasurementProjector(model.C, metric.W)
        self.winv_ct = np.linalg.solve(metric.W, model.C.T)  # (n, p)
        self.rho_form = line_integral_form(metric.rho)  # in (xbar, do)
        self._rho_int = self.rho_form.as_function()

    def rhs(self, x_hat, y, t: float = 0.0, u=None) -> np.ndarray:
        """Estimate dynamics. u is the known applied plant input; it enters
        as the common drift term B u (zero for an autonomous plant)."""
        x_hat = np.asarray(x_hat, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        xbar = self.projector.project(x_hat, y)
        do = x_hat - xbar
        r = self._rho_int(*xbar, *do)
        innov = y - self.model.C @ x_hat
        drift = self.model.f_value(x_hat)
        if u is not None:
            drift = drift + self.model.B @ np.atleast_1d(np.asarray(u, dtype=float))
        return drift + (0.5 * r) * (self.winv_ct @ innov)


def control_reference(law: ControlLaw, x_hat, t: float = 0.0) -> np.ndarray:
    """Quadrature-free reference evaluation via the generic line integral.

    Same value as law.control; used to cross-check the precompiled path.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    dc = law.x_star - x_hat
    r = line_integral_unit(law.metric.rho, x_hat, dc)
    return law.u_star + (0.5 * r) * (law.model.B.T @ law.metric.M @ dc)


def two_exponential_bound(d0: float, lam: float, log_amp: float, alpha: float,
                          t: np.ndarray) -> np.ndarray:
    """Closed form of  d0 e^(-lam t) + amp * int_0^t e^(-lam(t-s)) e^(-alpha s) ds
    with amp = exp(log_amp), evaluated safely in log space."""
    t = np.asarray(t, dtype=float)
    base = d0 * np.exp(-lam * t)
    if abs(lam - alpha) < 1e-9:
        with np.errstate(divide="ignore"):
            logt = np.where(t > 0, np.log(np.maximum(t, 1e-300)), -math.inf)
        extra = np.exp(np.minimum(log_amp + logt - lam * t, 700.0))
        extra = np.where(t > 0, extra, 0.0)
    else:
        e1 = np.exp(np.minimum(log_amp - alpha * t, 700.0))
        e2 = np.exp(np.minimum(log_amp - lam * t, 700.0))
        extra = (e1 - e2) / (lam - alpha)
    return base + extra
