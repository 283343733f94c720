"""Executable control and observer laws for constant synthesized metrics.

With constant W the geodesics are straight segments, so the feedback laws
are explicit:

    control:   u = u* + 1/2 (int_0^1 rho_c(xhat + s*Dc) ds) B' M_c Dc,
               Dc = x* - xhat, M_c = W_c^-1
    observer:  xbar = W_o-projection of xhat onto {x : C x = y}
               dxhat/dt = f(xhat) + B u + 1/2 (int_0^1 rho_o(xbar + s*Do) ds)
                          W_o^-1 C' (y - C xhat),   Do = xhat - xbar

The rho integrals are polynomials in (start, offset). Each law writes its
formula once as straight-line source (`lines`), which `control` / `rhs` run
on a point or on rows and sim's closed-loop field splices in, so all give
the same bits. The ISS disturbance gains (kappa_candidates) live here too;
the bound itself is solved in sim (iss_bound).
"""

from __future__ import annotations

import math

import numpy as np

from .geom import MeasurementProjector
from .poly import compile_function, eval_rows, line_integral_form, linear_source, symbols
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
        self._gain = model.B.T @ metric.M  # (m, n)
        self._rho_form = line_integral_form(metric.rho)  # in (x_hat, dc)
        hs, us = symbols("h", n), symbols("u", m)
        self._control = compile_function(hs, self.lines(hs, us), f"({', '.join(us)},)")

    def lines(self, hs: list[str], us: list[str]) -> list[str]:
        """Source lines setting the names us to u at the estimate named hs
        (they also set c0.., kc)."""
        dc = symbols("c", len(hs))
        body = [f"{dc[i]} = {float(self.x_star[i])!r} - {hs[i]}" for i in range(len(hs))]
        body.append(f"kc = 0.5 * ({self._rho_form._source(hs + dc)})")
        body += [f"{us[k]} = {float(self.u_star[k])!r} + kc * ({linear_source(self._gain[k], dc)})"
                 for k in range(len(us))]
        return body

    def control(self, x_hat, t: float = 0.0) -> np.ndarray:
        """u at one estimate (n,), or at each row of an (N, n) array."""
        return eval_rows(self._control, (self.model.n,), x_hat)


class ObserverLaw:
    """Estimate dynamics driven by the metric projection onto {x : Cx = y}."""

    def __init__(self, metric: ObserverMetric, model: SystemModel):
        if not isinstance(metric, ObserverMetric):
            raise TypeError("ObserverLaw needs an ObserverMetric")
        self.metric = metric
        self.model = model
        self.projector = MeasurementProjector(model.C, metric.W)
        self._winv_ct = np.linalg.solve(metric.W, model.C.T)  # (n, p)
        self._rho_form = line_integral_form(metric.rho)  # in (xbar, do)
        n, m, p = model.n, model.m, model.p
        hs, ys, us, gs = symbols("h", n), symbols("y", p), symbols("u", m), symbols("g", n)
        self._rhs = compile_function(hs + ys + us, self.lines(hs, ys, us, gs), f"({', '.join(gs)},)")

    def lines(self, hs: list[str], ys: list[str], us: list[str], outs: list[str]) -> list[str]:
        """Source lines setting the names outs to dxhat/dt at the estimate hs,
        output ys and applied input us (they also set b0.., o0.., i0.., ko)."""
        n, p, C = len(hs), len(ys), self.model.C
        bs, ds, innov = symbols("b", n), symbols("o", n), symbols("i", p)
        body = self.projector.lines(hs, ys, bs)
        body += [f"{ds[i]} = {hs[i]} - {bs[i]}" for i in range(n)]
        body.append(f"ko = 0.5 * ({self._rho_form._source(bs + ds)})")
        body += [f"{innov[j]} = {ys[j]} - ({linear_source(C[j], hs)})" for j in range(p)]
        drift = self.model.rhs_source(hs, us)
        body += [f"{outs[i]} = ({drift[i]}) + ko * ({linear_source(self._winv_ct[i], innov)})"
                 for i in range(n)]
        return body

    def rhs(self, x_hat, y, t: float = 0.0, u=None) -> np.ndarray:
        """Estimate dynamics at one (x_hat, y), or at rows of them. u is the
        known applied plant input; it enters as the common drift term B u
        (zero when omitted, for an autonomous plant)."""
        n, m, p = self.model.n, self.model.m, self.model.p
        u = np.zeros(m) if u is None else np.atleast_1d(u)
        return eval_rows(self._rhs, (n, p, m), x_hat, np.atleast_1d(y), u)

