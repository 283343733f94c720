"""Closed-loop simulation: open loop, state feedback, output feedback.

The three loop modes are one loop with parts switched off (the separation
principle): plant + observer + controller for output feedback, the
controller fed the true state for state feedback, u = 0 for the open loop.
One run core builds the vector field and the trace for all three, and
`integrate` is the one RK4 loop; the plant's f is the model's compiled
`SystemModel.f_value`.

Fixed-step classical RK4 is the default integrator (reproducibility over
adaptivity); an adaptive RK45 backend is available for cross-checking on
noise-free runs. Measurement noise (output feedback only) is discrete-time:
one Gaussian draw per output step, passed to `integrate` as data, held
constant across the RK4 stages of that step and added to the continuous
measurement C x(t), so a noise-free observer started at the plant state
tracks it exactly.

Each trace records the Riemannian distance to the target under the
controller metric and a theoretical bound curve:

* state feedback: d(0) exp(-lambda t);
* output feedback without noise: the two-exponential envelope obtained by
  bounding the measured feedback-mismatch disturbance by beta*exp(-alpha t)
  (alpha fitted to the estimation-error decay, beta chosen to majorize);
* output feedback with noise: the disturbance-bound ODE (`iss_bound`)
  integrated with the measured disturbance magnitude.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .poly import PolyMatrix, poly_from_text
from .realize import (
    ControlLaw,
    ISS_KAPPA_KEY,
    ObserverLaw,
    kappa_candidates,
    two_exponential_bound,
)
from .synth import ControllerMetric, SystemModel


class SimulationError(RuntimeError):
    pass


@dataclass
class SimConfig:
    dt: float = 1e-3
    T: float = 60.0
    integrator: str = "rk4"  # "rk4" | "rk45"
    noise_std: float = 0.0
    seed: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(2))
    xhat0: np.ndarray = field(default_factory=lambda: np.zeros(2))
    rk45_rtol: float = 1e-9
    rk45_atol: float = 1e-12

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.xhat0 = np.asarray(self.xhat0, dtype=float)
        for name in ("dt", "T", "noise_std", "x0", "xhat0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if self.T < self.dt:
            raise ValueError("horizon T must cover at least one step")
        if self.integrator not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.rk45_rtol <= 0 or self.rk45_atol <= 0:
            raise ValueError("RK45 tolerances must be positive")

    @property
    def nsteps(self) -> int:
        return int(math.floor(self.T / self.dt + 1e-9))

    def time_grid(self) -> np.ndarray:
        return np.arange(self.nsteps + 1) * self.dt


@dataclass
class SimTrace:
    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    y: np.ndarray
    y_clean: np.ndarray
    d: np.ndarray
    d_bound: np.ndarray
    est_err: np.ndarray
    mode: str = ""

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def state_names(self) -> list[str]:
        if self.n == 2:
            return ["phi", "psi"]
        return [f"x{i + 1}" for i in range(self.n)]

    def header(self) -> list[str]:
        names = self.state_names()
        cols = ["t"] + names + [f"{nm}_hat" for nm in names]
        m = self.u.shape[1]
        cols += ["u"] if m == 1 else [f"u{i + 1}" for i in range(m)]
        p = self.y.shape[1]
        cols += ["y"] if p == 1 else [f"y{i + 1}" for i in range(p)]
        cols += ["y_clean"] if p == 1 else [f"y_clean{i + 1}" for i in range(p)]
        cols += ["d", "d_bound", "est_err"]
        return cols

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.header()) + "\n")
        cols = (
            [self.t]
            + [self.x[:, i] for i in range(self.n)]
            + [self.x_hat[:, i] for i in range(self.n)]
            + [self.u[:, i] for i in range(self.u.shape[1])]
            + [self.y[:, i] for i in range(self.y.shape[1])]
            + [self.y_clean[:, i] for i in range(self.y_clean.shape[1])]
            + [self.d, self.d_bound, self.est_err]
        )
        for k in range(len(self.t)):
            buf.write(",".join(repr(float(c[k])) for c in cols) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, mode: str = "imported") -> "SimTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        if data.shape[1] != len(header):
            raise ValueError("inconsistent trace header")
        col = {name: data[:, k] for k, name in enumerate(header)}
        state_names = [h for h in header if h not in ("t",) and not h.endswith("_hat")
                       and not h.startswith(("u", "y", "d", "est_err"))]
        n = len(state_names)
        x = np.stack([col[nm] for nm in state_names], axis=1)
        x_hat = np.stack([col[f"{nm}_hat"] for nm in state_names], axis=1)
        unames = [h for h in header if h == "u" or (h.startswith("u") and h[1:].isdigit())]
        ynames = [h for h in header if h == "y" or (h.startswith("y") and h[1:].isdigit())]
        cnames = [h for h in header if h.startswith("y_clean")]
        return cls(
            t=col["t"], x=x, x_hat=x_hat,
            u=np.stack([col[nm] for nm in unames], axis=1),
            y=np.stack([col[nm] for nm in ynames], axis=1),
            y_clean=np.stack([col[nm] for nm in cnames], axis=1),
            d=col["d"], d_bound=col["d_bound"], est_err=col["est_err"],
            mode=mode,
        )


# -- benchmark model -------------------------------------------------------------


def moore_greitzer() -> SystemModel:
    """Two-state compressor surge model: mass flow phi, pressure rise psi;
    actuation and sensing on psi."""
    f = PolyMatrix.column(
        [
            poly_from_text("-x2 - 1.5*x1^2 - 0.5*x1^3", 2),
            poly_from_text("x1", 2),
        ]
    )
    return SystemModel(f, np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]))


_LIMIT_CYCLE_CACHE: dict[tuple[float, float], np.ndarray] = {}


def limit_cycle_state(dt: float = 1e-3, settle: float = 30.0) -> np.ndarray:
    """A point on the open-loop oscillation: integrate from (1, -1) and take
    the terminal state."""
    key = (dt, settle)
    if key not in _LIMIT_CYCLE_CACHE:
        model = moore_greitzer()
        cfg = SimConfig(dt=dt, T=settle, x0=np.array([1.0, -1.0]))
        trace = run_open_loop(model, cfg)
        _LIMIT_CYCLE_CACHE[key] = trace.x[-1]
    return _LIMIT_CYCLE_CACHE[key].copy()


# -- integration -----------------------------------------------------------------


def _rk4_step(rhs, t, z, dt, *args):
    k1 = rhs(t, z, *args)
    k2 = rhs(t + dt / 2, z + (dt / 2) * k1, *args)
    k3 = rhs(t + dt / 2, z + (dt / 2) * k2, *args)
    k4 = rhs(t + dt, z + dt * k3, *args)
    return z + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(rhs, x0, cfg: SimConfig, noise=None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate xdot = rhs(t, x) on the fixed output grid of cfg.

    Returns (t, states) with states[k] at t[k]; fixed-step RK4 or adaptive
    RK45 (dense output sampled on the grid). Aborts on non-finite states.
    With noise (RK4 only), one row per step: every stage of step k calls
    rhs(t, x, noise[k]).
    """
    ts = cfg.time_grid()
    x0 = np.asarray(x0, dtype=float)
    if cfg.integrator == "rk45":
        if noise is not None:
            raise ValueError("noise injection requires the fixed-step rk4 integrator")
        sol = solve_ivp(
            rhs, (0.0, cfg.T), x0, method="RK45", t_eval=ts,
            rtol=cfg.rk45_rtol, atol=cfg.rk45_atol,
        )
        if not sol.success:
            raise SimulationError(f"adaptive integration failed: {sol.message}")
        states = sol.y.T
        if not np.isfinite(states).all():
            raise SimulationError("non-finite state in adaptive integration")
        return ts, states
    states = np.empty((len(ts), x0.size))
    states[0] = x0
    z = x0.copy()
    for k in range(cfg.nsteps):
        args = () if noise is None else (noise[k],)
        z = _rk4_step(rhs, ts[k], z, cfg.dt, *args)
        if not np.isfinite(z).all():
            raise SimulationError(
                f"non-finite state at t={ts[k + 1]:.6g}: {z}"
            )
        states[k + 1] = z
    return ts, states


# -- runs ------------------------------------------------------------------------


def run_open_loop(model: SystemModel, cfg: SimConfig) -> SimTrace:
    """u = 0 throughout; distances are Euclidean (no metric exists here)."""
    return _run(model, cfg)


def run_state_feedback(model: SystemModel, claw: ControlLaw, cfg: SimConfig) -> SimTrace:
    return _run(model, cfg, claw)


def run_output_feedback(
    model: SystemModel, claw: ControlLaw, olaw: ObserverLaw, cfg: SimConfig
) -> SimTrace:
    """Plant + observer + controller; y = C x + noise (per-step Gaussian)."""
    return _run(model, cfg, claw, olaw)


def _metric_norm(diff: np.ndarray, M: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", diff, M, diff), 0.0))


def _run(model: SystemModel, cfg: SimConfig, claw: ControlLaw | None = None,
         olaw: ObserverLaw | None = None) -> SimTrace:
    """Plant + observer + controller, with the observer switched off for
    state feedback (the controller reads x) and both laws for the open loop."""
    n, B, C, f = model.n, model.B, model.C, model.f_value
    z0, noise, sigma = cfg.x0, None, 0.0
    if olaw is not None:
        sigma = cfg.noise_std
        if sigma > 0 and cfg.integrator != "rk4":
            raise ValueError("noise injection requires the fixed-step rk4 integrator")
        xi = np.random.default_rng(cfg.seed).standard_normal((cfg.nsteps + 1, model.p))
        z0 = np.concatenate([cfg.x0, cfg.xhat0])
        if cfg.integrator == "rk4":
            noise = xi

    def rhs(t, z, w=np.zeros(model.p)):
        if claw is None:
            return f(z)
        if olaw is None:
            return f(z) + B @ claw.control(z, t)
        x, xh = z[:n], z[n:]
        u = claw.control(xh, t)
        y = C @ x + sigma * w
        return np.concatenate([f(x) + B @ u, olaw.rhs(xh, y, t, u)])

    ts, zs = integrate(rhs, z0, cfg, noise)
    N = len(ts)
    xs = zs[:, :n]
    if claw is None:
        d = np.linalg.norm(xs, axis=1)
    else:
        d = _metric_norm(xs - claw.x_star, claw.metric.M)
    y_clean = xs @ C.T
    if olaw is None:
        xhs, ys = xs.copy(), y_clean.copy()
    else:
        xhs, ys = zs[:, n:], y_clean + sigma * xi
    if claw is None:
        u = np.zeros((N, model.m))
    else:
        u = np.stack([claw.control(xhs[k], ts[k]) for k in range(N)])
    d_bound, est_err = np.zeros(N), np.zeros(N)
    if olaw is not None:
        est_err = _metric_norm(xhs - xs, olaw.metric.W)
        # measured feedback-mismatch disturbance w = B (k(xhat) - k(x))
        u_true = np.stack([claw.control(xs[k], ts[k]) for k in range(N)])
        w_mag = np.linalg.norm((u - u_true) @ B.T, axis=1)
        d_bound = _bound_curve(claw, ts, d[0], est_err, w_mag, noisy=sigma > 0)
    elif claw is not None:
        d_bound = d[0] * np.exp(-claw.metric.lam * ts)
    mode = "open" if claw is None else "state_fb" if olaw is None else "output_fb"
    return SimTrace(
        t=ts, x=xs, x_hat=xhs, u=u, y=ys, y_clean=y_clean,
        d=d, d_bound=d_bound, est_err=est_err, mode=mode,
    )


def iss_bound(metric: ControllerMetric, d0: float, disturbance_env, T: float,
              dt: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the disturbance bound  ddot = -lam*d + kappa*env(t).

    env gives the Euclidean disturbance magnitude; kappa = 1/sqrt(alpha1)
    converts it to metric units. Returns (t, d_bound) on the fixed grid.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    kappa = kappa_candidates(metric)[ISS_KAPPA_KEY]
    lam = metric.lam
    nsteps = int(math.floor(T / dt + 1e-9))
    ts = np.arange(nsteps + 1) * dt
    d = np.empty(nsteps + 1)
    d[0] = v = float(d0)
    rhs = lambda t, v: -lam * v + kappa * float(disturbance_env(t))
    for k in range(nsteps):
        d[k + 1] = v = _rk4_step(rhs, ts[k], v, dt)
    return ts, d


def _bound_curve(claw, ts, d0, est_err, w_mag, noisy: bool) -> np.ndarray:
    lam = claw.metric.lam
    kappa = kappa_candidates(claw.metric)[ISS_KAPPA_KEY]
    if noisy:
        env = lambda t: float(np.interp(t, ts, w_mag))
        _, db = iss_bound(claw.metric, d0, env, ts[-1], dt=ts[1] - ts[0])
        return db
    if w_mag.max(initial=0.0) <= 0.0:
        return d0 * np.exp(-lam * ts)
    alpha = fit_decay_exponent(ts, est_err)
    mask = w_mag > 0
    log_beta = float(np.max(np.log(w_mag[mask]) + alpha * ts[mask]))
    return two_exponential_bound(d0, lam, math.log(kappa) + log_beta, alpha, ts)


def fit_decay_exponent(ts, values) -> float:
    """Least-squares exponent of an exponentially decaying positive signal."""
    values = np.asarray(values, dtype=float)
    floor = max(values.max(initial=0.0) * 1e-9, 1e-14)
    mask = values > floor
    if mask.sum() < 2:
        return 0.0
    slope = np.polyfit(ts[mask], np.log(values[mask]), 1)[0]
    return -float(slope)


# -- trace statistics -------------------------------------------------------------


def overshoot(trace: SimTrace) -> float:
    """max_t |x(t)| / |x(0)| in the Euclidean norm."""
    if len(trace.t) == 0:
        raise ValueError("empty trace")
    norms = np.linalg.norm(trace.x, axis=1)
    if norms[0] == 0.0:
        return math.inf if norms.max() > 0 else 1.0
    return float(norms.max() / norms[0])


def decay_rate(trace: SimTrace, window: tuple[float, float]) -> float:
    """Least-squares slope of log d(t) over the window (negative = decay)."""
    t0, t1 = window
    if t0 < trace.t[0] - 1e-12 or t1 > trace.t[-1] + 1e-12 or t0 >= t1:
        raise ValueError(
            f"window [{t0}, {t1}] outside horizon [{trace.t[0]}, {trace.t[-1]}]"
        )
    mask = (trace.t >= t0) & (trace.t <= t1)
    d = trace.d[mask]
    ts = trace.t[mask]
    # exclude only samples at the denormal/zero floor where log is meaningless
    keep = d > 1e-280
    if keep.sum() < 2:
        raise ValueError("not enough positive distance samples in window")
    return float(np.polyfit(ts[keep], np.log(d[keep]), 1)[0])


def trace_summary(trace: SimTrace, window: tuple[float, float] | None = None) -> dict:
    out = {
        "overshoot": overshoot(trace),
        "final_state_norm": float(np.linalg.norm(trace.x[-1])),
        "final_est_err": float(trace.est_err[-1]),
        "max_state_norm": float(np.linalg.norm(trace.x, axis=1).max()),
    }
    if window is None:
        window = (trace.t[-1] / 2.0, trace.t[-1])
    try:
        out["decay_rate"] = decay_rate(trace, window)
    except ValueError:
        out["decay_rate"] = math.nan
    return out
