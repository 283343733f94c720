"""Closed-loop simulation: open loop, state feedback, output feedback.

The three loop modes are one loop with parts switched off (the separation
principle): plant + observer + controller for output feedback, the
controller fed the true state for state feedback, u = 0 for the open loop.
One run core builds the vector field and the trace for all three, and
`integrate` is the one RK4 loop. With constant metrics the feedback loop is
explicit (u polynomial in xhat, xbar affine in (xhat, y), the rho path
integrals precompiled polynomials), so each run generates its whole vector
field once as straight-line Python over floats (`_closed_loop_field`). It
writes only the plant and the measurement and splices in the laws' own
source lines, the code that `ControlLaw.control` and `ObserverLaw.rhs` run;
the open loop is the same generator with both laws off, f(x) alone. The RK4
stages are combined per entry on Python floats, which rounds exactly like
the same operations on numpy float64 arrays. After integration the control
over the trace is one batched `ControlLaw.control` call, bit-equal to the u
that the field computes at the same states.

Fixed-step classical RK4 is the default integrator (reproducibility over
adaptivity); an adaptive RK45 backend is available for cross-checking on
noise-free runs. Measurement noise (output feedback only) is discrete-time:
one Gaussian draw per output step, passed to `integrate` as data, held
constant across the RK4 stages of that step and added to the continuous
measurement C x(t), so a noise-free observer started at the plant state
tracks it exactly.

Each trace records the Riemannian distance to the target under the
controller metric and a theoretical bound curve. Every feedback run draws
it from one call of `iss_bound`, the exact solution of the ISS inequality
d' = -lambda d + kappa |w(t)| with w = B (u(xhat) - u(x)), the measured
feedback-mismatch disturbance (np.interp over the trace). For state
feedback w = 0, so the bound is d(0) e^(-lambda t); for output feedback,
noisy or not, it is the a-posteriori ISS envelope of the measured w.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from scipy.integrate import solve_ivp

from .poly import PolyMatrix, compile_function, linear_source, poly_from_text, symbols
from .realize import ControlLaw, ISS_KAPPA_KEY, ObserverLaw, kappa_candidates
from .synth import ControllerMetric, SystemModel


class SimulationError(RuntimeError):
    pass


# largest accepted number of output steps T/dt: a noisy output-feedback run
# keeps about 0.3 kB per step, so 0.3 GB and some 20 s of RK4 at the budget
MAX_SIM_STEPS = 10**6

# relative and absolute tolerances of the adaptive RK45 integrator
RK45_RTOL = 1e-9
RK45_ATOL = 1e-12


@dataclass
class SimConfig:
    dt: float = 1e-3
    T: float = 60.0
    integrator: str = "rk4"  # "rk4" | "rk45"
    noise_std: float = 0.0
    seed: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(2))
    xhat0: np.ndarray = field(default_factory=lambda: np.zeros(2))

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
        if self.T / self.dt >= MAX_SIM_STEPS + 1:
            raise ValueError(f"T/dt = {self.T / self.dt:.7g} is above the budget of "
                             f"{MAX_SIM_STEPS} steps")
        if self.integrator not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

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
        if len(lines) < 2:
            raise ValueError("trace has no header line" if not lines else "trace has no rows")
        header = lines[0].split(",")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        if data.shape[1] != len(header):
            raise ValueError("inconsistent trace header")
        col = {name: data[:, k] for k, name in enumerate(header)}
        state_names = [h for h in header if h not in ("t",) and not h.endswith("_hat")
                       and not h.startswith(("u", "y", "d", "est_err"))]
        unames = [h for h in header if h == "u" or (h.startswith("u") and h[1:].isdigit())]
        ynames = [h for h in header if h == "y" or (h.startswith("y") and h[1:].isdigit())]
        cnames = [h for h in header if h.startswith("y_clean")]
        groups = {"state": state_names, "u": unames, "y": ynames, "y_clean": cnames}
        missing = [g for g, names in groups.items() if not names]
        missing += [nm for nm in ["t", *(f"{s}_hat" for s in state_names), "d", "d_bound",
                                  "est_err"] if nm not in col]
        if missing:
            raise ValueError(f"trace lacks columns {missing}")
        x = np.stack([col[nm] for nm in state_names], axis=1)
        x_hat = np.stack([col[f"{nm}_hat"] for nm in state_names], axis=1)
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
    """One classical RK4 step of a list of floats, combined per entry as
    z + (dt/2)*k and z + (dt/6)*(k1 + 2*k2 + 2*k3 + k4): the same IEEE
    operations, and so the same bits, as that expression on float64 arrays."""
    h2, h6 = dt / 2, dt / 6
    k1 = rhs(t, z, *args)
    k2 = rhs(t + h2, [a + h2 * b for a, b in zip(z, k1)], *args)
    k3 = rhs(t + h2, [a + h2 * b for a, b in zip(z, k2)], *args)
    k4 = rhs(t + dt, [a + dt * b for a, b in zip(z, k3)], *args)
    return [a + h6 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


def integrate(rhs, x0, cfg: SimConfig, noise=None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate xdot = rhs(t, x) on the fixed output grid of cfg.

    rhs receives the state as a list of floats and may return any sequence
    of floats. Returns (t, states) with states[k] at t[k]; fixed-step RK4
    or adaptive RK45 (dense output sampled on the grid). Aborts on
    non-finite states. With noise (RK4 only), one row per step: every stage
    of step k calls rhs(t, x, noise[k]).
    """
    ts = cfg.time_grid()
    x0 = np.asarray(x0, dtype=float)
    if cfg.integrator == "rk45":
        if noise is not None:
            raise ValueError("noise injection requires the fixed-step rk4 integrator")
        sol = solve_ivp(
            lambda t, y: rhs(t, y.tolist()), (0.0, cfg.T), x0, method="RK45", t_eval=ts,
            rtol=RK45_RTOL, atol=RK45_ATOL,
        )
        if not sol.success:
            raise SimulationError(f"adaptive integration failed: {sol.message}")
        states = sol.y.T
        if not np.isfinite(states).all():
            raise SimulationError("non-finite state in adaptive integration")
        return ts, states
    states = np.empty((len(ts), x0.size))
    states[0] = x0
    z, dt = x0.tolist(), cfg.dt
    for k in range(cfg.nsteps):
        # k * dt is ts[k] to the bit, without a list of every grid time
        args = () if noise is None else (noise[k],)
        z = _rk4_step(rhs, k * dt, z, dt, *args)
        if not all(map(math.isfinite, z)):
            raise SimulationError(
                f"non-finite state at t={(k + 1) * dt:.6g}: {np.array(z)}"
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
    n, B, C = model.n, model.B, model.C
    z0, noise, e = cfg.x0, None, None
    if olaw is not None:
        sigma = cfg.noise_std
        if sigma > 0 and cfg.integrator != "rk4":
            raise ValueError("noise injection requires the fixed-step rk4 integrator")
        xi = np.random.default_rng(cfg.seed).standard_normal((cfg.nsteps + 1, model.p))
        e = sigma * xi
        z0 = np.concatenate([cfg.x0, cfg.xhat0])
        if cfg.integrator == "rk4":
            noise = e.tolist()
    ts, zs = integrate(_closed_loop_field(model, claw, olaw), z0, cfg, noise)
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
        xhs, ys = zs[:, n:], y_clean + e
    u = np.zeros((N, model.m)) if claw is None else claw.control(xhs)
    d_bound, est_err = np.zeros(N), np.zeros(N)
    if olaw is not None:
        est_err = _metric_norm(xhs - xs, olaw.metric.W)
    if claw is not None:
        # the measured feedback-mismatch disturbance w = B (u(xhat) - u(x)), 0 for state feedback
        w_mag = np.zeros(N) if olaw is None else np.linalg.norm((u - claw.control(xs)) @ B.T, axis=1)
        env = lambda t: np.interp(t, ts, w_mag)
        d_bound = iss_bound(claw.metric, d[0], env, cfg.T, cfg.dt)[1]
    mode = "open" if claw is None else "state_fb" if olaw is None else "output_fb"
    return SimTrace(
        t=ts, x=xs, x_hat=xhs, u=u, y=ys, y_clean=y_clean,
        d=d, d_bound=d_bound, est_err=est_err, mode=mode,
    )


def _closed_loop_field(model: SystemModel, claw: ControlLaw | None,
                       olaw: ObserverLaw | None):
    """The loop's vector field (t, z, e) -> zdot, generated once per run as
    straight-line Python over a float sequence z, returning a list.

    With an observer, z = (x, xhat), e is the measurement noise row and
    y = C x + e; without one, z = x and the controller reads x; without a
    controller the field is f(x) alone, with no B u terms. The field states
    the plant and the measurement; u and dxhat/dt are the laws' own source
    lines (ControlLaw.lines, ObserverLaw.lines).
    """
    n, m, p = model.n, model.m, model.p
    xs, us = symbols("x", n), None if claw is None else symbols("u", m)
    hs = xs if olaw is None else symbols("h", n)
    body = [f"{', '.join(xs if olaw is None else xs + hs)}, = z"]
    if claw is not None:
        body += claw.lines(hs, us)
    out = model.rhs_source(xs, us)
    if olaw is not None:
        es, ys, gs = symbols("e", p), symbols("y", p), symbols("g", n)
        body.append(f"{', '.join(es)}, = e")
        body += [f"{ys[j]} = ({linear_source(model.C[j], xs)}) + {es[j]}" for j in range(p)]
        body += olaw.lines(hs, ys, us, gs)
        out += gs
    return compile_function(["t", "z", "e=_NOISE_FREE"], body, f"[{', '.join(out)}]",
                            {"_NOISE_FREE": (0.0,) * p})


def iss_bound(metric: ControllerMetric, d0: float, disturbance_env, T: float,
              dt: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Solve the disturbance bound  ddot = -lam*d + kappa*env(t)  step by step.

    env gives the Euclidean disturbance magnitude; kappa = 1/sqrt(alpha1)
    converts it to metric units. env is called once, on the array of the
    grid times followed by the step midpoints (a scalar result is
    broadcast). Over each step the forcing is the quadratic through its
    values at the step's ends and midpoint, integrated exactly against
    e^(-lam (h - s)):

        d[k+1] = e^(-lam h) d[k] + kappa h (a w[k] + b w[k+1/2] + c w[k+1]),

    with the weights of `_step_weights`. That is exact for any forcing that
    is quadratic, so also piecewise linear, on the steps, such as np.interp
    over measured samples. Returns (t, d_bound) on the fixed grid.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    kappa = kappa_candidates(metric)[ISS_KAPPA_KEY]
    nsteps = int(math.floor(T / dt + 1e-9))
    ts = np.arange(nsteps + 1) * dt
    t_env = np.concatenate([ts, ts[:-1] + dt / 2])
    w = np.broadcast_to(np.asarray(disturbance_env(t_env), dtype=float), t_env.shape)
    a, b, c = _step_weights(metric.lam * dt)
    g = (kappa * dt) * (a * w[:nsteps] + b * w[nsteps + 1:] + c * w[1:nsteps + 1])
    decay = math.exp(-metric.lam * dt)
    d = accumulate(g.tolist(), lambda dk, gk: decay * dk + gk, initial=float(d0))
    return ts, np.fromiter(d, float, nsteps + 1)


def _step_weights(z: float) -> tuple[float, float, float]:
    """The weights (a, b, c) of one unit step at z = lam*h: the integrals
    over s in [0, 1] of e^(-z (1 - s)) against the quadratic Lagrange basis
    on the nodes (0, 1/2, 1). In u = 1 - s the basis reads 2u^2 - u,
    4u - 4u^2 and 2u^2 - 3u + 1. The closed forms below lose all digits to
    cancellation as z -> 0, so small z sums the power series instead
    (Simpson's 1/6, 2/3, 1/6 at z = 0)."""
    if z < 1.0:
        a = b = c = 0.0
        term = 1.0  # (-z)^j / j!
        for j in range(20):
            a += term * (2 / (j + 3) - 1 / (j + 2))
            b += term * (4 / (j + 2) - 4 / (j + 3))
            c += term * (1 / (j + 1) - 3 / (j + 2) + 2 / (j + 3))
            term *= -z / (j + 1)
        return a, b, c
    e, z3 = math.exp(-z), z**3
    return ((4 - z - e * (4 + 3 * z + z * z)) / z3,
            4 * (z - 2 + e * (2 + z)) / z3,
            (4 - 3 * z + z * z - e * (4 + z)) / z3)


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
