"""Command-line front end: synthesize, verify, simulate, report.

Configuration grammar (INI-style sections, `key = value`, `#`/`;` comments;
unknown sections or keys are rejected):

    [model]
    states = phi psi                  # one name per state
    f1 = -psi - 1.5*phi^2 - 0.5*phi^3 # vector field, one key per row
    f2 = phi
    B = 0; 1                          # rows separated by ';'
    C = 0 1

    [controller]                      # and [observer], same keys
    lambda = 0.1
    alpha1 = 0.1
    alpha2 = 1.3
    rho_degree = 2                    # 0 .. synth.MAX_RHO_DEGREE (10)

    [sim]
    dt = 0.001
    T = 60
    integrator = rk4                  # rk4 | rk45
    noise_std = 0.0
    seed = 0
    x0 = limit-cycle                  # numbers, or the benchmark keyword
    xhat0 = 0 0

    [output]
    dir = out

Exit codes: 0 success/feasible, 2 infeasible (or verification failure),
3 solver inconclusive, 1 usage/config error or simulation failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .poly import PolyMatrix, PolyParseError, poly_from_text
from .realize import ControlLaw, ObserverLaw, kappa_candidates
from .sim import (
    SimConfig,
    SimTrace,
    SimulationError,
    limit_cycle_state,
    moore_greitzer,
    run_open_loop,
    run_output_feedback,
    run_state_feedback,
    trace_summary,
)
from .synth import (
    ControllerMetric,
    ObserverMetric,
    Role,
    SynthStatus,
    SystemModel,
    _parse_matrix,
    metric_from_text,
    metric_to_text,
    synthesize,
    verify_pointwise,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    pass


@dataclass
class RoleParams:
    lam: float
    alpha1: float
    alpha2: float
    rho_degree: int


@dataclass
class ProjectConfig:
    model: SystemModel
    state_names: list[str]
    controller: RoleParams
    observer: RoleParams
    dt: float
    T: float
    integrator: str
    noise_std: float
    seed: int
    x0_text: str
    xhat0_text: str
    outdir: str

    def sim_config(self, noise_std=None, seed=None) -> SimConfig:
        return SimConfig(
            dt=self.dt, T=self.T, integrator=self.integrator,
            noise_std=self.noise_std if noise_std is None else noise_std,
            seed=self.seed if seed is None else seed,
            x0=resolve_state(self.x0_text, self.model),
            xhat0=resolve_state(self.xhat0_text, self.model),
        )


_ALLOWED_KEYS = {
    "model": None,  # validated separately (f1..fn depends on n)
    "controller": {"lambda", "alpha1", "alpha2", "rho_degree"},
    "observer": {"lambda", "alpha1", "alpha2", "rho_degree"},
    "sim": {"dt", "T", "integrator", "noise_std", "seed", "x0", "xhat0"},
    "output": {"dir"},
}


def resolve_state(text: str, model: SystemModel) -> np.ndarray:
    """Parse an initial-state value: numbers, or the benchmark keyword
    `limit-cycle` (a settled point on the open-loop oscillation)."""
    text = text.strip()
    if text == "limit-cycle":
        if model != moore_greitzer():
            raise ConfigError(
                "x0 = limit-cycle is defined only for the bundled benchmark model"
            )
        return limit_cycle_state()
    try:
        vals = np.array([float(v) for v in text.split()])
    except ValueError as exc:
        raise ConfigError(f"cannot parse state {text!r}: {exc}") from None
    if vals.size != model.n:
        raise ConfigError(f"state {text!r} has {vals.size} entries, expected {model.n}")
    return vals


def _parse_matrix_text(text: str, what: str) -> np.ndarray:
    try:
        return _parse_matrix(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from None


def parse_config(text: str, source: str = "<config>") -> ProjectConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep case
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"{source}: unknown section [{section}]")
        allowed = _ALLOWED_KEYS[section]
        if allowed is not None:
            for key in cp[section]:
                if key not in allowed:
                    raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
    for req in ("model", "controller", "observer"):
        if req not in cp:
            raise ConfigError(f"{source}: missing section [{req}]")

    msec = cp["model"]
    names = msec.get("states", "").split()
    if not names:
        raise ConfigError(f"{source}: [model] states is required")
    n = len(names)
    for key in msec:
        if key not in {"states", "B", "C"} | {f"f{i + 1}" for i in range(n)}:
            raise ConfigError(f"{source}: unknown key {key!r} in [model]")
    f_entries = []
    for i in range(n):
        key = f"f{i + 1}"
        if key not in msec:
            raise ConfigError(f"{source}: [model] missing {key}")
        try:
            f_entries.append(poly_from_text(msec[key], n, names))
        except PolyParseError as exc:
            raise ConfigError(f"{source}: [model] {key}: {exc}") from None
    B = _parse_matrix_text(msec.get("B", ""), "[model] B")
    C = _parse_matrix_text(msec.get("C", ""), "[model] C")
    try:
        model = SystemModel(PolyMatrix.column(f_entries), B, C)
    except ValueError as exc:
        raise ConfigError(f"{source}: [model]: {exc}") from None

    def role_params(section) -> RoleParams:
        sec = cp[section]
        try:
            return RoleParams(
                lam=float(sec.get("lambda", "")),
                alpha1=float(sec.get("alpha1", "")),
                alpha2=float(sec.get("alpha2", "")),
                rho_degree=int(sec.get("rho_degree", "2")),
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: [{section}]: {exc}") from None

    sim = cp["sim"] if "sim" in cp else {}
    try:
        dt = float(sim.get("dt", "0.001"))
        T = float(sim.get("T", "60"))
        integrator = sim.get("integrator", "rk4")
        noise_std = float(sim.get("noise_std", "0"))
        seed = int(sim.get("seed", "0"))
    except ValueError as exc:
        raise ConfigError(f"{source}: [sim]: {exc}") from None

    outdir = cp["output"].get("dir", "out") if "output" in cp else "out"
    return ProjectConfig(
        model=model, state_names=names,
        controller=role_params("controller"), observer=role_params("observer"),
        dt=dt, T=T, integrator=integrator, noise_std=noise_std, seed=seed,
        x0_text=sim.get("x0", " ".join(["0"] * n)),
        xhat0_text=sim.get("xhat0", " ".join(["0"] * n)),
        outdir=outdir,
    )


def load_config(name_or_path: str) -> ProjectConfig:
    """Load a config by preset name (mg-slow, mg-medium, mg-fast) or path."""
    preset = resources.files("ccm").joinpath(f"presets/{name_or_path}.cfg")
    if preset.is_file():
        return parse_config(preset.read_text(), source=f"preset:{name_or_path}")
    path = Path(name_or_path)
    if not path.is_file():
        raise ConfigError(f"config {name_or_path!r}: no such file or preset")
    return parse_config(path.read_text(), source=str(path))


# -- synthesize -------------------------------------------------------------------


def _synthesis_report_lines(role: str, res, metric) -> list[str]:
    lines = [f"[{role}]", f"status = {res.status.value}"]
    lines.append(f"iterations = {res.solution.iterations}")
    lines.append(f"solver_gap = {float(res.solution.gap)!r}")
    lines.append(f"problem = {res.info.summary()}")
    lines.append(f"wall_time_s = {res.wall_time:.3f}")
    if metric is not None:
        ev = metric.w_eigenvalues()
        mlo, mhi = metric.m_bounds()
        lines.append(
            f"w_eig_range = [{float(ev[0])!r}, {float(ev[-1])!r}]  # alpha-bounds on W"
        )
        lines.append(f"m_eig_range = [{mlo!r}, {mhi!r}]  # reciprocal range of W^-1")
        kc = kappa_candidates(metric)
        lines.append(
            "iss_gain_candidates = "
            + ", ".join(f"{k}={v!r}" for k, v in sorted(kc.items()))
            + "  # only inv_sqrt_alpha1 is a valid ISS gain (W >= alpha1*I);"
            " the other two are shown for comparison"
        )
        for label, cert in (
            ("lmi", metric.lmi_certificate), ("rho", metric.rho_certificate)
        ):
            if cert is None:
                continue
            lines.append(f"{label}_certificate_digest = {cert.digest()}")
            lines.append(
                f"{label}_certificate_basis = "
                + " ".join("".join(map(str, m)) for m in cert.basis)
            )
            for k, row in enumerate(np.asarray(cert.gram)):
                lines.append(
                    f"{label}_certificate_gram[{k}] = "
                    + " ".join(repr(float(v)) for v in row)
                )
    if res.message:
        lines.append(f"note = {res.message}")
    return lines


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.outdir or cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report: list[str] = []
    worst = EXIT_OK
    for role, params, fname in (
        (Role.CONTROLLER, cfg.controller, "controller.metric"),
        (Role.OBSERVER, cfg.observer, "observer.metric"),
    ):
        res = synthesize(
            cfg.model, role, params.lam, params.alpha1, params.alpha2,
            params.rho_degree,
        )
        report.extend(_synthesis_report_lines(role.value, res, res.metric))
        report.append("")
        if res.status is SynthStatus.FEASIBLE:
            (outdir / fname).write_text(metric_to_text(res.metric, cfg.model))
            print(f"{role.value}: feasible -> {outdir / fname}")
        elif res.status is SynthStatus.INFEASIBLE:
            cert = res.certificate or {}
            lines = ["status infeasible", f"role {role.value}"]
            for nm, v in (cert.get("y") or {}).items():
                lines.append(f"ray {nm} {v!r}")
            (outdir / (fname + ".infeasible")).write_text("\n".join(lines) + "\n")
            print(f"{role.value}: infeasible (certificate written)")
            worst = EXIT_INFEASIBLE if worst != EXIT_INCONCLUSIVE else worst
        else:
            print(f"{role.value}: inconclusive ({res.message})")
            worst = EXIT_INCONCLUSIVE
    (outdir / "synthesis_report.txt").write_text("\n".join(report))
    return worst


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    code = EXIT_OK
    for mpath in args.metric:
        try:
            metric, model = metric_from_text(Path(mpath).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: {mpath}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if model is None:
            print(f"error: {mpath}: metric file has no embedded model", file=sys.stderr)
            return EXIT_USAGE
        lo, hi = args.box
        box = [(lo, hi)] * model.n
        chk = verify_pointwise(metric, model, box=box, grid=args.grid, tol=args.tol)
        status = "pass" if chk.passed else "FAIL"
        print(
            f"{mpath}: {status}  max_violation={chk.max_violation!r} "
            f"worst_point={[float(v) for v in chk.worst_point]} "
            f"grid_points={chk.grid_points}"
        )
        if not chk.passed:
            code = EXIT_INFEASIBLE
    return code


# -- simulate ---------------------------------------------------------------------


def _load_metrics(metric_dir: str):
    mdir = Path(metric_dir)
    cpath, opath = mdir / "controller.metric", mdir / "observer.metric"
    if not cpath.is_file() or not opath.is_file():
        raise ConfigError(
            f"feedback modes need {cpath} and {opath}; run `ccm synthesize` first"
        )
    cmetric, cmodel = metric_from_text(cpath.read_text())
    ometric, _ = metric_from_text(opath.read_text())
    if not isinstance(cmetric, ControllerMetric) or not isinstance(ometric, ObserverMetric):
        raise ConfigError("metric files have swapped roles")
    return cmetric, ometric, cmodel


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.outdir or cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sim_cfg = cfg.sim_config(noise_std=args.noise, seed=args.seed)
    if args.mode == "open":
        trace = run_open_loop(cfg.model, sim_cfg)
    else:
        if not args.metrics:
            raise ConfigError("feedback modes require -m METRIC_DIR")
        cmetric, ometric, cmodel = _load_metrics(args.metrics)
        if cmodel is not None and cmodel != cfg.model:
            raise ConfigError(
                "metric files certify a different model than the config declares"
            )
        claw = ControlLaw(cmetric, cfg.model)
        if args.mode == "state_fb":
            trace = run_state_feedback(cfg.model, claw, sim_cfg)
        else:
            olaw = ObserverLaw(ometric, cfg.model)
            trace = run_output_feedback(cfg.model, claw, olaw, sim_cfg)
    csv_path = outdir / f"trace_{args.mode}.csv"
    csv_path.write_text(trace.to_csv())
    s = trace_summary(trace)
    lines = [f"mode = {args.mode}"]
    lines.append(f"dt = {sim_cfg.dt!r}")
    lines.append(f"T = {sim_cfg.T!r}")
    lines.append(f"noise_std = {sim_cfg.noise_std!r}")
    lines.append(f"seed = {sim_cfg.seed}")
    for k in ("overshoot", "decay_rate", "final_state_norm", "max_state_norm", "final_est_err"):
        lines.append(f"{k} = {s[k]!r}")
    (outdir / f"summary_{args.mode}.txt").write_text("\n".join(lines) + "\n")
    print(f"trace -> {csv_path}")
    print("; ".join(f"{k}={s[k]:.6g}" for k in ("overshoot", "decay_rate", "final_state_norm")))
    return EXIT_OK


# -- report -----------------------------------------------------------------------


_PLOT_STATES = """\
#!/usr/bin/env python3
\"\"\"States and estimates over time for {stem}.\"\"\"
import csv
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = {path!r}
with open(path) as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
names = {names!r}
fig, axes = plt.subplots(len(names), 1, sharex=True, figsize=(8, 2.5 * len(names)))
for ax, nm in zip(axes, names):
    ax.plot(t, [float(r[nm]) for r in rows], label=nm)
    ax.plot(t, [float(r[nm + "_hat"]) for r in rows], "--", label=nm + " estimate")
    ax.set_ylabel(nm)
    ax.legend(loc="best")
axes[-1].set_xlabel("t")
fig.tight_layout()
fig.savefig("states_{stem}.png", dpi=150)
print("wrote states_{stem}.png")
"""

_PLOT_LOGDIST = """\
#!/usr/bin/env python3
\"\"\"Log distance-to-target and theoretical bound for {stem}.\"\"\"
import csv, math
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = {path!r}
with open(path) as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
d = [float(r["d"]) for r in rows]
db = [float(r["d_bound"]) for r in rows]
fig, ax = plt.subplots(figsize=(8, 4))
ax.semilogy(t, [max(v, 1e-300) for v in d], label="distance")
if any(v > 0 for v in db):
    ax.semilogy(t, [max(v, 1e-300) for v in db], "--", label="bound")
ax.set_xlabel("t"); ax.set_ylabel("distance")
ax.legend(loc="best")
fig.tight_layout()
fig.savefig("logdist_{stem}.png", dpi=150)
print("wrote logdist_{stem}.png")
"""

_PLOT_COMPARE = """\
#!/usr/bin/env python3
\"\"\"Normalized state-norm comparison across runs (transient peaking).\"\"\"
import csv, math
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

paths = {paths!r}
fig, ax = plt.subplots(figsize=(8, 4))
for path, label in paths:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    t = [float(r["t"]) for r in rows]
    names = {names!r}
    norms = [math.sqrt(sum(float(r[nm]) ** 2 for nm in names)) for r in rows]
    base = norms[0] if norms[0] > 0 else 1.0
    ax.plot(t, [v / base for v in norms], label=label)
ax.set_xlabel("t"); ax.set_ylabel("|x(t)| / |x(0)|")
ax.legend(loc="best")
fig.tight_layout()
fig.savefig("peaking_compare.png", dpi=150)
print("wrote peaking_compare.png")
"""

_PLOT_NOISE = """\
#!/usr/bin/env python3
\"\"\"Measured output vs true output for {stem}.\"\"\"
import csv
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = {path!r}
with open(path) as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
fig, ax = plt.subplots(figsize=(8, 4))
ax.plot(t, [float(r["y"]) for r in rows], lw=0.4, label="measured y")
ax.plot(t, [float(r["y_clean"]) for r in rows], lw=1.5, label="true output")
ax.set_xlabel("t"); ax.set_ylabel("output")
ax.legend(loc="best")
fig.tight_layout()
fig.savefig("noise_{stem}.png", dpi=150)
print("wrote noise_{stem}.png")
"""


def cmd_report(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    traces = []
    for tpath in args.trace:
        p = Path(tpath)
        try:
            trace = SimTrace.from_csv(p.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: {tpath}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        traces.append((p, trace))
    manifest = ["plot-script bundle", ""]
    names = traces[0][1].state_names()
    for p, trace in traces:
        if trace.state_names() != names:
            print(
                f"error: {p}: trace header disagrees with {traces[0][0]}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    for p, trace in traces:
        stem = p.stem
        spath = str(p.resolve())
        (outdir / f"plot_states_{stem}.py").write_text(
            _PLOT_STATES.format(stem=stem, path=spath, names=names)
        )
        (outdir / f"plot_logdist_{stem}.py").write_text(
            _PLOT_LOGDIST.format(stem=stem, path=spath)
        )
        manifest.append(f"plot_states_{stem}.py   states/estimates of {p.name}")
        manifest.append(f"plot_logdist_{stem}.py  log-distance + bound of {p.name}")
        if np.abs(trace.y - trace.y_clean).max() > 0:
            (outdir / f"plot_noise_{stem}.py").write_text(
                _PLOT_NOISE.format(stem=stem, path=spath)
            )
            manifest.append(f"plot_noise_{stem}.py    measured vs true output of {p.name}")
    if len(traces) >= 2:
        pairs = [(str(p.resolve()), p.stem) for p, _ in traces]
        (outdir / "plot_peaking_compare.py").write_text(
            _PLOT_COMPARE.format(paths=pairs, names=names)
        )
        manifest.append("plot_peaking_compare.py normalized transients across runs")
    (outdir / "README.txt").write_text("\n".join(manifest) + "\n")
    print(f"report bundle -> {outdir} ({len(manifest) - 2} scripts)")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _box_arg(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"box must be LO:HI, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError("box requires LO < HI")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ccm", description="contraction-metric output-feedback toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synthesize", help="solve both metric programs from a config")
    ps.add_argument("-c", "--config", required=True, help="config path or preset name")
    ps.add_argument("-o", "--outdir", default=None)
    ps.set_defaults(func=cmd_synthesize)

    pv = sub.add_parser("verify", help="pointwise LMI scan of metric files")
    pv.add_argument("-m", "--metric", required=True, action="append",
                    help="metric file (repeatable)")
    pv.add_argument("--box", type=_box_arg, default=(-5.0, 5.0), help="LO:HI per state")
    pv.add_argument("--grid", type=int, default=101)
    pv.add_argument("--tol", type=float, default=1e-6)
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("simulate", help="run one loop mode and export the trace")
    pm.add_argument("-c", "--config", required=True)
    pm.add_argument("-m", "--metrics", default=None, help="directory with metric files")
    pm.add_argument("--mode", choices=("open", "state_fb", "output_fb"), required=True)
    pm.add_argument("--noise", type=float, default=None, help="override noise_std")
    pm.add_argument("--seed", type=int, default=None, help="override seed")
    pm.add_argument("-o", "--outdir", default=None)
    pm.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("report", help="emit plot scripts for trace files")
    pr.add_argument("trace", nargs="+")
    pr.add_argument("-o", "--outdir", default="report")
    pr.set_defaults(func=cmd_report)
    return parser


def _glue_box_values(argv: list[str]) -> list[str]:
    # argparse rejects "--box -5:5" (looks like an option); glue into --box=-5:5
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--box" and k + 1 < len(argv) and argv[k + 1].startswith("-"):
            out.append(f"--box={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_box_values(list(argv)))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
