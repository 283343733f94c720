"""ccm benchmark harness.

    python3 bench/run.py --workload synth-sweep --seed 1 --seconds 20 --trace 0

Drives the public functions of the ccm modules from outside, in one process,
with BLAS pinned to one thread. --trace 0 measures end to end and prints the
end-to-end metrics; --trace 1 runs a fixed number of rounds twice, untraced
and traced, and prints the per-layer metrics. The last line of standard
output is the result object; the lines before it record the environment and
the workload's details. See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are fixed before numpy is imported; nproc is 2 on the machine
# the baselines were taken on, and one thread gives the steadiest timings
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

from tracing import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("synth-sweep", "closed-loop", "verify-export")
SETUP_PROCS = 3  # fresh processes timed for setup_s (the median is reported)
TRACE_ROUNDS_PER_S = 0.1  # --trace 1 runs round(0.1 * seconds) rounds
REPEAT_ITEMS = 3  # round-0 items re-run at the end; their records must repeat exactly

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s.p50": "s", "op_s.tail": "s",
             "work_per_s": "1/s"}
PER_LAYER_UNITS = {
    "sdp.solve_s": "s", "sdp.iterations": "count", "sdp.s_per_iter": "s",
    "sdp.status.feasible": "count", "sdp.status.infeasible": "count",
    "sdp.status.marginal": "count",
    "sos.compile_s": "s", "sos.n_equalities": "count", "sos.recover_check_s": "s",
    "synth.program_s": "s", "synth.verify_s": "s", "synth.metric_from_text_s": "s",
    "synth.grid_points": "count",
    "poly.eval_many_s": "s", "poly.line_integral_form_s": "s",
    "geom.project_us": "us", "geom.project_calls": "count",
    "realize.control_us": "us", "realize.control_calls": "count",
    "realize.observer_rhs_us": "us", "realize.observer_rhs_calls": "count",
    "realize.iss_bound_s": "s", "realize.law_build_s": "s",
    "sim.self_s": "s", "sim.rk4_step_us": "us", "sim.rk4_steps": "count",
    "sim.limit_cycle_s": "s", "sim.to_csv_s": "s", "sim.from_csv_s": "s",
    "sim.csv_bytes": "bytes", "sim.csv_mb_per_s": "MB/s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_frac": "ratio",
    "trace.selftime_sum_s": "s",
    "trace.spans": "count", "trace.items": "count",
}
# the end-to-end metrics under the names each workload gives them
WORKLOAD_NAMES = {
    "synth-sweep": {"op_s.p50": "synth_s.p50", "op_s.tail": "synth_s.tail",
                    "work_per_s": "programs_per_s"},
    "closed-loop": {"op_s.p50": "traj_s.p50", "op_s.tail": "traj_s.tail",
                    "work_per_s": "rk4_steps_per_s"},
    "verify-export": {"op_s.p50": "csv_roundtrip_s.p50", "op_s.tail": "csv_roundtrip_s.tail",
                      "work_per_s": "verify_points_per_s"},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: set up once, print the seconds taken, exit")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath("ccm").rglob("*.py"), *SRC.joinpath("ccm").rglob("*.cfg"),
                        *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_rev": git_rev(), "source_digest": source_digest(),
    }


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Counts, problems and exact per-item records of one pass."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: dict[str, object] = {}

    def call(self, r, item, fn):
        """Run fn() (the timed call), then check its output untimed.
        Returns the call's seconds, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failing ccm call is counted and reported, not fatal
            self.failed += 1
            self.problems.append(f"r{r}/{item.key} raised:\n{traceback.format_exc()}")
            return None
        dt = time.perf_counter() - t0
        problems, record = self.wl.check(r, item, out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.records[f"r{r}/{item.key}"] = json.loads(json.dumps(record))
        return dt


def compare_records(a: dict, b: dict, what: str) -> list[str]:
    return [f"{what}: {key} gave {a[key]} then {b[key]}"
            for key in sorted(set(a) & set(b)) if a[key] != b[key]]


def cross_run_check(workload: str, seed: int, digest: str, records: dict) -> list[str]:
    """Compare exact records with earlier runs of the same source and seed."""
    path = OUT / "determinism" / f"{workload}-seed{seed}-{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    old = json.loads(path.read_text()) if path.is_file() else {}
    mismatches = compare_records(old, records, "differs from an earlier run")
    if not mismatches:
        path.write_text(json.dumps({**old, **records}, sort_keys=True))
    return mismatches


def measure(wl, seconds: float, ledger: Ledger, probe):
    """Whole rounds until the timed calls add up to `seconds` of wall time.
    Returns speed-normalized samples (see speed.py) and the raw ones."""
    norm = {"lat": [], "work_time": 0.0}
    raw = {"lat": [], "work_time": 0.0}
    work, measured, r, first_round = 0, 0.0, 0, None
    while measured < seconds:
        items = wl.round(r)
        first_round = first_round or items
        for item in items:
            dt = ledger.call(r, item, lambda: wl.run(item))
            f = probe.factors()[wl.kernel(item)]
            if dt is None:
                continue
            measured += dt
            for acc, v in ((raw, dt), (norm, dt / f)):
                if wl.is_latency(item):
                    acc["lat"].append(v)
                if wl.work(item):
                    acc["work_time"] += v
            work += wl.work(item)
        r += 1
    return norm, raw, work, measured, r, first_round


def e2e_metrics(wl, setup_s, samples, work):
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "op_s.p50": percentile(samples["lat"], 50.0),
        "op_s.tail": percentile(samples["lat"], wl.tail_pct),
        "work_per_s": work / samples["work_time"],
    }


def setup_once(wl):
    from tracing import Tracer
    from workloads import warm_up

    warm_up()
    wl.one_off(Tracer())
    wl.setup(Tracer())


def fresh_setups(wl, args, probe):
    """Set-up time of SETUP_PROCS fresh processes, from the first line of
    run.py to ready: imports, warm-up, ccm's process-level caches, set-up."""
    raw, norm = [], []
    for _ in range(SETUP_PROCS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True)
        raw.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        norm.append(raw[-1] / statistics.mean(probe.factors().values()))
    return raw, norm


def run_e2e(wl, args, ledger: Ledger):
    from speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe(wl.kernels)
    setups_raw, setups = fresh_setups(wl, args, probe)
    setup_s, setup_raw = statistics.median(setups), statistics.median(setups_raw)
    setup_once(wl)
    probe.factors()

    norm, raw, work, measured, rounds, first_round = measure(wl, args.seconds, ledger, probe)
    metrics = e2e_metrics(wl, setup_s, norm, work)
    timed_records = dict(ledger.records)
    repeat = Ledger(wl)
    for item in first_round[:REPEAT_ITEMS]:
        repeat.call(0, item, lambda: wl.run(item))
    ledger.problems += repeat.problems
    ledger.problems += compare_records(timed_records, repeat.records, "repeated item")
    ledger.problems += wl.final_checks(first_round)
    beyond = sum(1 for v in norm["lat"] if v > metrics["op_s.tail"])
    names = WORKLOAD_NAMES[wl.name]
    details = {
        "names": {names.get(k, k): {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "raw": {names.get(k, k): v for k, v in e2e_metrics(wl, setup_raw, raw, work).items()},
        "speed_factor": {k: {"median": statistics.median(v) / NOMINAL_S[k],
                             "min": min(v) / NOMINAL_S[k], "max": max(v) / NOMINAL_S[k]}
                         for k, v in probe.samples.items()},
        "fail_frac": (ledger.failed + wl.inconclusive_count(timed_records)) / ledger.attempted,
        "rounds": rounds, "measured_s": measured,
        "op_samples": len(norm["lat"]), "tail_pct": wl.tail_pct, "samples_beyond_tail": beyond,
        "work": work, "work_unit": wl.work_unit,
        "setup_processes_s": setups, "setup_processes_raw_s": setups_raw,
        **wl.describe(timed_records),
    }
    return metrics, details


def run_traced(wl, args, ledger: Ledger):
    import numpy as np

    from tracing import Tracer, layer_self_times
    from workloads import warm_up

    warm_up()
    st = Tracer()
    wl.one_off(st)
    wl.setup(st)
    nrounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_S))
    plan = [(r, item) for r in range(nrounds) for item in wl.round(r)]

    # each item runs once untraced and once traced, in alternating order, so
    # drift in machine speed cancels out of the tracing overhead
    tr = Tracer()
    plain = Ledger(wl)
    untraced = traced = 0.0
    for n, (r, item) in enumerate(plan):
        def op():
            with tr.span("bench.op"):
                return wl.traced(tr, item)
        for mode in ((0, 1) if n % 2 == 0 else (1, 0)):
            if mode:
                traced += ledger.call(r, item, op) or 0.0
            else:
                untraced += plain.call(r, item, lambda: wl.run(item)) or 0.0
    ledger.attempted += plain.attempted
    ledger.failed += plain.failed
    ledger.problems += plain.problems
    ledger.problems += compare_records(plain.records, ledger.records, "traced vs untraced")
    ledger.problems += wl.final_checks(wl.round(0))

    own = tr.self_times()
    per_layer = layer_self_times(own)
    setup_own = st.self_times()
    calls = tr.calls
    counts = wl.layer_counts(ledger.records)

    def per_call_us(kind):
        n = calls.get(kind, 0)
        return own.get(kind, 0.0) / n * 1e6 if n else 0.0

    steps = counts.get("sim.rk4_steps", 0)
    iters = counts.get("sdp.iterations", 0)
    csv_s = own.get("sim.to_csv", 0.0) + own.get("sim.from_csv", 0.0)
    selftime_sum = sum(per_layer.values())
    metrics = {
        "sdp.solve_s": own.get("sdp.solve", 0.0),
        "sdp.iterations": iters,
        "sdp.s_per_iter": own.get("sdp.solve", 0.0) / iters if iters else 0.0,
        "sdp.status.feasible": counts.get("sdp.status.feasible", 0),
        "sdp.status.infeasible": counts.get("sdp.status.infeasible", 0),
        "sdp.status.marginal": counts.get("sdp.status.marginal", 0),
        "sos.compile_s": own.get("sos.compile", 0.0),
        "sos.n_equalities": counts.get("sos.n_equalities", 0),
        "sos.recover_check_s": own.get("sos.recover_check", 0.0),
        "synth.program_s": own.get("synth.program", 0.0),
        "synth.verify_s": own.get("synth.verify", 0.0),
        "synth.metric_from_text_s": own.get("synth.metric_from_text", 0.0),
        "synth.grid_points": counts.get("synth.grid_points", 0),
        "poly.eval_many_s": own.get("poly.eval_many", 0.0),
        "poly.line_integral_form_s": setup_own.get("poly.line_integral_form", 0.0),
        "geom.project_us": per_call_us("geom.project"),
        "geom.project_calls": calls.get("geom.project", 0),
        "realize.control_us": per_call_us("realize.control"),
        "realize.control_calls": calls.get("realize.control", 0),
        "realize.observer_rhs_us": per_call_us("realize.observer_rhs"),
        "realize.observer_rhs_calls": calls.get("realize.observer_rhs", 0),
        "realize.iss_bound_s": own.get("realize.iss_bound", 0.0),
        "realize.law_build_s": setup_own.get("realize.law_build", 0.0),
        "sim.self_s": own.get("sim.run", 0.0),
        "sim.rk4_step_us": tr.total("sim.run") / steps * 1e6 if steps else 0.0,
        "sim.rk4_steps": steps,
        "sim.limit_cycle_s": setup_own.get("sim.limit_cycle", 0.0),
        "sim.to_csv_s": own.get("sim.to_csv", 0.0),
        "sim.from_csv_s": own.get("sim.from_csv", 0.0),
        "sim.csv_bytes": counts.get("sim.csv_bytes", 0),
        "sim.csv_mb_per_s": counts.get("sim.csv_bytes", 0) / 1e6 / csv_s if csv_s else 0.0,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = per_layer[layer] / selftime_sum if selftime_sum else 0.0
    overhead = traced / untraced - 1.0
    metrics.update({
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_frac": overhead,
        "trace.selftime_sum_s": selftime_sum,
        "trace.spans": len(tr),
        "trace.items": len(plan),
    })
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
    tr.save(spans_path)
    st.save(OUT / f"spans-setup-{wl.name}-seed{args.seed}.npz")
    details = {"rounds": nrounds, "spans_file": str(spans_path.relative_to(ROOT)),
               "fail_frac": (ledger.failed + wl.inconclusive_count(ledger.records)
                             + wl.inconclusive_count(plain.records)) / ledger.attempted,
               "self_s": own, "setup_self_s": setup_own, "calls": calls,
               **wl.describe(ledger.records)}
    if not np.isfinite(list(metrics.values())).all():
        ledger.problems.append("non-finite per-layer metric")
    # root spans cover every item, so the self times add up to the traced time
    if abs(selftime_sum - traced) > 1e-3 * traced:
        ledger.problems.append(f"self times sum to {selftime_sum} s, traced items took {traced} s")
    assert list(metrics) == list(PER_LAYER_UNITS), "per-layer metric list out of sync"
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ccm" / "__init__.py").is_file():
        print(f"bench: ccm sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        setup_once(wl)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    env = environment()
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    ledger = Ledger(wl)
    if args.trace:
        metrics, details = run_traced(wl, args, ledger)
        units = PER_LAYER_UNITS
    else:
        metrics, details = run_e2e(wl, args, ledger)
        units = E2E_UNITS
    determinism = cross_run_check(wl.name, args.seed, env["source_digest"], ledger.records)
    ledger.problems += determinism
    details["problems"] = ledger.problems
    print(json.dumps({"details": details}, default=str))
    for p in ledger.problems:
        print(f"bench: {p}", file=sys.stderr)
    correct = not ledger.problems
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    if determinism:
        print("bench: exact counts differ between runs of the same source and seed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
