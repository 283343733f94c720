"""The three workloads: set-up, timed items, untimed checks, traced items.

Each workload exposes
    one_off(tr)          set-up that ccm caches per process
    setup(tr)            the rest of the set-up
    round(r)             the items of round r
    run(item)            the timed call into ccm, returns its output
    check(r, item, out)  untimed correctness check -> (problems, exact record)
    traced(tr, item)     the same call with spans at each layer boundary
    work(item)           units of work_per_s the item does (0: not counted)
    kernel(item)         the speed.py kernel whose mix is closest to the item's
    is_latency(item)     whether the item is an op_s sample
    final_checks(first_round)    once-per-run reference checks -> problems
    describe(records)            workload details for the report
    inconclusive_count(records)  items whose answer was "inconclusive"
    layer_counts(records)        exact per-layer counts for the traced run
where tr is a tracing.Tracer that receives the set-up spans.
"""

from __future__ import annotations

import hashlib

import numpy as np

import inputs
import reference
from tracing import Tracer, patched, replay_synthesize, trace_laws, untrace_laws

LMI_TOL = 1e-6  # relative to the largest LMI entry at the point
BOUND_RTOL = 1e-9
REFERENCE_RTOL = 1e-9  # ccm.sim vs the numpy reference loop


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def warm_up():
    """Import every module and run each layer once on a small input, so lazy
    imports and first-call costs land in set-up, not in the timed region."""
    from ccm import (ControlLaw, ObserverLaw, Role, SimConfig, SimTrace, moore_greitzer,
                     run_output_feedback, synthesize, verify_pointwise)
    from ccm.synth import metric_from_text, metric_to_text

    model = moore_greitzer()
    lam, a1, a2 = inputs.REGIMES["mg-slow"]
    c = synthesize(model, Role.CONTROLLER, lam, a1, a2).metric
    o = synthesize(model, Role.OBSERVER, lam, a1, a2).metric
    cfg = SimConfig(T=0.05, x0=np.array([0.1, -0.1]), xhat0=np.zeros(2), noise_std=0.3)
    trace = run_output_feedback(model, ControlLaw(c, model), ObserverLaw(o, model), cfg)
    SimTrace.from_csv(trace.to_csv())
    metric_from_text(metric_to_text(c, model))
    verify_pointwise(c, model, grid=11)


def _synth_all_presets(model):
    from ccm import Role, synthesize

    metrics = {}
    for regime, (lam, a1, a2) in inputs.REGIMES.items():
        for role in inputs.ROLES:
            res = synthesize(model, Role(role), lam, a1, a2)
            if res.metric is None:
                raise RuntimeError(f"preset {regime} {role} did not synthesize: {res.message}")
            metrics[f"{regime}/{role}"] = res.metric
    return metrics


# -- synth-sweep --------------------------------------------------------------------


class SynthSweep:
    name = "synth-sweep"
    # p90 would sit in the gap between the three large programs of a round
    # (9 % of calls, 0.4 s and up) and the rest, and jump between them
    tail_pct = 80.0
    work_unit = "programs"
    kernels = ("lapack",)

    def __init__(self, seed: int):
        self.seed = seed
        self.models: dict = {}
        self.inconclusive: set[str] = set()

    def one_off(self, tr: Tracer):
        pass

    def setup(self, tr: Tracer):
        self.models = {}

    def round(self, r):
        return inputs.synth_round(self.seed, r)

    def _args(self, item):
        from ccm import Role

        key = (item.family, item.coeffs)
        if key not in self.models:
            self.models[key] = inputs.build_model(item.family, item.coeffs)
        lam, a1, a2 = inputs.REGIMES[item.regime]
        return self.models[key], Role(item.role), lam, a1, a2, item.rho_degree

    def run(self, item):
        from ccm import synthesize

        return synthesize(*self._args(item))

    def traced(self, tr, item):
        return replay_synthesize(tr, *self._args(item))

    def work(self, item):
        return 1

    def kernel(self, item):
        return "lapack"

    def is_latency(self, item):
        return True

    def check(self, r, item, res):
        from ccm import SolveOptions, check_solution
        from ccm.synth import SynthStatus

        tol = 10 * SolveOptions().feas_tol

        problems = []
        status = res.status.value
        label = f"{item.key} {item.family}{item.coeffs} {item.role} {item.regime} deg {item.rho_degree}"
        if res.status is SynthStatus.INCONCLUSIVE:
            # a documented outcome, not a failed call: counted in fail_frac
            # and listed by input, but not in `failed`
            self.inconclusive.add(f"{label}: {res.message}")
        elif not check_solution(res.problem, res.solution, tol).ok:
            problems.append(f"check_solution failed ({status}): {label}")
        if res.status is SynthStatus.FEASIBLE:
            m = res.metric
            eig = np.linalg.eigvalsh(m.W)
            slack = tol * max(1.0, m.alpha2)
            if eig[0] < m.alpha1 - slack or eig[-1] > m.alpha2 + slack:
                problems.append(f"W eigenvalues {eig} outside [{m.alpha1}, {m.alpha2}]: {label}")
            model = self.models[(item.family, item.coeffs)]
            observer = item.role == "observer"
            G = model.C.T if observer else model.B
            pts = inputs.round_rng(self.seed, 1000 + r).uniform(-3, 3, size=(32, model.n))
            top, scale = reference.lmi_max_eig(m.W, dict(m.rho.terms), m.lam,
                                               reference.jacobian_terms(model), G,
                                               observer, pts)
            worst = float(np.max(top / np.maximum(1.0, scale)))
            if worst > LMI_TOL:
                problems.append(f"contraction LMI max eigenvalue {worst:.3e} > {LMI_TOL}: {label}")
        record = [status, res.solution.iterations, res.info.n_equalities]
        if res.metric is not None:
            record.append(_digest(res.metric.W))
        return problems, record

    def final_checks(self, first_round):
        return []

    def describe(self, records):
        verdicts: dict[str, int] = {}
        for key, rec in records.items():
            if key.startswith("r0/"):
                verdicts[rec[0]] = verdicts.get(rec[0], 0) + 1
        return {"round0_verdicts": verdicts, "inconclusive_inputs": sorted(self.inconclusive)}

    def inconclusive_count(self, records):
        return sum(1 for rec in records.values() if rec[0] == "inconclusive")

    def layer_counts(self, records):
        out = {"sdp.iterations": 0, "sos.n_equalities": 0, "sdp.status.feasible": 0,
               "sdp.status.infeasible": 0, "sdp.status.marginal": 0}
        for status, iterations, n_eq, *_ in records.values():
            out["sdp.iterations"] += iterations
            out["sos.n_equalities"] += n_eq
            out[f"sdp.status.{'marginal' if status == 'inconclusive' else status}"] += 1
        return out


# -- closed-loop --------------------------------------------------------------------


class ClosedLoop:
    name = "closed-loop"
    tail_pct = 85.0  # a slow machine completes only about 72 trajectories in 20 s
    work_unit = "rk4_steps"
    kernels = ("interp",)

    def __init__(self, seed: int):
        self.seed = seed

    def one_off(self, tr: Tracer):
        from ccm import limit_cycle_state, moore_greitzer

        self.model = moore_greitzer()
        with tr.span("sim.limit_cycle"):
            self.center = limit_cycle_state()

    def setup(self, tr: Tracer):
        import ccm.realize
        from ccm import ControlLaw, ObserverLaw

        self.metrics = _synth_all_presets(self.model)
        self.laws = {}
        with patched(ccm.realize, "line_integral_form",
                     tr.wrap("poly.line_integral_form", ccm.realize.line_integral_form)):
            for regime in inputs.REGIMES:
                with tr.span("realize.law_build"):
                    claw = ControlLaw(self.metrics[f"{regime}/controller"], self.model)
                    olaw = ObserverLaw(self.metrics[f"{regime}/observer"], self.model)
                self.laws[regime] = (claw, olaw)

    def round(self, r):
        return inputs.traj_round(self.seed, r, self.center)

    def _cfg(self, item):
        from ccm import SimConfig

        return SimConfig(dt=inputs.TRAJ_DT, T=inputs.TRAJ_T, x0=np.array(item.x0),
                         xhat0=np.zeros(2), noise_std=item.noise_std, seed=item.noise_seed)

    def run(self, item):
        from ccm import run_output_feedback, run_state_feedback

        claw, olaw = self.laws[item.regime]
        if item.mode == "state_fb":
            return run_state_feedback(self.model, claw, self._cfg(item))
        return run_output_feedback(self.model, claw, olaw, self._cfg(item))

    def traced(self, tr, item):
        import ccm.sim

        claw, olaw = self.laws[item.regime]
        trace_laws(tr, claw, olaw)
        try:
            with patched(ccm.sim, "iss_bound", tr.wrap("realize.iss_bound", ccm.sim.iss_bound)):
                with tr.span("sim.run"):
                    return self.run(item)
        finally:
            untrace_laws(claw, olaw)

    def work(self, item):
        return int(np.floor(inputs.TRAJ_T / inputs.TRAJ_DT + 1e-9))

    def kernel(self, item):
        return "interp"

    def is_latency(self, item):
        return True

    def check(self, r, item, trace):
        problems = []
        label = f"{item.key} {item.mode} {item.regime} sigma={item.noise_std} x0={item.x0}"
        cols = (trace.x, trace.x_hat, trace.u, trace.d, trace.d_bound, trace.est_err)
        if not all(np.isfinite(c).all() for c in cols):
            problems.append(f"non-finite trajectory: {label}")
        elif item.noise_std == 0.0:
            if np.any(trace.d > trace.d_bound * (1 + BOUND_RTOL) + 1e-12):
                problems.append(f"d exceeds d_bound: {label}")
            # over T = 1 s the slow regime's bound decays by only 10 %, and an
            # output-feedback run peaks while the observer catches up, so
            # convergence means: past the peak, and the estimate closing in
            if item.mode == "state_fb":
                converged = trace.d[-1] < trace.d[0]
            else:
                converged = (trace.d[-1] < trace.d.max()
                             and trace.est_err[-1] < trace.est_err[0])
            if not converged:
                problems.append(f"no convergence over T={inputs.TRAJ_T}: {label}")
        return problems, [len(trace.t) - 1, _digest(*cols)]

    def final_checks(self, first_round):
        """Re-integrate one round-0 trajectory with the numpy reference loop."""
        item = first_round[self.seed % len(first_round)]
        trace = self.run(item)
        claw, olaw = self.laws[item.regime]
        ref = reference.closed_loop(self.model, claw.metric, olaw.metric, np.array(item.x0),
                                    np.zeros(2), inputs.TRAJ_T, inputs.TRAJ_DT,
                                    item.noise_std, item.noise_seed, item.mode)
        got = trace.x if item.mode == "state_fb" else np.hstack([trace.x, trace.x_hat])
        err = float(np.abs(ref - got).max() / max(1.0, np.abs(got).max()))
        self.reference = {"item": item.key, "mode": item.mode, "regime": item.regime,
                          "noise_std": item.noise_std, "max_rel_err": err,
                          "rtol": REFERENCE_RTOL}
        if not err <= REFERENCE_RTOL:
            return [f"reference re-integration of {item.key} differs by {err:.3e}"]
        return []

    def describe(self, records):
        return {"reference": getattr(self, "reference", None)}

    def inconclusive_count(self, records):
        return 0

    def layer_counts(self, records):
        return {"sim.rk4_steps": sum(rec[0] for rec in records.values())}


# -- verify-export ------------------------------------------------------------------


class VerifyExport:
    name = "verify-export"
    tail_pct = 80.0
    work_unit = "grid_points"
    kernels = ("vector", "interp")

    def __init__(self, seed: int):
        self.seed = seed

    def one_off(self, tr: Tracer):
        from ccm import limit_cycle_state, moore_greitzer

        self.model = moore_greitzer()
        with tr.span("sim.limit_cycle"):
            self.center = limit_cycle_state()

    def setup(self, tr: Tracer):
        from ccm import ControlLaw, ObserverLaw, SimConfig, run_output_feedback
        from ccm.synth import metric_to_text

        metrics = _synth_all_presets(self.model)
        self.texts = {k: metric_to_text(m, self.model) for k, m in metrics.items()}
        offset, noise_seed = inputs.trace_spec(self.seed)
        cfg = SimConfig(T=inputs.TRACE_T, x0=self.center + offset, xhat0=np.zeros(2),
                        noise_std=inputs.NOISE_STD, seed=noise_seed)
        claw = ControlLaw(metrics["mg-slow/controller"], self.model)
        olaw = ObserverLaw(metrics["mg-slow/observer"], self.model)
        self.trace = run_output_feedback(self.model, claw, olaw, cfg)
        self.csv_digest = None

    def round(self, r):
        return inputs.verify_export_round(self.seed, r)

    def run(self, item):
        from ccm import SimTrace, verify_pointwise
        from ccm.synth import metric_from_text

        if isinstance(item, inputs.ExportItem):
            text = self.trace.to_csv()
            return text, SimTrace.from_csv(text, mode=self.trace.mode)
        metric, model = metric_from_text(self.texts[item.metric])
        box = [(-item.half_width, item.half_width)] * model.n
        return metric, model, verify_pointwise(metric, model, box=box, grid=item.grid)

    def traced(self, tr, item):
        import ccm.synth
        from ccm import Polynomial, SimTrace

        if isinstance(item, inputs.ExportItem):
            with tr.span("sim.to_csv"):
                text = self.trace.to_csv()
            with tr.span("sim.from_csv"):
                back = SimTrace.from_csv(text, mode=self.trace.mode)
            return text, back
        with tr.span("synth.metric_from_text"):
            metric, model = ccm.synth.metric_from_text(self.texts[item.metric])
        box = [(-item.half_width, item.half_width)] * model.n
        with patched(Polynomial, "eval_many", tr.wrap("poly.eval_many", Polynomial.eval_many)):
            with tr.span("synth.verify"):
                chk = ccm.synth.verify_pointwise(metric, model, box=box, grid=item.grid)
        return metric, model, chk

    def work(self, item):
        return 0 if isinstance(item, inputs.ExportItem) else item.grid ** 2

    def kernel(self, item):
        return "interp" if isinstance(item, inputs.ExportItem) else "vector"

    def is_latency(self, item):
        return isinstance(item, inputs.ExportItem)

    def check(self, r, item, out):
        from ccm.synth import metric_to_text

        if isinstance(item, inputs.ExportItem):
            text, back = out
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            problems = []
            if self.csv_digest is None:
                self.csv_digest = digest
            elif digest != self.csv_digest:
                problems.append(f"to_csv of the same trace changed: {item.key}")
            for name in ("t", "x", "x_hat", "u", "y", "y_clean", "d", "d_bound", "est_err"):
                a, b = getattr(self.trace, name), getattr(back, name)
                if a.shape != b.shape or not np.array_equal(a, b):
                    problems.append(f"CSV round trip changed column {name}: {item.key}")
            return problems, [len(text), digest]
        metric, model, chk = out
        problems = []
        label = f"{item.key} {item.metric} grid {item.grid} box +-{item.half_width:.3f}"
        if metric_to_text(metric, model) != self.texts[item.metric]:
            problems.append(f"metric text round trip not bit-exact: {label}")
        if not chk.passed:
            problems.append(f"verify_pointwise failed ({chk.max_violation:.3e}): {label}")
        observer = metric.role.value == "observer"
        G = model.C.T if observer else model.B
        top, scale = reference.lmi_max_eig(metric.W, dict(metric.rho.terms), metric.lam,
                                           reference.jacobian_terms(model), G, observer,
                                           chk.worst_point[None, :])
        if abs(top[0] - chk.max_violation) > 1e-12 + 1e-9 * scale[0]:
            problems.append(f"worst violation {chk.max_violation!r} != reference "
                            f"{top[0]!r}: {label}")
        if chk.grid_points != item.grid ** 2:
            problems.append(f"grid has {chk.grid_points} points, expected {item.grid ** 2}")
        return problems, [chk.grid_points, repr(chk.max_violation),
                          [repr(float(v)) for v in chk.worst_point]]

    def final_checks(self, first_round):
        from ccm import SimTrace

        text = self.trace.to_csv()
        self.csv_bytes = len(text)
        if SimTrace.from_csv(text, mode=self.trace.mode).to_csv() != text:
            return ["CSV text does not survive to_csv(from_csv(text)) bit-exactly"]
        return []

    def describe(self, records):
        return {"trace_rows": len(self.trace.t), "csv_bytes": getattr(self, "csv_bytes", None)}

    def inconclusive_count(self, records):
        return 0

    def layer_counts(self, records):
        return {"sim.csv_bytes": sum(rec[0] for key, rec in records.items() if "/export/" in key),
                "synth.grid_points": sum(rec[0] for key, rec in records.items()
                                         if "/verify/" in key)}


WORKLOADS = {w.name: w for w in (SynthSweep, ClosedLoop, VerifyExport)}
