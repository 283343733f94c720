"""Spans recorded from the benchmark's side of each layer boundary.

A span is (kind, parent, start, end), its kind named "<layer>.<stage>".
Spans live in memory as parallel lists and are written out once, at the end
of the run. A layer's self time
is the sum of its spans' durations minus the part covered by child spans.
ccm itself is not modified: the benchmark replays ``synthesize`` stage by
stage, wraps law and projector methods on the instances it builds, and
swaps a few module attributes only while a traced pass runs.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

LAYERS = ("bench", "poly", "sos", "sdp", "synth", "geom", "realize", "sim")


class Tracer:
    """Spans named "<layer>.<stage>", e.g. "sdp.solve" or "realize.control"."""

    def __init__(self):
        self.kinds: list[str] = []
        self._kind_id: dict[str, int] = {}
        self.kind: list[int] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.stack: list[int] = [-1]
        self.calls: dict[str, int] = {}

    def _kid(self, kind: str) -> int:
        if kind not in self._kind_id:
            if kind.split(".")[0] not in LAYERS:
                raise ValueError(f"unknown layer in span kind {kind!r}")
            self._kind_id[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._kind_id[kind]

    def _open(self, kid: int) -> int:
        idx = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self.stack[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, kind: str):
        idx = self._open(self._kid(kind))
        self.t0[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.t1[idx] = time.perf_counter()
            self.stack.pop()

    def wrap(self, kind: str, fn):
        """fn with a span and a call count around every call."""
        kid = self._kid(kind)
        clock = time.perf_counter
        calls = self.calls
        calls.setdefault(kind, 0)

        def traced(*args, **kwargs):
            idx = self._open(kid)
            calls[kind] += 1
            self.t0[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t1[idx] = clock()
                self.stack.pop()

        return traced

    def _arrays(self):
        return (np.asarray(self.kind, dtype=np.int64), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.t0), np.asarray(self.t1))

    def self_times(self) -> dict[str, float]:
        """Self time per span kind: duration minus the time of child spans."""
        kind, parent, t0, t1 = self._arrays()
        dur = t1 - t0
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        per = np.bincount(kind, weights=dur - child, minlength=len(self.kinds))
        return {k: float(per[i]) for i, k in enumerate(self.kinds)}

    def total(self, kind: str) -> float:
        """Summed duration of the spans of one kind (none of them nest)."""
        if kind not in self._kind_id:
            return 0.0
        k, _, t0, t1 = self._arrays()
        return float((t1 - t0)[k == self._kind_id[kind]].sum())

    def __len__(self) -> int:
        return len(self.kind)

    def save(self, path):
        kind, parent, t0, t1 = self._arrays()
        np.savez_compressed(path, kinds=np.array(self.kinds), kind=kind, parent=parent,
                            t0=t0, t1=t1)


def layer_self_times(self_times: dict[str, float]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for kind, v in self_times.items():
        out[kind.split(".")[0]] += v
    return out


@contextlib.contextmanager
def patched(obj, name: str, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def replay_synthesize(tr: Tracer, model, role, lam, alpha1, alpha2, rho_degree):
    """``ccm.synth.synthesize`` stage by stage, one span per stage.

    Runs the same statements in the same order as synthesize, so its result
    is bit-equal (a traced run checks this on every item).
    """
    from ccm.poly import Polynomial
    from ccm.sdp import SdpStatus, solve
    from ccm.sos import check_certificate, compile as sos_compile, recover_certificate
    from ccm.synth import (
        ControllerMetric, ObserverMetric, Role, SynthesisResult, SynthStatus,
        controller_program, observer_program,
    )

    t0 = time.perf_counter()
    with tr.span("synth.program"):
        if role is Role.CONTROLLER:
            program = controller_program(model, lam, alpha1, alpha2, rho_degree)
        else:
            program = observer_program(model, lam, alpha1, alpha2, rho_degree)
    with tr.span("sos.compile"):
        prob, info = sos_compile(program.constraints, program.bounds, program.params)
    with tr.span("sdp.solve"):
        sol = solve(prob, None)
    elapsed = time.perf_counter() - t0
    if sol.status is SdpStatus.MARGINAL:
        return SynthesisResult(SynthStatus.INCONCLUSIVE, None, sol, prob, info, program,
                               elapsed, message=sol.message or "solver inconclusive")
    if sol.status is SdpStatus.INFEASIBLE:
        return SynthesisResult(SynthStatus.INFEASIBLE, None, sol, prob, info, program,
                               elapsed, message="synthesis program infeasible")
    with tr.span("synth.metric"):
        W = np.asarray(sol.values[program.w_name], dtype=float)
        rho = Polynomial(model.n, {m: float(sol.values[f"{program.rho_prefix}{k}"])
                                   for k, m in enumerate(program.rho_monomials)})
    with tr.span("sos.recover_check"):
        lmi_cert = recover_certificate(info, program.constraints[0].name, sol.values)
        rho_cert = recover_certificate(info, program.constraints[1].name, sol.values)
    with tr.span("synth.metric"):
        cls = ControllerMetric if role is Role.CONTROLLER else ObserverMetric
        metric = cls(W=W, rho=rho, lam=lam, alpha1=alpha1, alpha2=alpha2,
                     rho_certificate=rho_cert, lmi_certificate=lmi_cert)
    with tr.span("sos.recover_check"):
        msgs = []
        concrete_main = program.constraints[0].expression.substitute_params(sol.values)
        if not check_certificate(concrete_main, lmi_cert, 1e-6):
            msgs.append("contraction certificate residual above 1e-6")
        if not check_certificate(rho, rho_cert, 1e-6):
            msgs.append("multiplier certificate residual above 1e-6")
    return SynthesisResult(SynthStatus.FEASIBLE, metric, sol, prob, info, program,
                           elapsed, message="; ".join(msgs))


def trace_laws(tr: Tracer, claw, olaw):
    """Instance-level wrappers on one controller/observer law pair."""
    claw.control = tr.wrap("realize.control", claw.control)
    olaw.rhs = tr.wrap("realize.observer_rhs", olaw.rhs)
    olaw.projector.project = tr.wrap("geom.project", olaw.projector.project)


def untrace_laws(claw, olaw):
    for obj, name in ((claw, "control"), (olaw, "rhs"), (olaw.projector, "project")):
        obj.__dict__.pop(name, None)
