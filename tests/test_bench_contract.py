"""The benchmark harness's use of ccm: bench/tracing.py replays synthesize
stage by stage, reading the program's fields and the solution's values by
name, and its result must equal synthesize's. The harness is only read."""

import importlib.util
from pathlib import Path

import pytest

from ccm.synth import Role, SynthStatus, synthesize

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("role", list(Role))
def test_replay_synthesize_matches_synthesize(mg_model, role):
    tracing = _bench_module("tracing")
    tr = tracing.Tracer()
    args = (mg_model, role, 0.1, 0.1, 1.3, 2)  # mg-slow, rho_degree 2
    got = tracing.replay_synthesize(tr, *args)
    want = synthesize(*args)
    assert got.status is want.status is SynthStatus.FEASIBLE
    assert got.solution.iterations == want.solution.iterations
    assert got.metric.W.tobytes() == want.metric.W.tobytes()
    assert got.metric.rho == want.metric.rho
    for cert in ("rho_certificate", "lmi_certificate"):
        assert getattr(got.metric, cert).digest() == getattr(want.metric, cert).digest()
    assert got.message == want.message
    assert {"synth.program", "sos.compile", "sdp.solve", "sos.recover_check"} <= set(tr.kinds)
