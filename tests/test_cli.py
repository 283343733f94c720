"""CLI: config grammar, commands, exit codes, idempotent outputs."""

import numpy as np
import pytest

from ccm.cli import (
    ConfigError,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    main,
    parse_config,
    resolve_state,
)
from ccm.sim import moore_greitzer

GOOD_CONFIG = """\
[model]
states = phi psi
f1 = -psi - 1.5*phi^2 - 0.5*phi^3
f2 = phi
B = 0; 1
C = 0 1

[controller]
lambda = 0.1
alpha1 = 0.1
alpha2 = 1.3

[observer]
lambda = 0.1
alpha1 = 0.1
alpha2 = 1.3

[sim]
dt = 0.001
T = 4
x0 = limit-cycle
xhat0 = 0 0

[output]
dir = out
"""


# -- config parsing ------------------------------------------------------------


def test_parse_good_config():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.state_names == ["phi", "psi"]
    assert cfg.controller.lam == 0.1
    assert cfg.observer.alpha2 == 1.3
    assert cfg.T == 4.0
    assert cfg.model.n == 2


def test_unknown_key_rejected():
    bad = GOOD_CONFIG.replace("dt = 0.001", "dt = 0.001\ntimestep = 2")
    with pytest.raises(ConfigError, match="unknown key 'timestep'"):
        parse_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(GOOD_CONFIG + "\n[extras]\nfoo = 1\n")


def test_missing_model_section():
    with pytest.raises(ConfigError, match=r"missing section \[model\]"):
        parse_config("[controller]\nlambda = 1\nalpha1 = 1\nalpha2 = 2\n")


def test_malformed_polynomial_reports_position():
    bad = GOOD_CONFIG.replace("f2 = phi", "f2 = phi + 2*zeta")
    with pytest.raises(ConfigError, match=r"line 1, column 9"):
        parse_config(bad)


def test_bad_matrix_rejected():
    bad = GOOD_CONFIG.replace("B = 0; 1", "B = 0; x")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(bad)


def test_presets_load():
    for name, lam, a2 in (("mg-slow", 0.1, 1.3), ("mg-medium", 5.0, 30.0), ("mg-fast", 10.0, 100.0)):
        cfg = load_config(name)
        assert cfg.controller.lam == lam
        assert cfg.controller.alpha2 == a2
        assert cfg.observer.lam == lam


def test_missing_config_path():
    with pytest.raises(ConfigError, match="no such file or preset"):
        load_config("definitely-not-a-preset")


def test_limit_cycle_keyword_only_for_benchmark():
    cfg = parse_config(GOOD_CONFIG.replace("f2 = phi", "f2 = 2*phi"))
    with pytest.raises(ConfigError, match="limit-cycle"):
        resolve_state("limit-cycle", cfg.model)
    x0 = resolve_state("limit-cycle", moore_greitzer())
    assert x0.shape == (2,)


def test_state_literal_parsing():
    model = moore_greitzer()
    np.testing.assert_allclose(resolve_state("1 -1", model), [1.0, -1.0])
    with pytest.raises(ConfigError, match="entries"):
        resolve_state("1 2 3", model)
    with pytest.raises(ConfigError, match="cannot parse"):
        resolve_state("a b", model)


# -- commands -------------------------------------------------------------------


@pytest.fixture(scope="module")
def metric_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("metrics")
    code = main(["synthesize", "-c", "mg-slow", "-o", str(out)])
    assert code == EXIT_OK
    return out


def test_synthesize_writes_metrics_and_report(metric_dir):
    assert (metric_dir / "controller.metric").is_file()
    assert (metric_dir / "observer.metric").is_file()
    report = (metric_dir / "synthesis_report.txt").read_text()
    assert "status = feasible" in report
    assert "iss_gain_candidates" in report
    assert "scalar variables" in report  # problem size line


def test_synthesize_rerun_overwrites_metrics_bit_identically(metric_dir, tmp_path):
    out2 = tmp_path / "again"
    assert main(["synthesize", "-c", "mg-slow", "-o", str(out2)]) == EXIT_OK
    for name in ("controller.metric", "observer.metric"):
        assert (out2 / name).read_bytes() == (metric_dir / name).read_bytes()


def test_synthesize_unactuated_controller_infeasible(tmp_path):
    cfg = GOOD_CONFIG.replace("B = 0; 1", "B = 0; 0")
    cpath = tmp_path / "b0.cfg"
    cpath.write_text(cfg)
    out = tmp_path / "m"
    code = main(["synthesize", "-c", str(cpath), "-o", str(out)])
    assert code == EXIT_INFEASIBLE
    assert (out / "controller.metric.infeasible").is_file()
    # observer is still attempted and succeeds
    assert (out / "observer.metric").is_file()


def test_synthesize_config_error_exit(tmp_path):
    cpath = tmp_path / "bad.cfg"
    cpath.write_text(GOOD_CONFIG.replace("f1 =", "f1 = ^^ "))
    assert main(["synthesize", "-c", str(cpath), "-o", str(tmp_path)]) == EXIT_USAGE


def test_verify_passes_fresh_metrics(metric_dir, capsys):
    code = main([
        "verify", "-m", str(metric_dir / "controller.metric"),
        "-m", str(metric_dir / "observer.metric"), "--box", "-5:5", "--grid", "41",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_verify_flags_corrupted_metric(metric_dir, tmp_path, capsys):
    text = (metric_dir / "controller.metric").read_text()
    lines = []
    for ln in text.splitlines():
        if ln.startswith("W "):
            body = ln[2:]
            lines.append("W " + "; ".join(
                " ".join(repr(-float(v)) for v in row.split())
                for row in body.split(";")
            ))
        else:
            lines.append(ln)
    bad = tmp_path / "flipped.metric"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["verify", "-m", str(bad), "--grid", "11"])
    assert code == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "FAIL" in out and "worst_point" in out


def test_verify_single_point_grid(metric_dir, capsys):
    code = main(["verify", "-m", str(metric_dir / "controller.metric"),
                 "--box", "-2:2", "--grid", "1"])
    assert code == EXIT_OK
    assert "grid_points=1" in capsys.readouterr().out


def test_verify_unparseable_file(tmp_path):
    bad = tmp_path / "junk.metric"
    bad.write_text("hello\n")
    assert main(["verify", "-m", str(bad)]) == EXIT_USAGE


def _short_cfg(tmp_path, T="2"):
    cpath = tmp_path / "short.cfg"
    cpath.write_text(GOOD_CONFIG.replace("T = 4", f"T = {T}"))
    return cpath


def test_simulate_feedback_requires_metrics(tmp_path):
    cpath = _short_cfg(tmp_path)
    code = main(["simulate", "-c", str(cpath), "--mode", "output_fb",
                 "-o", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_simulate_open_mode(tmp_path):
    cpath = _short_cfg(tmp_path)
    out = tmp_path / "o"
    code = main(["simulate", "-c", str(cpath), "--mode", "open", "-o", str(out)])
    assert code == EXIT_OK
    csv = (out / "trace_open.csv").read_text()
    assert csv.splitlines()[0] == "t,phi,psi,phi_hat,psi_hat,u,y,y_clean,d,d_bound,est_err"
    assert (out / "summary_open.txt").is_file()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_simulate_divergence_exits_with_message(tmp_path, capsys):
    # a step size that destroys the dynamics: the state overflows at t = 1
    cpath = tmp_path / "blowup.cfg"
    cpath.write_text(
        GOOD_CONFIG.replace("dt = 0.001", "dt = 0.5").replace("T = 4", "T = 30")
        .replace("x0 = limit-cycle", "x0 = 5 5")
    )
    code = main(["simulate", "-c", str(cpath), "--mode", "open", "-o", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "simulation error: non-finite state at t=1" in capsys.readouterr().err


def test_simulate_output_feedback_and_determinism(tmp_path, metric_dir):
    cpath = _short_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "simulate", "-c", str(cpath), "-m", str(metric_dir),
            "--mode", "output_fb", "--noise", "0.3", "--seed", "5",
            "-o", str(out),
        ])
        assert code == EXIT_OK
        outs.append((out / "trace_output_fb.csv").read_bytes())
    assert outs[0] == outs[1]


def test_report_bundle(tmp_path, metric_dir):
    cpath = _short_cfg(tmp_path)
    out = tmp_path / "traces"
    main(["simulate", "-c", str(cpath), "--mode", "open", "-o", str(out)])
    main(["simulate", "-c", str(cpath), "-m", str(metric_dir), "--mode", "state_fb",
          "-o", str(out)])
    main(["simulate", "-c", str(cpath), "-m", str(metric_dir), "--mode", "output_fb",
          "--noise", "0.3", "-o", str(out)])
    rpt = tmp_path / "rpt"
    code = main(["report", str(out / "trace_open.csv"), str(out / "trace_state_fb.csv"),
                 str(out / "trace_output_fb.csv"), "-o", str(rpt)])
    assert code == EXIT_OK
    files = {p.name for p in rpt.iterdir()}
    assert "plot_states_trace_open.py" in files
    assert "plot_logdist_trace_output_fb.py" in files
    assert "plot_peaking_compare.py" in files  # three-run comparison
    assert "plot_noise_trace_output_fb.py" in files  # noisy trace detected
    assert "README.txt" in files
    # scripts must be valid python
    for name in files:
        if name.endswith(".py"):
            compile((rpt / name).read_text(), name, "exec")


def test_report_rejects_bad_trace(tmp_path):
    bad = tmp_path / "t.csv"
    bad.write_text("t,phi\n0.0\n")
    assert main(["report", str(bad), "-o", str(tmp_path / "r")]) == EXIT_USAGE


def test_report_rejects_inconsistent_headers(tmp_path, metric_dir):
    cpath = _short_cfg(tmp_path)
    out = tmp_path / "traces"
    main(["simulate", "-c", str(cpath), "--mode", "open", "-o", str(out)])
    other = tmp_path / "other.csv"
    other.write_text(
        "t,x1,x2,x3,x1_hat,x2_hat,x3_hat,u,y,y_clean,d,d_bound,est_err\n"
        + ",".join(["0.0"] * 13) + "\n"
    )
    code = main(["report", str(out / "trace_open.csv"), str(other),
                 "-o", str(tmp_path / "r")])
    assert code == EXIT_USAGE


def test_synthesis_report_carries_full_certificates(metric_dir):
    report = (metric_dir / "synthesis_report.txt").read_text()
    assert "lmi_certificate_basis" in report
    assert "rho_certificate_gram[0]" in report


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required -m
    assert exc.value.code == EXIT_USAGE
