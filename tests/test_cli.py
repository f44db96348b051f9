"""Runner plumbing: config parsing, canonical serialisation, artifacts,
exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from mikado_forge.cli import (
    ConfigError,
    canonical_json,
    main,
    parse_config,
    run_experiment,
    write_csv,
)
from mikado_forge import fieldio, torus


def test_parse_config_values():
    cfg = parse_config("""
        # comment line
        d = 3
        N = 64          # trailing comment
        p = 1.5
        mode = W1R
        strict = false
        mu = 7, 8, 16
    """)
    assert cfg == {"d": 3, "N": 64, "p": 1.5, "mode": "W1R",
                   "strict": False, "mu": [7, 8, 16]}


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("just a line without equals")
    with pytest.raises(ConfigError):
        parse_config("= value")


def test_canonical_json_is_fixed_format():
    blob = canonical_json({"b": 1.0, "a": [True, None, 0.5], "c": "x"})
    assert blob == '{"a":[true,null,5.000000000000e-01],"b":1.000000000000e+00,"c":"x"}'
    assert canonical_json(float("inf")) == "null"
    # empty results stay valid JSON
    empty = canonical_json({"checks": {}, "tables": []})
    assert json.loads(empty) == {"checks": {}, "tables": []}


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "columns: param, measured, predicted, slope",
              {"param": [8, 16], "measured": [1.0, 0.5],
               "predicted": [1.1, 0.55], "slope": [-1.0, -1.0]})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "param,measured,predicted,slope"
    assert len(lines) == 4
    assert "5.000000000000e-01" in lines[3]


def test_unknown_experiment_and_config_error(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment("nope", {}, tmp_path)
    assert main(["counterexample", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_counterexample_experiment(tmp_path):
    code, report = run_experiment("counterexample", {}, tmp_path, seed=0)
    assert code == 0
    assert report["pass"]
    data = json.loads((tmp_path / "report.json").read_text())
    assert abs(data["defect"]) == pytest.approx(1.0, abs=1e-3)
    assert (tmp_path / "lp_partials_p1.4.csv").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = {"d": 2, "N": 32, "cases": 3}
    run_experiment("solve", cfg, tmp_path / "a", seed=9)
    run_experiment("solve", cfg, tmp_path / "b", seed=9)
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    ca = (tmp_path / "a" / "recovery.csv").read_bytes()
    cb = (tmp_path / "b" / "recovery.csv").read_bytes()
    assert ca == cb


def test_failing_experiment_exits_one(tmp_path):
    # two-step run on a small grid: the second step's quadratic source
    # carries the first step's pipes, so the fourfold decrease would need
    # lambda far beyond what 64^3 admits; the named check fails, the exit
    # code is 1, and the step report states the deficit
    cfg = {"d": 3, "N": 64, "K": 2, "seed_kind": "cascade",
           "u_amp": 0.01, "drift_lp": 500.0, "flux_amp": 2048.0,
           "lam_schedule": [1, 2], "mu_schedule": [7, 7],
           "resolution_factor": 4, "strict": False}
    code, report = run_experiment("ci-run", cfg, tmp_path, seed=0)
    assert code == 1
    assert report["checks"]["f_decrease"] is False
    assert (tmp_path / "step_1" / "report.json").exists()
    step2 = report["steps"][1]
    assert step2["lam_needed"] > step2["lam_grid_max"] == 2
    assert step2["dominant_part"] in step2["g_parts"]
    assert (tmp_path / "f_history.csv").exists()


def test_ci_step_writes_fields(tmp_path):
    cfg = {"d": 3, "N": 32, "lambda": 1, "mu": 7, "resolution_factor": 2,
           "flux_shift": 1536, "write_fields": True}
    code, report = run_experiment("ci-step", cfg, tmp_path, seed=0)
    assert code == 0
    for name in ("b", "u", "f"):
        path = tmp_path / f"{name}.bin"
        assert path.exists()
        field = fieldio.read_field(path)
        assert fieldio.content_hash(field) == report["field_hashes"][name]


def test_moser_and_maxprinc_experiments(tmp_path):
    code, rep = run_experiment("moser", {"d": 2, "N": 32, "k_max": 2},
                               tmp_path / "m", seed=1)
    assert code == 0
    code2, rep2 = run_experiment(
        "maxprinc", {"d": 2, "N": 32, "drifts": 8, "scale_span": 10.0},
        tmp_path / "x", seed=1)
    assert code2 == 0
    assert (tmp_path / "x" / "ratios.csv").exists()


def test_solver_nonconvergence_exits_three_with_report(tmp_path):
    # tol = 1e-18 lies below what double precision reaches, so GMRES spends
    # its whole budget; the run must map that to exit code 3 and say why
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("d = 2\nN = 16\ncases = 1\ntol = 1e-18\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    data = json.loads((tmp_path / "out" / "solve" / "report.json").read_text())
    assert data["error"] == "non_convergence"
    assert data["achieved"] > 1e-18
    assert data["checks"] == {"convergence": False}
    assert "restart cycles of 40 matvecs" in data["message"]


@pytest.mark.parametrize("experiment, cfg", [
    ("ci-step", {"d": 3, "N": 32, "lambda": 1, "mu": 7, "resolution_factor": 2,
                 "flux_shift": 1536}),
    ("solve", {"d": 2, "N": 32, "cases": 3}),
])
def test_fft_worker_count_leaves_reports_unchanged(tmp_path, experiment, cfg):
    saved = torus._FFT_WORKERS
    reports = []
    try:
        for workers in (1, 2):
            torus.set_fft_workers(workers)
            out = tmp_path / f"w{workers}"
            run_experiment(experiment, dict(cfg), out, seed=3)
            reports.append((out / "report.json").read_bytes())
    finally:
        torus.set_fft_workers(saved)
    assert reports[0] == reports[1]
