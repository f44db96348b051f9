"""Runner plumbing: config parsing, canonical serialisation, artifacts,
exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from mikado_forge.cli import (
    EXPERIMENTS,
    ConfigError,
    canonical_json,
    load_config,
    main,
    parse_config,
    run_experiment,
    write_csv,
)
from mikado_forge import convexint, fieldio, torus


def test_parse_config_values():
    cfg = parse_config("""
        # comment line
        d = 3
        N = 64          # trailing comment
        p = 1.5
        mode = W1R
        write_fields = false
        mu = 7, 8, 16
    """)
    assert cfg == {"d": 3, "N": 64, "p": 1.5, "mode": "W1R",
                   "write_fields": False, "mu": [7, 8, 16]}


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


# the keys of a step report: the step's parameters, its estimates and
# flux parts, and the dominant part
STEP_KEYS = {
    "delta", "lambda", "mu", "mode", "r", "q", "family_M", "f0_l1", "f1_l1",
    "increment_lp", "increment_lp_bound", "mode_increment", "smallness_lhs",
    "smallness_target", "b_increment_w1q", "g_parts", "dominant_part",
    "quad_source_freq", "lam_needed", "lam_grid_max", "theta_c", "theta_h1",
    "div_b1_rel", "mean_u1_rel", "residual_out",
}


def test_failing_experiment_exits_one(tmp_path):
    # two-step run on a small grid: the second step's quadratic source
    # carries the first step's pipes, so the fourfold decrease would need
    # lambda far beyond what 64^3 admits; the named check fails, the exit
    # code is 1, and the step report states the deficit
    cfg = {"d": 3, "N": 64, "K": 2, "seed_kind": "cascade",
           "u_amp": 0.01, "drift_lp": 500.0, "flux_amp": 2048.0,
           "lam_schedule": [1, 2], "mu_schedule": [7, 7],
           "resolution_factor": 4}
    code, report = run_experiment("ci-run", cfg, tmp_path, seed=0)
    assert code == 1
    assert report["checks"]["f_decrease"] is False
    assert (tmp_path / "step_1" / "report.json").exists()
    step2 = report["steps"][1]
    assert set(step2) == STEP_KEYS
    assert set(json.loads((tmp_path / "step_2" / "report.json").read_text())) == STEP_KEYS
    assert step2["lam_needed"] > step2["lam_grid_max"] == 2
    assert step2["dominant_part"] in step2["g_parts"]
    assert (tmp_path / "f_history.csv").exists()


def test_search_takes_no_zero_perturbation_step(tmp_path):
    # the same run with no schedule: the cascade seed's ballast lets a
    # trial with theta = w = 0 meet the target by shedding flux, with u and
    # b unchanged.  The search skips such trials, so every step perturbs,
    # and the run fails the fourfold law instead of passing it
    cfg = {"d": 3, "N": 64, "K": 2, "seed_kind": "cascade",
           "u_amp": 0.01, "drift_lp": 500.0, "flux_amp": 2048.0,
           "resolution_factor": 4}
    code, report = run_experiment("ci-run", cfg, tmp_path, seed=0)
    assert len(report["steps"]) == 2
    assert all(step["increment_lp"] > 0.0 for step in report["steps"])
    assert all(step["mode_increment"] > 0.0 for step in report["steps"])
    assert report["status"] == "best_effort"
    assert report["checks"]["f_decrease"] is False
    assert code == 1


def test_search_assembles_each_trial_once(tmp_path, monkeypatch):
    # a ci-run with no schedule searches (lambda, mu); here no trial meets
    # the target.  The iteration takes the step the search assembled
    # instead of assembling the returned parameters again.  The reference
    # run does assemble them again and must write the same bytes
    cfg = {"d": 3, "N": 64, "K": 1, "seed_kind": "shifted-cosine", "flux_shift": 64,
           "resolution_factor": 4}
    assemble, search = convexint.assemble_step, convexint.select_parameters
    calls = []

    def counted(t, params, *args, **kwargs):
        calls.append(params)
        return assemble(t, params, *args, **kwargs)

    def search_then_assemble_again(t, eps, **kw):
        step, met = search(t, eps, **kw)
        params = step[1].params
        fam = convexint._family(t.grid.dim, kw["p"], params.mu, t.grid.n // params.lam,
                                kw["resolution_factor"])
        return convexint.assemble_step(t, params, fam, eps_target=eps), met

    monkeypatch.setattr(convexint, "assemble_step", counted)
    run_experiment("ci-run", dict(cfg), tmp_path / "once", seed=1)
    assert len(calls) == len(set(calls)) == 5
    monkeypatch.setattr(convexint, "select_parameters", search_then_assemble_again)
    run_experiment("ci-run", dict(cfg), tmp_path / "again", seed=1)
    assert len(calls) == 5 + 6
    files = sorted(f.relative_to(tmp_path / "once") for f in (tmp_path / "once").rglob("*")
                   if f.is_file())
    assert len(files) == 3
    for f in files:
        assert (tmp_path / "once" / f).read_bytes() == (tmp_path / "again" / f).read_bytes()


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
    assert rep2["statuses"] == ["ok"] * 8
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
    assert "(budget 16000 matvecs)" in data["message"]


def test_maxprinc_with_every_solve_failed_reports_the_unbounded_sweep(tmp_path, capsys):
    # tol = 1e-18 fails every drift's solve: there is no ratio to bound,
    # which is a failed check with a report, not a config error
    cfg = tmp_path / "maxprinc.cfg"
    cfg.write_text("d = 2\nN = 16\ndrifts = 3\nscale_span = 10\ntol = 1e-18\n")
    assert main(["maxprinc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error" not in capsys.readouterr().err
    data = json.loads((tmp_path / "out" / "maxprinc" / "report.json").read_text())
    assert data["max_ratio"] is None
    assert [k for k, ok in data["checks"].items() if not ok] == ["uniform_bound"]
    # each drift's solver message arrives in the report and the table
    assert len(data["statuses"]) == 3
    assert all(s.startswith("solver failure: no convergence:") and "failed to halve" in s
               for s in data["statuses"])
    ratios = (tmp_path / "out" / "maxprinc" / "ratios.csv").read_text().splitlines()
    assert ratios[1] == "b_l2,ratio,status"
    assert [row.split(",")[1] for row in ratios[2:]] == ["None"] * 3
    assert [row.split(",", 2)[2] for row in ratios[2:]] == data["statuses"]


@pytest.mark.parametrize("experiment, cfg", [
    ("ci-step", {"d": 3, "N": 32, "lambda": 1, "mu": 7, "resolution_factor": 2,
                 "flux_shift": 1536}),
    ("solve", {"d": 2, "N": 32, "cases": 3}),
    # at 64^3 the fields reach the pool gate, so 2 and 3 workers run the
    # slab kernels and transforms on the pool, 3 with uneven shares
    ("ci-step", {"d": 3, "N": 64, "lambda": 1, "mu": 7, "resolution_factor": 2,
                 "flux_shift": 1536, "write_fields": True}),
    # the second commutator_check call, on the Leray-projected rough drift
    ("commutator", {"d": 2, "N": 32, "z_per_axis": 11, "rough_contrast": True}),
])
def test_fft_worker_count_leaves_reports_unchanged(tmp_path, monkeypatch, experiment, cfg):
    saved = torus._FFT_WORKERS
    monkeypatch.setattr(torus, "_usable_cores", lambda: 3)
    outputs = []
    try:
        for workers in (1, 2, 3):
            torus.set_fft_workers(workers)
            out = tmp_path / f"w{workers}"
            run_experiment(experiment, dict(cfg), out, seed=3)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
    finally:
        torus.set_fft_workers(saved)
    assert outputs[0] == outputs[1] == outputs[2]


# each experiment's defaults, as the runner read them before the keys were
# declared in one table; u_amp stays None and takes its default (0.5 for the
# shifted-cosine seed, 0.01 for the cascade seed) where the seed is built
_NASH_DEFAULTS = {"d": 3, "p": 1.5, "mode": "W1R", "r": 1.1, "q": None,
                  "resolution_factor": 8.0, "write_fields": False,
                  "seed_kind": "shifted-cosine", "u_amp": None, "flux_shift": 2048.0,
                  "drift_lp": 4000.0, "flux_amp": 16384.0}
DEFAULTS = {
    "mikado-verify": {"d": 3, "N": 64, "p": 1.5, "resolution_factor": 8.0, "mu": [8.0],
                      "scaling_mu_list": None, "scaling_r": [1.0, 2.0, 3.0],
                      "scaling_k": 0, "scaling_N": 512},
    "osc-verify": {"d": 2, "N": 256, "p": 2.0, "lambda": [4, 8, 16, 32], "cases": 50},
    "ci-step": {**_NASH_DEFAULTS, "N": 128, "lambda": 2, "mu": 8.0, "eps_frac": 0.25,
                "delta_divisor": 16.0, "refine_N": None},
    "ci-run": {**_NASH_DEFAULTS, "N": 224, "K": 3, "eps_frac": 0.1,
               "lam_schedule": None, "mu_schedule": None},
    "solve": {"d": 3, "N": 32, "cases": 20, "drift_scale": 2.0, "tol": 1e-10},
    "maxprinc": {"d": 3, "N": 32, "drifts": 30, "scale_span": 100.0, "tol": 1e-10},
    "moser": {"d": 3, "N": 32, "k_max": 3, "drift_scale": 3.0, "tol": 1e-10},
    "commutator": {"d": 2, "N": 64, "eps": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                   "z_per_axis": 21, "rough_contrast": False, "rough_core": 0.02},
    "counterexample": {"n_r": 64, "n_sph": 12},
    "uniqueness": {"d": 3, "N": 32, "drift_scale": 3.0, "clamp_levels": [2.0, 5.0, 50.0],
                   "tol": 1e-10},
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_load_config_defaults_and_unknown_keys(experiment):
    # canonical_json tells 8 from 8.0, so types are compared too
    assert canonical_json(load_config(experiment, {})) == canonical_json(DEFAULTS[experiment])
    with pytest.raises(ConfigError) as err:
        load_config(experiment, {"bogus": 1})
    assert "bogus" in str(err.value)
    assert all(repr(key) in str(err.value) for key in DEFAULTS[experiment])


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_load_config_takes_ints_for_float_keys(experiment):
    float_keys = [k for k, v in DEFAULTS[experiment].items() if type(v) is float]
    raw = {k: 1 for k in float_keys}
    if "mode" in DEFAULTS[experiment]:
        raw.update(d=4, p=2)        # the W1R window holds no int p below d = 4
    cfg = load_config(experiment, raw)
    for key in float_keys:
        assert type(cfg[key]) is float and cfg[key] == raw[key]


# the list keys a rate is fitted over
SWEEPS = ("lambda", "eps", "clamp_levels", "scaling_mu_list")


@pytest.mark.parametrize("experiment, raw, key, loaded", [
    ("mikado-verify", {"mu": 16}, "mu", [16.0]),
    ("mikado-verify", {"scaling_mu_list": 8}, "scaling_mu_list", [8.0]),
    ("mikado-verify", {"scaling_r": 2}, "scaling_r", [2.0]),
    ("osc-verify", {"lambda": 8}, "lambda", [8]),
    ("ci-run", {"K": 1, "lam_schedule": 2}, "lam_schedule", [2]),
    ("ci-run", {"K": 1, "lam_schedule": 2, "mu_schedule": 7}, "mu_schedule", [7.0]),
    ("commutator", {"eps": 0.25}, "eps", [0.25]),
    ("uniqueness", {"clamp_levels": 3.0}, "clamp_levels", [3.0]),
])
def test_load_config_fills_a_list_key_from_one_value(experiment, raw, key, loaded):
    if key in SWEEPS:
        # a sweep is filled the same way, and then rejected: a rate needs
        # at least 3 points
        with pytest.raises(ConfigError) as err:
            load_config(experiment, raw)
        assert f"{key} = {loaded!r}, expected at least 3 entries" in str(err.value)
        return
    got = load_config(experiment, raw)[key]
    assert got == loaded and [type(v) for v in got] == [type(v) for v in loaded]


_CI_RUN = "d = 3\nN = 64\nK = 2\nseed_kind = cascade\ndrift_lp = 500.0\nflux_amp = 2048.0\n" \
          "resolution_factor = 4\n"
_CI_STEP = "d = 3\nN = 32\nlambda = 1\nmu = 7\nresolution_factor = 2\n"


@pytest.mark.parametrize("experiment, text, named", [
    pytest.param("solve", "d = 2\nN = 16, 32\ncases = 1\n", "N = [16, 32]", id="list-for-int"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\ntoll = 1e-3\n", "'toll'", id="misspelt"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\nmu = 7\n", "'mu'", id="foreign-key"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 0\n", "cases = 0", id="no-cases"),
    pytest.param("solve", "d = 3.7\nN = 16\ncases = 1\n", "d = 3.7", id="float-for-int"),
    pytest.param("ci-run", _CI_RUN + "lam_schedule = 1\n", "lam_schedule = [1]",
                 id="short-schedule"),
    pytest.param("ci-run", _CI_RUN + "mu_schedule = 7, 7\n", "mu_schedule = [7.0, 7.0]",
                 id="mu-without-lam"),
    pytest.param("ci-run", _CI_RUN + "lam_schedule = 1, 2\nwrite_fields = no\n",
                 "write_fields = 'no'", id="not-a-bool"),
    # a search that misses its target is reported by the run's status, so
    # no key turns it into an error
    pytest.param("ci-run", _CI_RUN + "strict = false\n", "unknown keys ['strict']",
                 id="strict-removed"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\nseed = 1.5\n", "seed = 1.5",
                 id="fractional-seed"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\nseed = -1\n", "seed = -1",
                 id="negative-seed"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\nout_dir = 5\n", "out_dir = 5",
                 id="out-dir-not-a-path"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\ntol = nan\n", "tol = nan",
                 id="nan-tolerance"),
    pytest.param("solve", "d = 2\nN = 16\ncases = 1\ndrift_scale = inf\n",
                 "drift_scale = inf", id="infinite-drift"),
    pytest.param("mikado-verify", "d = 3\nN = 32\np = nan\n", "p = nan", id="nan-exponent"),
    # the commutator functional has its own bump; no mollifier radius is read
    pytest.param("commutator", "mollifier_eps = 0.125\n", "'mollifier_eps'",
                 id="mollifier-eps"),
    pytest.param("ci-step", _CI_STEP + "r = 0\n", "r in [1, 1.2), got 0.0", id="zero-r"),
    pytest.param("ci-step", _CI_STEP + "r = 0.5\n", "r in [1, 1.2), got 0.5",
                 id="r-below-window"),
    pytest.param("ci-step", _CI_STEP + "mode = bogus\n", "unknown mode 'bogus'",
                 id="unknown-mode"),
    pytest.param("ci-step", _CI_STEP + "mode = H1\n", "H1 mode needs d >= 4",
                 id="h1-below-d4"),
    # a sweep has at least 3 points, in its order, before anything is drawn
    pytest.param("osc-verify", "lambda = 4, 8\n", "lambda = [4, 8]", id="two-lambdas"),
    pytest.param("osc-verify", "lambda = 8, 4, 16\n", "lambda = [8, 4, 16]",
                 id="unordered-lambdas"),
    pytest.param("mikado-verify", "scaling_mu_list = 8, 16\n", "scaling_mu_list = [8.0, 16.0]",
                 id="two-scaling-mus"),
    pytest.param("uniqueness", "clamp_levels = 2, 5\n", "clamp_levels = [2.0, 5.0]",
                 id="two-clamp-levels"),
    pytest.param("uniqueness", "clamp_levels = 5, 2, 50\n", "clamp_levels = [5.0, 2.0, 50.0]",
                 id="unordered-clamp-levels"),
    pytest.param("commutator", "eps = 0.1, 0.05\n", "eps = [0.1, 0.05]", id="two-eps"),
])
def test_bad_config_exits_two_before_any_work(tmp_path, capsys, experiment, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / experiment).exists()


def test_seed_and_out_dir_in_the_config_file_are_honoured(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d = 2\nN = 16\ncases = 1\nseed = 7\nout_dir = {tmp_path / 'here'}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "elsewhere")]) == 0
    assert json.loads((tmp_path / "here" / "report.json").read_text())["seed"] == 7
    assert not (tmp_path / "elsewhere").exists()
