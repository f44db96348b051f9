"""Experiment runner: wires plain-text configurations to the module
operations, persists deterministic JSON/CSV reports and field binaries.

Invocation: mikado-forge <experiment> --config <file> [--out <dir>] [--seed <u64>]

Config files are one `key = value` per line ('#' comments).  Values parse
as int, float, comma-separated lists, `true`/`false` (the only booleans),
or strings.  EXPERIMENTS declares each experiment's keys; one value fills
a list key and an int fills a float key.  `seed` (a non-negative int) and
`out_dir` (a path) in the file override --seed and --out.

Threads: the spectral layer (`torus`) runs the pointwise kernels and the
transform slabs of fields of 64^3 points and more on one pool of worker
threads; every 1-d transform runs on one thread, and smaller fields stay
on the calling thread.  The pool's size defaults to the usable cores.
MF_THREADS sets it instead, clamped to [1, usable cores]; MF_THREADS=1
runs everything on one thread.  Every output is byte-identical for any
setting.  The solver makes no threaded
BLAS call (its inner products run in `np.einsum`, not `np.dot`), so the
pool of `torus` is the only pool that runs the program's work.

Exit codes:
0  every named check passed.
1  a check failed; report.json names it.
2  the config was rejected and no report.json is written: the file is
   unreadable, load_config found an unknown key, a wrong type, a
   non-finite float (nan, inf), a value out of range, a sweep (lambda,
   eps, clamp_levels, scaling_mu_list) of fewer than 3 points or out of
   order (lambda and clamp_levels strictly increasing, eps strictly
   decreasing) or a Nash-step mode outside its exponent window
   (validate_mode) before any work, or a constructor raised a
   parameter-domain ValueError such as build_family's tube-resolution
   check.  osc-verify needs N >= 162: its fixed Riemann-Lebesgue
   frequencies 3, 9 and 27 at bandwidth 3 must fit in n/2, so at N = 64
   it exits 2 with "aliasing: lam * bandwidth = 27*3 exceeds n/2 = 32".
3  the solver's matvec budget ran out (NonConvergence); report.json names
   the achieved residual.  A parameter search that misses its target does
   not stop the run: ci-run takes its best trial, and its status and
   checks name the shortfall (exit 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fieldio
from .ball import (
    build_fields,
    energy_defect,
    flux_check,
    grad_energy,
    make_alpha_beta,
    singular_norm_report,
)
from .convexint import (
    StepParams,
    StepReport,
    assemble_step,
    equation_residual,
    residual_refinement,
    run_iteration,
    sampled_residual,
    validate_mode,
)
from .driftdiff import (
    NonConvergence,
    SolveConfig,
    TruncationSchedule,
    commutator_check,
    commutator_verdict,
    energy_check,
    max_principle_sweep,
    moser_checks,
    moser_gns_check,
    solve,
    solve_checks,
    uniqueness_probe,
)
from .mikado import build_family, scaling_report, verify_family
from .oscillation import (
    antidivergence_rate_ok,
    antidivergence_sweep,
    holder_rate_ok,
    improved_holder_check,
    riemann_lebesgue_check,
    tail_field,
)
from .seeds import cascade_seed, shifted_cosine_seed
from .torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    divergence,
    gradient,
    leray_project,
    norm,
    random_scalar,
    random_solenoidal,
    set_fft_workers,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing and deterministic serialisation

def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config(text: str) -> dict:
    out: dict = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        out[key] = _parse_value(val)
    return out


def _canon(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".12e") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        import json as _json
        out.append(_json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _canon(str(key), out)
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj)}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats in fixed %.12e format,
    non-finite floats mapped to null."""
    out: list = []
    _canon(obj, out)
    return "".join(out)


def write_report(path: Path, obj: dict) -> None:
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")


def write_csv(path: Path, comment: str, columns: dict) -> None:
    """CSV with a header comment documenting the columns."""
    names = list(columns)
    rows = max((len(v) for v in columns.values()), default=0)
    lines = [f"# {comment}", ",".join(names)]
    for i in range(rows):
        cells = []
        for name in names:
            col = columns[name]
            if i < len(col):
                v = col[i]
                cells.append(format(float(v), ".12e")
                             if isinstance(v, (int, float, np.floating)) else str(v))
            else:
                cells.append("")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ranges nothing downstream checks, for the key in any experiment and any list entry
_RANGES = {
    **dict.fromkeys(("cases", "drifts", "k_max", "K", "lambda"), (lambda v: v >= 1, " >= 1")),
    "z_per_axis": (lambda v: v >= 2, " >= 2"),
    **dict.fromkeys(("scale_span", "delta_divisor", "eps_frac"), (lambda v: v > 0, " > 0")),
    "seed_kind": (lambda v: v in ("shifted-cosine", "cascade"), " in (shifted-cosine, cascade)"),
}
# the list keys a rate is fitted over, each with the order its points must
# keep: +1 strictly increasing, -1 strictly decreasing, 0 any
_SWEEPS = {"lambda": 1, "clamp_levels": 1, "eps": -1, "scaling_mu_list": 0}


def load_config(experiment: str, raw: dict) -> dict:
    """Every key of the experiment, converted to its declared type or set to its
    default; a W1R mode's r defaults to 1.1.  Raises ConfigError naming the key
    on an unknown key, a wrong type, a non-finite float, a value out of range, a
    sweep (`_SWEEPS`) of fewer than 3 points or out of its order, and on a mode
    whose exponents lie outside its window (`validate_mode`)."""
    keys = EXPERIMENTS[experiment][1]
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"{experiment}: unknown keys {unknown}; known keys {sorted(keys)}")
    cfg = {}
    for key, default in keys.items():
        listed = isinstance(default, list)
        kind = default[0] if listed else default
        if isinstance(kind, type) and key not in raw:
            cfg[key] = None
            continue
        kind = kind if isinstance(kind, type) else type(kind)
        value = raw.get(key, default)
        items = value if listed and isinstance(value, list) else [value]
        rule, text = _RANGES.get(key, (lambda v: True, ""))
        for v in items:
            if (not (type(v) is kind or kind is float and type(v) is int) or not rule(v)
                    or kind is float and not math.isfinite(v)):
                raise ConfigError(f"{experiment}: {key} = {value!r}, expected "
                                  f"{'list of ' if listed else ''}"
                                  f"{'finite ' if kind is float else ''}{kind.__name__}{text}")
        items = [float(v) for v in items] if kind is float else items
        cfg[key] = items if listed else items[0]
    for key, order in _SWEEPS.items():
        sweep = cfg.get(key)
        if isinstance(sweep, list) and (len(sweep) < 3 or order and any(
                order * (b - a) <= 0 for a, b in zip(sweep, sweep[1:]))):
            rule = {1: ", strictly increasing", -1: ", strictly decreasing", 0: ""}[order]
            raise ConfigError(f"{experiment}: {key} = {sweep!r}, expected at least 3 "
                              f"entries{rule}")
    for key in ("lam_schedule", "mu_schedule"):    # ci-run's schedules, one entry a step
        sched = cfg.get(key)
        if sched is not None and (len(sched) != cfg["K"] or cfg["lam_schedule"] is None):
            raise ConfigError(f"{experiment}: {key} = {sched!r}, expected K = {cfg['K']} "
                              "entries (mu_schedule needs lam_schedule)")
    if "mode" in cfg:
        if cfg["r"] is None and cfg["mode"].startswith("W1R"):
            cfg["r"] = 1.1
        try:
            validate_mode(cfg["d"], cfg["p"], cfg["mode"], cfg["r"], cfg["q"])
        except ValueError as exc:
            raise ConfigError(f"{experiment}: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# experiments; each receives the config load_config returned

def _exp_mikado_verify(cfg: dict, out: Path, rng) -> dict:
    d, n, p, factor = cfg["d"], cfg["N"], cfg["p"], cfg["resolution_factor"]
    grid = TorusGrid(dim=d, n=n)
    families = []
    checks = {}
    for mu in cfg["mu"]:
        fam = build_family(d, p, mu, grid, resolution_factor=factor)
        rep = verify_family(fam)
        families.append({
            "mu": mu,
            "measured_M": rep.measured_M,
            "gamma": fam.gamma,
            "div_field_rel": rep.div_field_rel,
            "div_product_rel": rep.div_product_rel,
            "mean_density": rep.mean_density,
            "mean_field": rep.mean_field,
            "product_integral_err": rep.product_integral_err,
            "cross_disjointness": rep.cross_disjointness,
            "product_l1_sum": rep.product_l1_sum,
            "checks": rep.checks,
        })
        for name, ok in rep.checks.items():
            checks[f"mu{mu:g}_{name}"] = bool(ok)
    report = {"experiment": "mikado-verify", "d": d, "N": n, "p": p,
              "families": families, "checks": checks}
    if cfg["scaling_mu_list"] is not None:
        k = cfg["scaling_k"]
        fits = []
        for r in cfg["scaling_r"]:
            sr = scaling_report(d, p, r, k, cfg["scaling_mu_list"], n=cfg["scaling_N"],
                                resolution_factor=factor)
            fits.append({"r": r, "k": k, "fitted": sr.fitted, "predicted": sr.predicted,
                         "tolerances": sr.tolerances, "pass": sr.passed})
            checks[f"scaling_r{r:g}"] = bool(sr.passed)
            write_csv(out / f"scaling_r{r:g}.csv",
                      "columns: mu, theta_norm, w_norm, theta_h1 (measured)",
                      {"mu": sr.mu_list, "theta_norm": sr.measured_theta,
                       "w_norm": sr.measured_w, "theta_h1": sr.measured_theta_h1})
        report["scaling"] = fits
    return report


def _exp_osc_verify(cfg: dict, out: Path, rng) -> dict:
    d, n, p, lams, cases = cfg["d"], cfg["N"], cfg["p"], cfg["lambda"], cfg["cases"]
    grid = TorusGrid(dim=d, n=n)

    rl_pass = 0
    rl_worst = 0.0
    for _ in range(cases):
        f = 1.0 + 0.3 * random_scalar(grid, 3, rng)
        gg = random_scalar(grid, 3, rng)
        rep = riemann_lebesgue_check(f, gg, [3, 9, 27])
        rl_pass += rep.passed
        rl_worst = max(rl_worst, max(m / b for m, b in zip(rep.measured, rep.bound) if b > 0))

    f_tail = tail_field(random_scalar(grid, 2, rng))
    g_osc = random_scalar(grid, 3, rng)
    hold = improved_holder_check(f_tail, g_osc, lams, p=p)
    anti_mags, anti_rate = antidivergence_sweep(f_tail, g_osc, lams)

    checks = {
        "riemann_lebesgue_all_cases": rl_pass == cases,
        "holder_bound": hold.passed,
        "holder_rate": holder_rate_ok(hold.fitted_rate, p),
        "antidivergence_rate": antidivergence_rate_ok(anti_rate),
    }
    write_csv(out / "oscillation_rates.csv",
              "columns: lambda, holder_measured, holder_bound, antidiv_norm",
              {"lambda": lams, "holder_measured": hold.measured,
               "holder_bound": hold.bound, "antidiv_norm": anti_mags})
    return {
        "experiment": "osc-verify", "d": d, "N": n, "p": p,
        "riemann_lebesgue": {"cases": cases, "passed": rl_pass, "worst_ratio": rl_worst},
        "improved_holder": {"lambda": lams, "measured": hold.measured,
                            "bound": hold.bound, "fitted_rate": hold.fitted_rate,
                            "C_p": hold.params["C_p"]},
        "antidivergence": {"lambda": lams, "norms": anti_mags, "fitted_rate": anti_rate},
        "checks": checks,
    }


def _ci_seed(cfg: dict, grid: TorusGrid):
    u_amp = cfg["u_amp"]
    if cfg["seed_kind"] == "cascade":
        return cascade_seed(grid, u_amp=0.01 if u_amp is None else u_amp,
                            drift_lp=cfg["drift_lp"], flux_amp=cfg["flux_amp"], p=cfg["p"])
    return shifted_cosine_seed(grid, u_amp=0.5 if u_amp is None else u_amp,
                               flux_shift=cfg["flux_shift"])


def _ci_step_at(cfg: dict, n: int, eps: float | None = None):
    """One ci-step on the seed at N = n: returns (t1, step report, eps),
    eps defaulting to eps_frac * ||f0||_1."""
    d, lam, mu = cfg["d"], cfg["lambda"], cfg["mu"]
    # the seed is handed over as its only reference, so the step frees its
    # flux as it goes
    seed = [_ci_seed(cfg, TorusGrid(dim=d, n=n))]
    f0_l1 = seed[0].f_l1
    if eps is None:
        eps = cfg["eps_frac"] * f0_l1
    fam = build_family(d, cfg["p"], mu, TorusGrid(dim=d, n=n // lam),
                       resolution_factor=cfg["resolution_factor"])
    params = StepParams(delta=f0_l1 / cfg["delta_divisor"], lam=lam, mu=mu,
                        mode=cfg["mode"], r=cfg["r"], q=cfg["q"])
    t1, rep = assemble_step(seed.pop(), params, fam, eps_target=eps)
    return t1, rep, eps


def _fields_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _step_report_dict(rep: StepReport) -> dict:
    """Every field of the step and of its parameters (lam as "lambda"), and
    the dominant flux part."""
    out = {"lambda" if k == "lam" else k: v for k, v in _fields_dict(rep.params).items()}
    out.update(_fields_dict(rep), dominant_part=rep.dominant_part)
    del out["params"]
    return out


def _exp_ci_step(cfg: dict, out: Path, rng) -> dict:
    t1, rep, eps = _ci_step_at(cfg, cfg["N"])
    resid = equation_residual(t1)
    rep.residual_out = resid
    checks = rep.checks
    report = {"experiment": "ci-step", "d": cfg["d"], "N": cfg["N"], "p": cfg["p"],
              "step": _step_report_dict(rep),
              "sampled_residual": sampled_residual(t1),
              "checks": checks}
    if cfg["write_fields"]:
        report["field_hashes"] = {
            "b": fieldio.write_field(out / "b.bin", t1.b),
            "u": fieldio.write_field(out / "u.bin", t1.u),
            "f": fieldio.write_field(out / "f.bin", t1.f),
        }
    # the N-grid step is done with: free it before the refined step
    del t1
    if cfg["refine_N"] is not None:
        n2 = cfg["refine_N"]
        t1b, _, _ = _ci_step_at(cfg, n2, eps)
        resid2 = equation_residual(t1b)
        factor, checks["residual_refinement"] = residual_refinement(resid, resid2)
        report["refinement"] = {"N": n2, "residual": resid2, "factor": factor}
    return report


def _exp_ci_run(cfg: dict, out: Path, rng) -> dict:
    d, n, p, mode, r, q, K = (cfg[k] for k in ("d", "N", "p", "mode", "r", "q", "K"))
    # the seed is handed over as its only reference, so run_iteration can
    # free its u0 and f0 after the first step
    seed = [_ci_seed(cfg, TorusGrid(dim=d, n=n))]
    eps = cfg["eps_frac"] * norm(seed[0].b, p=p)
    t_fin, conv = run_iteration(
        seed.pop(), eps, K, mode=mode, p=p, r=r, q=q,
        resolution_factor=cfg["resolution_factor"],
        lam_schedule=cfg["lam_schedule"], mu_schedule=cfg["mu_schedule"])
    steps = [_step_report_dict(s) for s in conv.steps]
    for idx, step in enumerate(steps, start=1):
        step_dir = out / f"step_{idx}"
        step_dir.mkdir(parents=True, exist_ok=True)
        write_report(step_dir / "report.json", step)
    if cfg["write_fields"]:
        fieldio.write_field(out / "b_final.bin", t_fin.b)
        fieldio.write_field(out / "u_final.bin", t_fin.u)
    report = {"experiment": "ci-run", "d": d, "N": n, "p": p, "mode": mode,
              "r": r, "q": q, "K": K, "eps": eps, **_fields_dict(conv), "steps": steps,
              "checks": {k: bool(v) for k, v in conv.assertions.items()}}
    del report["assertions"]
    write_csv(out / "f_history.csv", "columns: step index k, ||f_k||_1",
              {"k": list(range(len(conv.f_history))), "f_l1": conv.f_history})
    return report


def _exp_solve(cfg: dict, out: Path, rng) -> dict:
    d, n, cases = cfg["d"], cfg["N"], cfg["cases"]
    grid = TorusGrid(dim=d, n=n)
    cfg_s = SolveConfig(tol=cfg["tol"])
    errs = []
    energy_defects = []
    for _ in range(cases):
        b = random_solenoidal(grid, 3, rng) * cfg["drift_scale"]
        ustar = random_scalar(grid, 3, rng)
        f = -divergence(gradient(ustar) + b * ustar)
        urec = solve(b, f, cfg_s)
        errs.append(norm(urec - ustar, p=2) / norm(ustar, p=2))
        ec = energy_check(urec, b, f)
        energy_defects.append(abs(ec["relative_defect"]))
    checks = solve_checks(errs, energy_defects)
    write_csv(out / "recovery.csv", "columns: case, relative_l2_error, energy_defect",
              {"case": list(range(cases)), "relative_l2_error": errs,
               "energy_defect": energy_defects})
    return {"experiment": "solve", "d": d, "N": n, "cases": cases,
            "max_recovery_error": max(errs), "max_energy_defect": max(energy_defects),
            "checks": checks}


def _exp_maxprinc(cfg: dict, out: Path, rng) -> dict:
    d, n = cfg["d"], cfg["N"]
    grid = TorusGrid(dim=d, n=n)
    f = random_scalar(grid, 3, rng)
    scales = np.logspace(0.0, math.log10(cfg["scale_span"]), cfg["drifts"])
    drifts = [random_solenoidal(grid, 3, rng) * float(s) for s in scales]
    table = max_principle_sweep(f, drifts, SolveConfig(tol=cfg["tol"]))
    checks = {
        "uniform_bound": bool(table["all_bounded"]),
        "no_upward_trend": bool(table["trend_ok"]),
    }
    statuses = [r["status"] for r in table["rows"]]
    write_csv(out / "ratios.csv", "columns: drift L2 norm, sup-norm ratio, solve status",
              {"b_l2": [r["b_l2"] for r in table["rows"]],
               "ratio": [r["ratio"] for r in table["rows"]],
               "status": statuses})
    return {"experiment": "maxprinc", "d": d, "N": n,
            "max_ratio": table["max_ratio"], "bound": table["bound"],
            "trend_slope": table["trend_slope"], "trend_stderr": table["trend_stderr"],
            "statuses": statuses, "checks": checks}


def _exp_moser(cfg: dict, out: Path, rng) -> dict:
    d, n = cfg["d"], cfg["N"]
    grid = TorusGrid(dim=d, n=n)
    b = random_solenoidal(grid, 3, rng) * cfg["drift_scale"]
    f = random_scalar(grid, 3, rng)
    u = solve(b, f, SolveConfig(tol=cfg["tol"]))
    rows = moser_gns_check(u, b, f, k_max=cfg["k_max"])
    return {"experiment": "moser", "d": d, "N": n, "rows": rows,
            "checks": moser_checks(rows)}


def _exp_commutator(cfg: dict, out: Path, rng) -> dict:
    d, n, eps_list, z = cfg["d"], cfg["N"], cfg["eps"], cfg["z_per_axis"]
    grid = TorusGrid(dim=d, n=n)
    b = random_solenoidal(grid, 3, rng)
    u = random_scalar(grid, 3, rng)
    v = random_scalar(grid, 3, rng)
    table = commutator_check(b, u, v, eps_list, z_per_axis=z)
    report = {"experiment": "commutator", "d": d, "N": n,
              "table": {k: v for k, v in table.items() if k != "moment_matrix"},
              "moment_matrix": table["moment_matrix"],
              **commutator_verdict(table)}
    if cfg["rough_contrast"]:
        r2 = grid.radius_squared()
        rough_mag = 1.0 / (r2 + cfg["rough_core"] ** 2)
        comp = ScalarField(grid, rough_mag)
        rough = VectorField.from_components(
            tuple(comp * random_scalar(grid, 2, rng) for _ in range(d)))
        rough = leray_project(rough)
        rough_table = commutator_check(rough, u, v, eps_list, z_per_axis=z)
        report["rough_contrast"] = {k: v for k, v in rough_table.items()
                                    if k != "moment_matrix"}
    write_csv(out / "commutator.csv", "columns: eps, I(eps), |I(eps)|",
              {"eps": table["eps"], "value": table["value"],
               "magnitude": table["magnitude"]})
    return report


def _exp_counterexample(cfg: dict, out: Path, rng) -> dict:
    pair = make_alpha_beta()
    fs = build_fields(pair, n_r=cfg["n_r"], n_sph=cfg["n_sph"])
    ed = energy_defect(fs)
    fl = flux_check(fs)
    ge = grad_energy(fs)
    exact = 64.0 * math.pi / 15.0
    norms = singular_norm_report(pair)
    res = pair.constraint_residuals
    checks = {
        "constraints": max(abs(res["int_beta"]), abs(res["int_alpha_beta"]),
                           abs(res["int_alpha2_beta_plus_2"])) <= 1e-8,
        "grad_energy": abs(ge - exact) / exact <= 1e-5,
        "defect_magnitude": ed["defect_magnitude_err"] <= 1e-3,
        "flux": fl["max_abs"] <= 1e-9,
        "lp_partials_monotone": all(row["monotone_growth"] for row in norms["rows"]),
    }
    report = {
        "experiment": "counterexample",
        "alpha_spec": list(pair.alpha_coeffs),
        "beta_spec": list(pair.beta_coeffs),
        "constraints": res,
        "grad_energy": ge,
        "grad_energy_exact": exact,
        "drift_term": ed["drift_term"],
        "defect": ed["defect"],
        "flux": fl,
        "lp_norms": {f"{row['p']:g}": row["full_graded"] for row in norms["rows"]},
        "lp_partials": norms["rows"],
        "checks": checks,
    }
    for row in norms["rows"]:
        write_csv(out / f"lp_partials_p{row['p']:g}.csv",
                  "columns: inner cutoff delta, partial integral of |b|^p over (delta,1]",
                  {"delta": row["cutoffs"], "partial": row["partial"]})
    return report


def _exp_uniqueness(cfg: dict, out: Path, rng) -> dict:
    d, n = cfg["d"], cfg["N"]
    grid = TorusGrid(dim=d, n=n)
    b = random_solenoidal(grid, 3, rng) * cfg["drift_scale"]
    f = random_scalar(grid, 3, rng)
    sched_a = TruncationSchedule(levels=(4.0, 8.0, 16.0), mode="lowpass")
    sched_b = TruncationSchedule(levels=tuple(cfg["clamp_levels"]), mode="clamp")
    probe = uniqueness_probe(b, f, sched_a, sched_b, SolveConfig(tol=cfg["tol"]))
    checks = {"schedule_independence": probe["relative"] <= 1e-6}
    return {"experiment": "uniqueness", "d": d, "N": n,
            "distance_h1": probe["distance_h1"], "relative": probe["relative"],
            "checks": checks}


# every experiment's runner and config keys.  A key's type is that of its default (a
# list makes a list key); a bare type, or [type], marks an optional key, None if unset.
_NASH_KEYS = {"d": 3, "p": 1.5, "mode": "W1R", "r": float, "q": float,
              "resolution_factor": 8.0, "write_fields": False, "seed_kind": "shifted-cosine",
              "u_amp": float, "flux_shift": 2048.0, "drift_lp": 4000.0, "flux_amp": 16384.0}
EXPERIMENTS = {
    "mikado-verify": (_exp_mikado_verify, {
        "d": 3, "N": 64, "p": 1.5, "resolution_factor": 8.0, "mu": [8.0], "scaling_k": 0,
        "scaling_mu_list": [float], "scaling_r": [1.0, 2.0, 3.0], "scaling_N": 512}),
    "osc-verify": (_exp_osc_verify, {
        "d": 2, "N": 256, "p": 2.0, "lambda": [4, 8, 16, 32], "cases": 50}),
    "ci-step": (_exp_ci_step, {
        **_NASH_KEYS, "N": 128, "lambda": 2, "mu": 8.0, "eps_frac": 0.25,
        "delta_divisor": 16.0, "refine_N": int}),
    "ci-run": (_exp_ci_run, {
        **_NASH_KEYS, "N": 224, "K": 3, "eps_frac": 0.1,
        "lam_schedule": [int], "mu_schedule": [float]}),
    "solve": (_exp_solve, {"d": 3, "N": 32, "cases": 20, "drift_scale": 2.0, "tol": 1e-10}),
    "maxprinc": (_exp_maxprinc, {
        "d": 3, "N": 32, "drifts": 30, "scale_span": 100.0, "tol": 1e-10}),
    "moser": (_exp_moser, {"d": 3, "N": 32, "k_max": 3, "drift_scale": 3.0, "tol": 1e-10}),
    "commutator": (_exp_commutator, {
        "d": 2, "N": 64, "eps": [1 / 8, 1 / 16, 1 / 32, 1 / 64], "z_per_axis": 21,
        "rough_contrast": False, "rough_core": 0.02}),
    "counterexample": (_exp_counterexample, {"n_r": 64, "n_sph": 12}),
    "uniqueness": (_exp_uniqueness, {
        "d": 3, "N": 32, "drift_scale": 3.0, "clamp_levels": [2.0, 5.0, 50.0], "tol": 1e-10}),
}


def run_experiment(experiment: str, cfg: dict, out_dir: str | Path,
                   seed: int = 0) -> tuple[int, dict]:
    """Load the raw config and execute one experiment; returns (exit_code, report)."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {sorted(EXPERIMENTS)}")
    cfg = load_config(experiment, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(int(seed))
    code = 3
    try:
        report = EXPERIMENTS[experiment][0](cfg, out, rng)
    except NonConvergence as exc:
        report = {"experiment": experiment, "error": "non_convergence",
                  "achieved": exc.achieved, "message": str(exc),
                  "checks": {"convergence": False}}
    else:
        report["pass"] = all(report.get("checks", {}).values())
        code = 0 if report["pass"] else 1
    report["seed"] = int(seed)
    write_report(out / "report.json", report)
    return code, report


def main(argv=None) -> int:
    workers = os.environ.get("MF_THREADS")
    if workers:
        try:
            set_fft_workers(int(workers))
        except ValueError:
            print(f"ignoring malformed MF_THREADS={workers!r}", file=sys.stderr)

    parser = argparse.ArgumentParser(
        prog="mikado-forge",
        description="Experiment runner for the torus drift-diffusion laboratory")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", type=Path, default=None,
                        help="plain-text key = value configuration file")
    parser.add_argument("--out", type=Path, default=Path("mikado-forge-out"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        raw = parse_config(args.config.read_text()) if args.config else {}
        seed = raw.pop("seed", args.seed)
        out_dir = raw.pop("out_dir", args.out / args.experiment)
        if type(seed) is not int or seed < 0:
            raise ConfigError(f"seed = {seed!r}, expected a non-negative int")
        if not isinstance(out_dir, (str, Path)):
            raise ConfigError(f"out_dir = {out_dir!r}, expected a path")
        code, report = run_experiment(args.experiment, raw, out_dir, seed)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = [k for k, v in report.get("checks", {}).items() if not v]
    status = "PASS" if code == 0 else f"FAIL ({', '.join(failed) or report.get('error')})"
    print(f"{args.experiment}: {status} -> {out_dir}/report.json")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
