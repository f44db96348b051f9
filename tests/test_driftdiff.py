"""Solver and well-posedness diagnostics for the steady drift-diffusion
equation."""

import tracemalloc

import numpy as np
import pytest

from mikado_forge.driftdiff import (
    NonConvergence,
    SolveConfig,
    TruncationSchedule,
    approximation_solution,
    commutator_check,
    energy_check,
    gns_constant,
    max_principle_sweep,
    moser_gns_check,
    solve,
    uniqueness_probe,
)
from mikado_forge.convexint import StepParams, assemble_step
from mikado_forge.driftdiff import _bump_normalisation, _gmres, mollifier_moment_matrix
from mikado_forge.mikado import build_family
from mikado_forge.seeds import shifted_cosine_seed
from mikado_forge.torus import (
    _bump,
    ScalarField,
    TorusGrid,
    VectorField,
    divergence,
    gradient,
    _lp_of_values,
    _shift_values,
    grad_magnitude,
    leray_project,
    norm,
    random_scalar,
    random_solenoidal,
    relative_divergence,
)

CFG = SolveConfig(tol=1e-10)


@pytest.fixture(scope="module")
def grid3():
    return TorusGrid(3, 32)


def test_poisson_single_mode(grid3):
    f = ScalarField.from_function(grid3, lambda x, y, z: np.sin(2 * np.pi * x))
    u = solve(VectorField.zero(grid3), f, CFG)
    exact = ScalarField.from_function(
        grid3, lambda x, y, z: np.sin(2 * np.pi * x) / (4 * np.pi ** 2))
    assert norm(u - exact, p=2) <= 1e-12


def test_zero_source_gives_zero(grid3):
    rng = np.random.default_rng(0)
    b = random_solenoidal(grid3, 3, rng) * 3.0
    u = solve(b, ScalarField.zero(grid3), CFG)
    assert norm(u, p=2) == 0.0


def test_manufactured_solutions(grid3):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        b = random_solenoidal(grid3, 3, rng) * 2.0
        ustar = random_scalar(grid3, 3, rng)
        f = -divergence(gradient(ustar) + b * ustar)
        urec = solve(b, f, CFG)
        worst = max(worst, norm(urec - ustar, p=2) / norm(ustar, p=2))
    assert worst <= 1e-8


def test_solver_preconditions(grid3):
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        solve(VectorField.zero(grid3), ScalarField.constant(grid3, 1.0), CFG)
    not_solenoidal = VectorField.from_components(
        [random_scalar(grid3, 3, rng, unit_l2=False) for _ in range(3)])
    f = random_scalar(grid3, 3, rng)
    with pytest.raises(ValueError):
        solve(not_solenoidal, f, CFG)


def test_nonconvergence_reports_achieved(grid3):
    rng = np.random.default_rng(3)
    b = random_solenoidal(grid3, 3, rng) * 50.0
    f = random_scalar(grid3, 4, rng)
    with pytest.raises(NonConvergence) as exc:
        solve(b, f, SolveConfig(tol=1e-13, max_matvecs=2))
    assert exc.value.achieved > 1e-13


def test_energy_identity_for_bounded_drift(grid3):
    rng = np.random.default_rng(4)
    b = random_solenoidal(grid3, 3, rng) * 3.0
    f = random_scalar(grid3, 4, rng)
    u = solve(b, f, CFG)
    ec = energy_check(u, b, f)
    assert abs(ec["relative_defect"]) <= 1e-8
    assert ec["inequality_ok"]
    zero = energy_check(ScalarField.zero(grid3), b, f)
    assert zero["identity_defect"] == 0.0


def test_energy_identity_violated_off_solution(grid3):
    # a nontrivial pair (b, u) with zero forcing: the defect is the full
    # gradient energy, so the inequality fails
    rng = np.random.default_rng(5)
    b = random_solenoidal(grid3, 3, rng)
    u = random_scalar(grid3, 3, rng)
    ec = energy_check(u, b, ScalarField.zero(grid3))
    assert ec["identity_defect"] > 0
    assert not ec["inequality_ok"]


def test_drift_cancellation_powers(grid3):
    # int b . grad(phi(u)) = 0 for divergence-free b; phi = u^2, u^4
    rng = np.random.default_rng(6)
    b = random_solenoidal(grid3, 3, rng) * 2.0
    u = random_scalar(grid3, 3, rng)
    for power in (2, 4):
        phi = ScalarField(grid3, u.values ** power)
        val = float(b.dot(gradient(phi)).values.mean())
        scale = norm(b, p=2) * norm(gradient(phi), p=2)
        assert abs(val) <= 1e-8 * max(scale, 1e-300)


def test_moser_table(grid3):
    rng = np.random.default_rng(7)
    b = random_solenoidal(grid3, 3, rng) * 3.0
    f = random_scalar(grid3, 3, rng)
    u = solve(b, f, CFG)
    rows = moser_gns_check(u, b, f, k_max=3)
    assert rows[0]["k"] == 1
    assert rows[0]["identity_defect_rel"] <= 1e-6
    for row in rows:
        if row["status"] != "ok":
            continue
        assert row["drift_term_power_rel"] <= 1e-8
        assert row["gns_ok"]


def test_moser_zero_solution(grid3):
    rows = moser_gns_check(ScalarField.zero(grid3), VectorField.zero(grid3),
                           ScalarField.zero(grid3), k_max=2)
    for row in rows:
        assert row["identity_lhs"] == 0.0
        assert row["identity_rhs"] == 0.0


def test_moser_overflow_guard(grid3):
    u = ScalarField.constant(grid3, 1e80)
    rows = moser_gns_check(u, VectorField.zero(grid3),
                           ScalarField.zero(grid3), k_max=4)
    assert any("skipped" in row["status"] for row in rows)


def test_gns_constant_on_fresh_suite(grid3):
    cd = gns_constant(3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        gfield = random_scalar(grid3, 4, rng, mean_zero=False)
        l2sq = norm(gfield, p=2) ** 2
        grad_sq = _lp_of_values(grad_magnitude(gfield), 2.0) ** 2
        for eps in (0.5, 0.25, 0.125):
            bound = eps * grad_sq + cd * eps ** (-1.5) * norm(gfield, p=1) ** 2
            assert l2sq <= bound * (1 + 1e-10)


def test_max_principle_explicit_ratio(grid3):
    f = ScalarField.from_function(grid3, lambda x, y, z: np.sin(2 * np.pi * x))
    table = max_principle_sweep(f, [VectorField.zero(grid3)], CFG)
    assert table["rows"][0]["ratio"] == pytest.approx(1 / (4 * np.pi ** 2), rel=1e-10)


def test_max_principle_rescaled_family(grid3):
    rng = np.random.default_rng(9)
    f = random_scalar(grid3, 3, rng)
    base = random_solenoidal(grid3, 3, rng)
    drifts = [base * float(s) for s in range(1, 11)]
    table = max_principle_sweep(f, drifts, CFG)
    assert table["all_bounded"]
    assert table["trend_ok"]
    ratios = [r["ratio"] for r in table["rows"]]
    assert max(ratios) <= table["bound"]


def test_max_principle_zero_forcing(grid3):
    rng = np.random.default_rng(10)
    table = max_principle_sweep(ScalarField.zero(grid3),
                                [random_solenoidal(grid3, 3, rng)], CFG)
    assert all(r["status"] == "skipped" for r in table["rows"])


def test_truncation_schedule_validation():
    with pytest.raises(ValueError):
        TruncationSchedule(levels=(4.0, 8.0), mode="lowpass")
    with pytest.raises(ValueError):
        TruncationSchedule(levels=(8.0, 4.0, 16.0), mode="lowpass")
    with pytest.raises(ValueError):
        TruncationSchedule(levels=(2.0, 4.0, 8.0), mode="banana")


def test_truncation_modes(grid3):
    rng = np.random.default_rng(11)
    b = random_solenoidal(grid3, 5, rng) * 10.0
    sched = TruncationSchedule(levels=(1.0, 2.0, 4.0), mode="clamp")
    bn = sched.truncate(b, 1.0)
    assert relative_divergence(bn) <= 1e-10
    low = TruncationSchedule(levels=(2.0, 3.0, 4.0), mode="lowpass")
    bl = low.truncate(b, 2.0)
    from mikado_forge.torus import bandwidth
    assert bandwidth(bl) <= 2


def test_approximation_solution_bounded_noop(grid3):
    rng = np.random.default_rng(12)
    b = random_solenoidal(grid3, 3, rng) * 2.0
    f = random_scalar(grid3, 3, rng)
    sched = TruncationSchedule(levels=(4.0, 8.0, 16.0), mode="lowpass")
    u, diag = approximation_solution(b, f, sched, CFG)
    assert max(diag["interlevel_distance"]) <= 1e-10
    assert diag["energy"][-1]["identity_defect"] <= 1e-8 * abs(diag["energy"][-1]["grad_energy"])


def test_approximation_solution_cauchy_trend(grid3):
    # steep grid-regularised concentration: inter-level distances decrease
    rng = np.random.default_rng(13)
    r2 = grid3.radius_squared()
    # steep but grid-resolved concentration (cell Peclet stays order one)
    spike = ScalarField(grid3, 1.0 / (r2 + 0.15 ** 2))
    rough = leray_project(VectorField.from_components(
        tuple(spike * random_scalar(grid3, 2, rng) for _ in range(3))))
    rough = rough * (3.0 / norm(rough, p=2))
    f = random_scalar(grid3, 3, rng)
    # finest level kept inside the resolved band so the discrete energy
    # pairing stays aliasing-clean
    sched = TruncationSchedule(levels=(2.0, 4.0, 8.0), mode="lowpass")
    u, diag = approximation_solution(rough, f, sched, CFG)
    steps = diag["interlevel_distance"]
    assert steps[-1] < steps[0]
    assert diag["energy"][-1]["inequality_ok"]


def test_uniqueness_probe_bounded(grid3):
    rng = np.random.default_rng(14)
    b = random_solenoidal(grid3, 3, rng) * 2.0
    f = random_scalar(grid3, 3, rng)
    same = TruncationSchedule(levels=(4.0, 8.0, 16.0), mode="lowpass")
    probe = uniqueness_probe(b, f, same, same, CFG)
    assert probe["relative"] <= 1e-10


def test_uniqueness_probe_two_schedules(grid3):
    rng = np.random.default_rng(15)
    b = random_solenoidal(grid3, 4, rng) * 2.0
    f = random_scalar(grid3, 3, rng)
    lo = TruncationSchedule(levels=(4.0, 8.0, 15.0), mode="lowpass")
    cl = TruncationSchedule(levels=(2.0, 8.0, 64.0), mode="clamp")
    probe = uniqueness_probe(b, f, lo, cl, CFG)
    assert probe["relative"] <= 1e-6


def test_commutator_constant_drift_vanishes():
    g = TorusGrid(2, 64)
    rng = np.random.default_rng(16)
    u = random_scalar(g, 3, rng)
    v = random_scalar(g, 3, rng)
    b = VectorField.from_components(
        (ScalarField.constant(g, 1.0), ScalarField.constant(g, 2.0)))
    table = commutator_check(b, u, v, [1 / 8, 1 / 16])
    assert max(table["magnitude"]) <= 1e-13


def test_commutator_smooth_drift_decays():
    g = TorusGrid(2, 64)
    rng = np.random.default_rng(17)
    b = random_solenoidal(g, 3, rng)
    u = random_scalar(g, 3, rng)
    v = random_scalar(g, 3, rng)
    table = commutator_check(b, u, v, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    assert table["fitted_rate"] >= 1.0
    assert table["decayed"]
    assert table["monotone_trend"]


def test_mollifier_moment_matrix_oracle():
    # integration by parts: int z_j d_i rho = -delta_ij int rho = -delta_ij
    for d in (2, 3):
        mom = mollifier_moment_matrix(d)
        assert np.abs(np.asarray(mom) + np.eye(d)).max() <= 1e-6


def test_bump_quadratures_memory_and_value():
    # the 321^3 normalisation and the 201^3 moment quadrature are summed in
    # slabs, not as full-grid temporaries of several hundred megabytes
    tracemalloc.start()
    try:
        _bump_normalisation.__wrapped__(3)
        mollifier_moment_matrix(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # the full-grid sum as reference, at node counts where it is cheap
    for d, fine in [(2, 321), (3, 121), (4, 41)]:
        z = np.linspace(-1.0, 1.0, fine)
        r2 = sum(c ** 2 for c in np.meshgrid(*([z] * d), indexing="ij", sparse=True))
        full = 1.0 / float(_bump(r2).sum() * (z[1] - z[0]) ** d)
        assert abs(_bump_normalisation.__wrapped__(d, fine) - full) <= 1e-13 * full


def test_shift_treats_every_axis_alike():
    # white noise carries every Nyquist mode; transposing the field and the
    # shift must transpose the shifted values, whichever axis the half
    # spectrum cuts
    g = TorusGrid(2, 16)
    v = np.random.default_rng(11).standard_normal(g.shape)
    s = np.array([0.013, -0.027])
    a = _shift_values(g, ScalarField(g, v).coeffs, s)
    b = _shift_values(g, ScalarField(g, v.T.copy()).coeffs, s[::-1])
    assert np.abs(a.T - b).max() <= 1e-13 * np.abs(a).max()
    # a shift by whole cells permutes the samples
    c = _shift_values(g, ScalarField(g, v).coeffs, np.array([3, -5]) / 16)
    assert np.abs(c - np.roll(v, (3, -5), axis=(0, 1))).max() <= 1e-13 * np.abs(v).max()


def test_split_solver_converges_within_200_matvecs_at_drift_scale_30(grid3):
    # a total budget of 200 matvecs, where the left-preconditioned GMRES
    # needed 365-402 on such problems
    rng = np.random.default_rng(30)
    b = random_solenoidal(grid3, 3, rng) * 30
    ustar = random_scalar(grid3, 3, rng)
    f = -divergence(gradient(ustar) + b * ustar)
    urec = solve(b, f, SolveConfig(tol=1e-10, max_matvecs=200))
    assert norm(urec - ustar, p=2) <= 1e-8 * norm(ustar, p=2)


def test_unreachable_tolerance_stops_on_stagnation():
    # the `solve` experiment's reproducer: d = 2, N = 16, one case,
    # tol = 1e-18, below what double precision reaches
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(0)
    b = random_solenoidal(grid, 3, rng) * 2.0
    ustar = random_scalar(grid, 3, rng)
    f = -divergence(gradient(ustar) + b * ustar)
    with pytest.raises(NonConvergence) as exc:
        solve(b, f, SolveConfig(tol=1e-18))
    assert exc.value.matvecs < 1000
    assert exc.value.achieved < 1e-13
    assert "failed to halve" in str(exc.value)
    assert "(budget 16000 matvecs)" in str(exc.value)


def test_budget_is_counted_in_matvecs(grid3):
    rng = np.random.default_rng(31)
    b = random_solenoidal(grid3, 3, rng) * 30
    f = random_scalar(grid3, 3, rng)
    with pytest.raises(NonConvergence) as exc:
        solve(b, f, SolveConfig(tol=1e-10, max_matvecs=20))
    assert exc.value.matvecs <= 20
    assert exc.value.achieved > 1e-10
    assert "budget is spent" in str(exc.value)


def test_gmres_restarts_to_its_target_within_its_budget():
    # a dense nonsymmetric system whose GMRES needs several cycles of 8
    rng = np.random.default_rng(60)
    a = 2.0 * np.eye(60) + rng.standard_normal((60, 60)) / np.sqrt(60)
    rhs = rng.standard_normal(60)
    calls = []

    def apply(x):
        calls.append(1)
        return a @ x

    x, matvecs = _gmres(apply, rhs, 1e-10, 8, 1000)
    assert matvecs == len(calls) > 3 * (8 + 1)
    assert np.linalg.norm(rhs - a @ x) <= 1e-10 * np.linalg.norm(rhs)
    # a budget cuts the cycles where it ends, and is never exceeded
    needed = matvecs
    for budget in range(1, needed + 3):
        calls.clear()
        _, matvecs = _gmres(apply, rhs, 1e-10, 8, budget)
        assert matvecs == len(calls) <= budget
        # a cycle is cut where the budget ends, and a restart residual is
        # not spent without room for one more step: a cycle costs 8 + 1
        assert matvecs == (needed if budget >= needed else budget - (budget % 9 == 0))


def test_solve_returns_the_nash_step_iterate():
    # the step's (b1, u1, f1) solves -div(grad u1 + b1 u1) = div f1 on its
    # grid, so the solver must return u1; measured: 4.8e-11 in 82 matvecs
    g = TorusGrid(3, 32)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=2.0)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=64.0)
    params = StepParams(delta=t0.f_l1 / 16, lam=1, mu=7.0, mode="W1R", r=1.1)
    t1, _ = assemble_step(t0, params, fam)
    u = solve(t1.b, divergence(t1.f), SolveConfig(tol=1e-10, max_matvecs=200))
    assert norm(u - t1.u, p=2) <= 1e-8 * norm(t1.u, p=2)
