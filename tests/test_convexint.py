"""Perturbation step and iteration: cutoffs, exponent windows, the step
estimates, parameter search, and the surrogate iteration laws."""

import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mikado_forge import convexint, torus
from mikado_forge.convexint import (
    BudgetExhausted,
    IterateTriple,
    StepParams,
    assemble_step,
    equation_residual,
    grid_lambda_max,
    h1_window,
    run_iteration,
    sampled_residual,
    select_parameters,
    validate_mode,
    w1q_window,
    w1r_window,
)
from mikado_forge.mikado import build_family
from mikado_forge.ratefit import fit_loglog
from mikado_forge.seeds import cascade_seed, seed_triple, shifted_cosine_seed
from mikado_forge.torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    norm,
)


# ---------------------------------------------------------------------------
# exponent windows

def test_h1_window_values():
    assert h1_window(4) == (1.0, pytest.approx(6 / 5))
    # the window is empty below d = 4
    lo, hi = h1_window(3)
    assert hi <= 1.0 + 1e-12 or hi == pytest.approx(1.0)


def test_w1r_window_values():
    # d=3, p=3/2 => p'=3 => r-window [1, 6/5)
    lo, hi = w1r_window(3, 1.5)
    assert lo == 1.0
    assert hi == pytest.approx(6 / 5)


def test_w1q_window_values():
    # d=5, p=2: q-window [1, 4/3); (d-1)/(d-2) = 4/3 < 2 < 4 = d-1
    lo, hi = w1q_window(5, 2.0)
    assert hi == pytest.approx(4 / 3)
    validate_mode(5, 2.0, "W1R_W1Q", r=1.1, q=1.2)


def test_validate_mode_rejections():
    with pytest.raises(ValueError):
        validate_mode(3, 1.1, "H1")                 # d too small
    with pytest.raises(ValueError):
        validate_mode(4, 1.5, "H1")                 # p outside (1, 6/5)
    with pytest.raises(ValueError):
        validate_mode(3, 1.5, "W1R", r=1.3)         # r beyond 6/5
    with pytest.raises(ValueError):
        validate_mode(3, 1.5, "W1R")                # r missing
    with pytest.raises(ValueError):
        validate_mode(5, 1.2, "W1R_W1Q", r=1.1, q=1.1)  # p <= (d-1)/(d-2)
    with pytest.raises(ValueError):
        validate_mode(5, 2.0, "W1R_W1Q", r=1.1, q=1.5)  # q beyond 4/3
    with pytest.raises(ValueError):
        validate_mode(3, 1.5, "XX", r=1.1)


# ---------------------------------------------------------------------------
# cutoffs

def test_cutoffs_saturated_and_silent():
    g = TorusGrid(2, 32)
    delta = 1.0
    f_hot = VectorField.from_components(
        (ScalarField.constant(g, delta), ScalarField.constant(g, -delta)))
    for comp in f_hot.components:
        assert np.all(convexint._cutoff(comp.values, delta, g.dim) == 1.0)
    # StepParams rejects delta <= 0 before any cutoff (test_step_mode_validation)
    f_cold = VectorField.zero(g)
    for comp in f_cold.components:
        assert np.all(convexint._cutoff(comp.values, delta, g.dim) == 0.0)


def test_cutoff_ramp_pointwise():
    g = TorusGrid(2, 64)
    d = g.dim
    delta = 1.0
    f = VectorField.from_components((
        ScalarField.from_function(g, lambda x, y: delta * np.sin(2 * np.pi * x)),
        ScalarField.zero(g),
    ))
    chi = convexint._cutoff(f[0].values, delta, d)
    mag = np.abs(f[0].values)
    assert np.all(chi[mag >= delta / (2 * d)] == 1.0)
    assert np.all(chi[mag <= delta / (4 * d)] == 0.0)
    assert chi.min() >= 0.0 and chi.max() <= 1.0
    # the ramp is monotone in |f|
    ramp = (mag > delta / (4 * d)) & (mag < delta / (2 * d))
    order = np.argsort(mag[ramp])
    assert np.all(np.diff(chi[ramp][order]) >= -1e-12)


# ---------------------------------------------------------------------------
# the step

@pytest.fixture(scope="module")
def toy64():
    g = TorusGrid(3, 64)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0)
    fam = build_family(3, 1.5, 8.0, TorusGrid(3, 64), resolution_factor=8.0)
    params = StepParams(delta=t0.f_l1 / 16, lam=1, mu=8.0, mode="W1R", r=1.1)
    t1, rep = assemble_step(t0, params, fam, eps_target=0.25 * t0.f_l1)
    return t0, t1, rep, fam


def test_zero_flux_step_is_identity():
    g = TorusGrid(3, 32)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=2.0)
    t0 = IterateTriple(b=VectorField.zero(g), u=ScalarField.zero(g),
                       f=VectorField.zero(g))
    params = StepParams(delta=1.0, lam=1, mu=7.0, mode="W1R", r=1.1)
    t1, rep = assemble_step(t0, params, fam)
    assert rep.f1_l1 == 0.0
    assert t1.u.max_abs() == 0.0
    assert t1.b.max_abs() == 0.0


def test_step_estimates(toy64):
    t0, t1, rep, fam = toy64
    eps = 0.25 * rep.f0_l1
    assert rep.increment_ok          # Lp increment against M max(s^(1/p'), s^(1/p))
    assert rep.smallness_ok          # mode norm + new flux below eps
    assert rep.cutoff_part_ok        # ||g_cutoff||_1 <= delta/2
    assert rep.div_b1_rel <= 1e-9
    assert rep.mean_u1_rel <= 1e-10
    assert rep.smallness_lhs <= eps


def test_step_structure_and_residuals(toy64):
    t0, t1, rep, fam = toy64
    check = t1.check_structure()
    assert check["ok"]
    # the construction is exactly consistent at build resolution
    assert sampled_residual(t1) <= 1e-12
    # the seed itself is band-limited: both residual measures vanish
    assert sampled_residual(t0) <= 1e-12
    assert equation_residual(t0) <= 1e-12


def test_step_and_residual_memory_in_fields():
    # extra memory of one step and of the de-aliased residual at 64^3, in
    # units of one full-grid float64 field (measured 7.27, 10.27 and 6.70
    # with one worker, 7.45-7.70, 10.46 and 6.63-6.70 with two: the step
    # streams its perturbation, flux parts and corrector one component at
    # a time, consumes its input flux, produces its quadratic source inside
    # its transform, forms u1 in theta's buffer after the corrector, and
    # takes its spectral parts slab by slab from the inverse transforms;
    # the residual transforms only the band, slab by slab, forms no padded
    # array, and frees u's spectrum before its product loop).  tracemalloc
    # sees numpy's allocations but not glibc's heap layout, so a change
    # that keeps these bounds can still raise the peak RSS.  Pool workers
    # hold small per-task buffers, so the count is taken at a fixed worker
    # count; each bound is the two-worker reading plus about 0.4 field,
    # the spread thread timing gives
    saved = torus._FFT_WORKERS
    try:
        for n_workers in (1, 2):
            torus.set_fft_workers(n_workers)
            _step_and_residual_peaks()
    finally:
        torus.set_fft_workers(saved)


def test_d4_step_and_residual_memory_in_fields():
    # the same count for the H1 step at 32^4 (shifted-cosine seed with flux
    # shift 512, p = 8/7, mu = 9, resolution factor 3.5, lambda = 1), seed
    # handed over: measured 8.23 fields with one worker and 8.63-9.13 with
    # two, and 8.94 for its residual
    g = TorusGrid(4, 32)
    fam = build_family(4, 8 / 7, 9.0, g, resolution_factor=3.5)
    saved = torus._FFT_WORKERS
    try:
        for n_workers in (1, 2):
            torus.set_fft_workers(n_workers)
            t1, step = _step_peak(
                lambda: shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0),
                lambda f0_l1: StepParams(delta=f0_l1 / 16, lam=1, mu=9.0, mode="H1"),
                fam, hand_over=True)
            resid = _residual_peak(t1)
            assert step <= 9.5, (n_workers, step)
            assert resid <= 9.3, (n_workers, resid)
    finally:
        torus.set_fft_workers(saved)


def _step_peak(seed, params_of, fam, hand_over: bool):
    # the new triple, and the step's peak above what its caller held at the
    # call, in fields.  tracemalloc starts before the seed is built: it
    # does not count the frees of blocks allocated before it started, and
    # the step frees the seed's flux when its caller hands the seed over
    tracemalloc.start()
    try:
        held = [seed()]
        f0_l1 = held[0].f_l1
        field = held[0].grid.n ** held[0].grid.dim * 8
        kept = None if hand_over else held[0]
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t1, _ = assemble_step(held.pop(), params_of(f0_l1), fam, eps_target=0.25 * f0_l1)
        peak = tracemalloc.get_traced_memory()[1]
        del kept
    finally:
        tracemalloc.stop()
    return t1, (peak - base) / field


def _residual_peak(t1) -> float:
    # the residual's peak in fields; tracemalloc starts after t1 is built
    tracemalloc.start()
    try:
        equation_residual(t1)
        return tracemalloc.get_traced_memory()[1] / (t1.grid.n ** t1.grid.dim * 8)
    finally:
        tracemalloc.stop()


def _step_and_residual_peaks():
    g = TorusGrid(3, 64)
    fam = build_family(3, 1.5, 8.0, g, resolution_factor=8.0)

    def step_peak(hand_over: bool):
        return _step_peak(
            lambda: shifted_cosine_seed(g, u_amp=0.5, flux_shift=2048.0),
            lambda f0_l1: StepParams(delta=f0_l1 / 16, lam=1, mu=8.0, mode="W1R", r=1.1),
            fam, hand_over)

    t1, handed_over = step_peak(hand_over=True)
    _, kept = step_peak(hand_over=False)
    resid_peak = _residual_peak(t1)
    assert kept <= 10.9
    assert handed_over <= 7.9
    assert kept - handed_over >= 1.5
    assert resid_peak <= 7.0


def test_residual_weight_is_the_full_array_weight():
    # the residuals' Sobolev weight and band mask, built per Parseval slab
    # (here 16 rows and a short slab of 8), give the sizes from the full
    # half-spectrum weight and from the coefficients cut to the band
    g = TorusGrid(3, 24)
    rng = np.random.default_rng(21)
    e = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
    t = SimpleNamespace(grid=g, f=VectorField.from_arrays(
        g, [rng.standard_normal(g.shape) for _ in range(3)]))
    scale = max(norm(t.f, p=2), 1e-300)
    kcap = g.n // 2 - 1
    band = np.ones(g.half_shape, dtype=bool)
    for ax in range(3):
        band &= np.abs(g.axis_k(ax)) <= kcap
    k2 = g.k_squared_rows(slice(None))
    with np.errstate(divide="ignore"):
        weight = np.where(k2 > 0.0, 1.0 / (2.0 * np.pi * np.sqrt(k2)), 0.0) ** 2
    cut = np.where(band, e, 0.0)
    assert convexint._residual_size(t, e) == math.sqrt(torus._parseval_sum(e, weight)) / scale
    assert (convexint._residual_size(t, e, kcap)
            == math.sqrt(torus._parseval_sum(cut, weight)) / scale)
    full = g.k_squared_rows(slice(None), diff=True)
    for rows in (slice(0, 16), slice(16, 32)):
        assert np.array_equal(g.k_squared_rows(rows, diff=True), full[rows])


def test_perturbation_norm_line(toy64):
    t0, _, _, fam = toy64
    params = StepParams(delta=t0.f_l1 / 16, lam=2, mu=8.0, mode="W1R", r=1.1)
    fam2 = build_family(3, 1.5, 8.0, TorusGrid(3, 32), resolution_factor=4.0)
    t1, _ = assemble_step(t0, params, fam2)
    # the step's increments are theta + theta_c and w + w_c
    du, dw = t1.u - t0.u, t1.b - t0.b
    s = t0.f_l1
    pc = 3.0
    assert norm(du, p=pc) <= fam2.M / 3 * s ** (1 / pc) * 1.05
    assert norm(dw, p=1.5) <= fam2.M / 3 * s ** (1 / 1.5) * 1.05
    assert abs(du.mean) <= 1e-12
    from mikado_forge.torus import relative_divergence
    assert relative_divergence(dw) <= 1e-9


def test_theta_constant_decays_with_oscillation():
    g = TorusGrid(3, 128)
    u0 = ScalarField.from_function(
        g, lambda x, y, z: 0.3 * np.cos(2 * np.pi * (x + y + z))
        + 0.2 * np.sin(2 * np.pi * (x - 2 * y + z)))
    u0 = u0 - u0.mean
    t0 = seed_triple(VectorField.zero(g), u0, (64.0,) * 3)
    lams = [2, 4, 8]
    tcs = []
    for lam in lams:
        fam = build_family(3, 1.5, 7.0, TorusGrid(3, 128 // lam),
                           resolution_factor=2.0)
        params = StepParams(delta=t0.f_l1 / 16, lam=lam, mu=7.0,
                            mode="W1R", r=1.1)
        _, rep = assemble_step(t0, params, fam)
        tcs.append(abs(rep.theta_c))
    assert tcs[0] >= tcs[1] >= tcs[2]
    assert fit_loglog(lams, tcs) <= -1.0 + 0.15


def test_residual_refinement_law():
    res = {}
    for n in (64, 128):
        g = TorusGrid(3, n)
        t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0)
        fam = build_family(3, 1.5, 8.0, TorusGrid(3, n // 2), resolution_factor=4.0)
        params = StepParams(delta=t0.f_l1 / 16, lam=2, mu=8.0, mode="W1R", r=1.1)
        t1, _ = assemble_step(t0, params, fam)
        res[n] = equation_residual(t1)
    assert res[64] / res[128] >= 4.0


def test_w1q_mode_step():
    g = TorusGrid(4, 32)
    t0 = shifted_cosine_seed(g, u_amp=0.25, flux_shift=8192.0)
    fam = build_family(4, 2.0, 9.0, TorusGrid(4, 32), resolution_factor=3.5)
    params = StepParams(delta=t0.f_l1 / 16, lam=1, mu=9.0,
                        mode="W1R_W1Q", r=1.1, q=1.1)
    eps = 0.25 * t0.f_l1
    t1, rep = assemble_step(t0, params, fam, eps_target=eps)
    assert rep.increment_ok
    assert rep.smallness_ok
    assert rep.b_increment_w1q is not None
    assert rep.b_increment_w1q <= eps       # the drift-regularity smallness
    assert rep.div_b1_rel <= 1e-9


def test_quad_source_frequency_exact_cases():
    # f = (S + A sin(2 pi m x_1), 0, 0) with S - A above the cutoff: chi_1 = 1,
    # chi_2 = chi_3 = 0, ||f||_1 = S, d_1 f_1 = 2 pi m A cos(2 pi m x_1), so
    # nu = m A mean|cos(2 pi m x_1)| / S, i.e. 2 m A / (pi S) up to the
    # grid's quadrature of |cos|
    g = TorusGrid(3, 32)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=2.0)
    S, A = 10.0, 3.0
    params = StepParams(delta=1.0, lam=1, mu=7.0, mode="W1R", r=1.1)
    assert S - A >= params.delta / (2 * g.dim)
    for m in (1, 3, 5):
        f1 = ScalarField.from_function(
            g, lambda x, y, z: S + A * np.sin(2 * np.pi * m * x))
        t = IterateTriple(b=VectorField.zero(g), u=ScalarField.zero(g),
                          f=VectorField.from_components(
                              (f1, ScalarField.zero(g), ScalarField.zero(g))))
        _, rep = assemble_step(t, params, fam)
        quadrature = float(np.abs(np.cos(2 * np.pi * m * g.x1)).mean())
        assert rep.quad_source_freq == pytest.approx(m * A * quadrature / S, rel=1e-12)
        assert rep.quad_source_freq == pytest.approx(2 * m * A / (math.pi * S), rel=5e-3)


def test_quad_source_frequency_vanishes_on_cascade_seed():
    # the seed's flux bumps are constant along their own axes; at this flux
    # amplitude the cutoff also sits above |grad u0|, so nothing else
    # survives it and the quadratic source has no frequency at all
    g = TorusGrid(3, 64)
    t0 = cascade_seed(g, u_amp=0.01, drift_lp=500.0, flux_amp=16384.0, p=1.5)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=4.0)
    params = StepParams(delta=t0.f_l1 / 32, lam=1, mu=7.0, mode="W1R", r=1.1)
    _, rep = assemble_step(t0, params, fam)
    assert rep.quad_source_freq <= 1e-12
    assert rep.g_parts["quad"] <= 1e-12 * rep.f0_l1


def test_grid_lambda_max():
    # n / lambda must resolve mu = 2d + 1 at the resolution factor
    assert grid_lambda_max(224, 3, 8.0) == 4      # 224 / 4 = 56 = 8 * 7
    assert grid_lambda_max(64, 3, 4.0) == 2       # 64 / 2 = 32 >= 28 > 16
    assert grid_lambda_max(96, 3, 4.0) == 3       # 96 / 3 = 32; 4 gives 24 < 28
    assert grid_lambda_max(32, 3, 8.0) == 0       # no family fits at all


def test_step_mode_validation():
    g = TorusGrid(3, 32)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=2.0)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=64.0)
    with pytest.raises(ValueError):
        assemble_step(t0, StepParams(delta=1.0, lam=1, mu=7.0, mode="W1R"), fam)
    with pytest.raises(ValueError):
        StepParams(delta=1.0, lam=0, mu=7.0)
    with pytest.raises(ValueError):
        StepParams(delta=-1.0, lam=1, mu=7.0)


# ---------------------------------------------------------------------------
# parameter search

def test_select_parameters_trivial_budget():
    g = TorusGrid(3, 64)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0)
    _, rep = select_parameters(t0, 10 * t0.f_l1, mode="W1R", r=1.1, p=1.5)
    params = rep.params
    assert params.lam == 1
    assert params.mu == 7.0                      # smallest admissible rung
    assert params.delta == pytest.approx(t0.f_l1 / 2)


def test_select_parameters_end_to_end():
    g = TorusGrid(3, 64)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0)
    eps = 0.25 * t0.f_l1
    _, rep = select_parameters(t0, eps, mode="W1R", r=1.1, p=1.5)
    assert rep.increment_ok and rep.smallness_ok


def test_select_parameters_budget_exhausted():
    g = TorusGrid(3, 32)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0)
    with pytest.raises(BudgetExhausted) as exc:
        select_parameters(t0, 1e-12, mode="W1R", r=1.1, p=1.5,
                          resolution_factor=4.0)
    assert exc.value.achieved > 1e-12
    t1, rep = exc.value.best_step
    assert rep.smallness_lhs == exc.value.achieved
    assert t1.grid == t0.grid


# ---------------------------------------------------------------------------
# seeds and the iteration

def test_cascade_seed_geometry():
    g = TorusGrid(3, 64)
    t0 = cascade_seed(g, u_amp=0.01, drift_lp=500.0, flux_amp=2048.0, p=1.5)
    assert t0.check_structure()["ok"]
    # drift support and profile support are exactly disjoint
    assert np.all(t0.b[2].values * t0.u.values == 0.0)
    assert sampled_residual(t0) <= 1e-12
    assert norm(t0.b, p=1.5) == pytest.approx(500.0, rel=1e-12)


def test_shifted_cosine_seed_structure():
    g = TorusGrid(3, 32)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=64.0)
    assert t0.check_structure()["ok"]
    assert abs(t0.u.mean) <= 1e-14
    assert sampled_residual(t0) <= 1e-12


def test_iteration_single_step_passes_surrogates():
    g = TorusGrid(3, 64)
    t0 = cascade_seed(g, u_amp=0.01, drift_lp=500.0, flux_amp=2048.0, p=1.5)
    _, conv = run_iteration(
        t0, eps=0.1 * norm(t0.b, p=1.5), K=1, mode="W1R", p=1.5, r=1.1,
        resolution_factor=4.0, strict=False,
        lam_schedule=[1], mu_schedule=[7.0])
    assert conv.assertions["f_decrease"]
    assert conv.assertions["drift_distance"]
    assert conv.assertions["u_mode_lower_bound"]
    assert conv.assertions["structure_each_step"]
    assert conv.f_history[1] <= conv.f_history[0] / 4


def test_iteration_best_effort_records_shortfall():
    # two steps on a small grid: the second step's quadratic source
    # chi_j^2 f_1 carries the first step's pipes (frequency ~18), so the
    # fourfold law asks for lambda ~72 while 64^3 admits lambda <= 2; the
    # quadratic and linear parts then dominate the new flux.  Best-effort
    # mode must complete and record the failed law instead of raising
    g = TorusGrid(3, 64)
    t0 = cascade_seed(g, u_amp=0.01, drift_lp=500.0, flux_amp=2048.0, p=1.5)
    _, conv = run_iteration(
        t0, eps=0.1 * norm(t0.b, p=1.5), K=2, mode="W1R", p=1.5, r=1.1,
        resolution_factor=4.0, strict=False,
        lam_schedule=[1, 2], mu_schedule=[7.0, 7.0])
    assert conv.assertions["completed_all_steps"]
    assert not conv.assertions["f_decrease"]
    assert conv.f_history[2] > conv.f_history[1] / 4
    step2 = conv.steps[1]
    assert step2.lam_grid_max == 2
    assert step2.params.lam < step2.lam_needed


def test_iteration_releases_the_seed(monkeypatch):
    # the iteration keeps only the seed's drift: handed the only reference
    # to the seed, it frees the seed's flux (and u0) once step 1 has
    # replaced the iterate, so step 2 runs without them
    g = TorusGrid(3, 32)
    box = [shifted_cosine_seed(g, u_amp=0.5, flux_shift=64.0)]
    seed_flux = weakref.ref(box[0].f[0])
    alive = []
    real_step = convexint.assemble_step

    def spy(*args, **kwargs):
        alive.append(seed_flux() is not None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(convexint, "assemble_step", spy)
    run_iteration(box.pop(), eps=1.0, K=2, mode="W1R", p=1.5, r=1.1,
                  resolution_factor=4.0, strict=False,
                  lam_schedule=[1, 1], mu_schedule=[7.0, 7.0])
    assert alive == [True, False]


def test_iteration_strict_raises_on_exhaustion():
    g = TorusGrid(3, 32)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=512.0)
    with pytest.raises(BudgetExhausted):
        run_iteration(t0, eps=1e-12, K=1, mode="W1R", p=1.5, r=1.1,
                      resolution_factor=4.0, strict=True)


def test_iteration_mode_window_validation():
    g = TorusGrid(3, 32)
    t0 = shifted_cosine_seed(g, u_amp=0.5, flux_shift=2048.0)
    with pytest.raises(ValueError):
        run_iteration(t0, eps=1.0, K=1, mode="H1", p=1.1)
