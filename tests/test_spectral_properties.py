"""Property tests of the spectral calculus on random band-limited fields,
d in {2, 3, 4} and n in {8, 16}."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mikado_forge.driftdiff import SolveConfig, _root_weight, _split_system, solve
from mikado_forge.oscillation import antidivergence
from mikado_forge.torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _antidivergence_values,
    _irfftn,
    _divergence_coeffs,
    _fft_of,
    _grad_values,
    _lp_of_values,
    _mode_norm,
    _parseval_sum,
    _split_symbol,
    divergence,
    gradient,
    grad_magnitude,
    norm,
    random_scalar,
    random_solenoidal,
    relative_divergence,
)

PROPERTY_SETTINGS = settings(deadline=None, max_examples=50, database=None)


@st.composite
def band_limited(draw):
    """(grid, bmax, rng): a grid and the band of the random fields on it."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from([8, 16]))
    bmax = draw(st.integers(1, n // 2 - 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return TorusGrid(d, n), bmax, np.random.default_rng(seed)


def _reference_relative_divergence(v: VectorField) -> float:
    # grid-quadrature form: ||div v||_2 over the L2 norm of the pointwise
    # Frobenius gradient magnitude
    return norm(divergence(v), p=2) / float(np.sqrt(np.mean(grad_magnitude(v) ** 2)))


@PROPERTY_SETTINGS
@given(band_limited())
def test_relative_divergence_of_generic_fields(case):
    grid, bmax, rng = case
    v = VectorField.from_components(
        [random_scalar(grid, bmax, rng, unit_l2=False) for _ in range(grid.dim)])
    ref = _reference_relative_divergence(v)
    assert ref > 1e-6
    assert abs(relative_divergence(v) - ref) <= 1e-12 * ref


@PROPERTY_SETTINGS
@given(band_limited())
def test_relative_divergence_of_solenoidal_fields(case):
    # both forms sit at roundoff here; relative_divergence is already
    # scaled by the H1 seminorm, so the comparison is absolute
    grid, bmax, rng = case
    v = random_solenoidal(grid, bmax, rng)
    ref = _reference_relative_divergence(v)
    got = relative_divergence(v)
    assert ref <= 1e-12 and got <= 1e-12
    assert abs(got - ref) <= 1e-12


@PROPERTY_SETTINGS
@given(band_limited())
def test_antidivergence_is_a_right_inverse_of_divergence(case):
    grid, bmax, rng = case
    # bmax <= n/2 - 1 keeps h off the unpaired Nyquist modes, which lie
    # outside the range of the divergence
    h = random_scalar(grid, bmax, rng)
    back = divergence(antidivergence(h))
    assert norm(back - h, p=2) <= 1e-12 * norm(h, p=2)


# The array-level kernels behind the field operators (the paths convexint
# takes on large grids) agree with their public wrappers.

def _max_rel(got, ref) -> float:
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))


@PROPERTY_SETTINGS
@given(band_limited())
def test_antidivergence_kernel_matches_wrapper(case):
    grid, bmax, rng = case
    h = random_scalar(grid, bmax, rng)
    kernel = _antidivergence_values(grid, _fft_of(h))
    wrapper = antidivergence(h)
    for ax in range(grid.dim):
        assert _max_rel(kernel[ax], wrapper[ax].values) <= 1e-13


@PROPERTY_SETTINGS
@given(band_limited())
def test_divergence_kernel_matches_wrapper(case):
    grid, bmax, rng = case
    comps = [random_scalar(grid, bmax, rng, unit_l2=False).values
             for _ in range(grid.dim)]
    kernel = _divergence_coeffs(grid, comps)
    wrapper = divergence(VectorField.from_arrays(grid, comps)).coeffs
    assert _max_rel(kernel, wrapper) <= 1e-13


@PROPERTY_SETTINGS
@given(band_limited())
def test_gradient_kernel_matches_wrapper(case):
    grid, bmax, rng = case
    f = random_scalar(grid, bmax, rng)
    kernel = _grad_values(grid, _fft_of(f))
    wrapper = gradient(f)
    for ax in range(grid.dim):
        assert _max_rel(kernel[ax], wrapper[ax].values) <= 1e-13


@PROPERTY_SETTINGS
@given(band_limited())
def test_parseval_sum_counts_each_conjugate_pair_once_per_member(case):
    # white noise fills the k_last = 0 and Nyquist columns, which are
    # their own partners, as well as the paired columns between them
    grid, _, rng = case
    v = _white_noise(grid, rng)
    quad = float(np.mean(v ** 2))
    assert abs(_parseval_sum(_fft_of(v)) - quad) <= 1e-12 * quad
    # weighted by the div(grad .) symbol: the squared H1 seminorm
    grad_sq = float(np.mean(grad_magnitude(ScalarField(grid, v)) ** 2))
    k2 = grid.k_squared_rows(slice(None), diff=True)
    weighted = 4 * np.pi ** 2 * _parseval_sum(_fft_of(v), k2)
    assert abs(weighted - grad_sq) <= 1e-12 * grad_sq


# The Sobolev norms are put together in one place, _mode_norm, from the
# values and the pointwise gradient size; the gradient energy is the squared
# L2 norm of that size.  The references are the formulas they replaced.

def _lp(v, p):
    return float(np.mean(np.abs(v) ** p) ** (1.0 / p))


@PROPERTY_SETTINGS
@given(band_limited(), st.sampled_from([1.0, 1.1, 1.5, 2.0, 3.0]), st.booleans())
def test_mode_norm_matches_the_w1p_and_h1_formulas(case, r, vector):
    grid, bmax, rng = case
    if vector:
        f = VectorField.from_components(
            [random_scalar(grid, bmax, rng) for _ in range(grid.dim)])
        values = f.magnitude().values
    else:
        f = random_scalar(grid, bmax, rng)
        values = f.values
    grad_mag = grad_magnitude(f)
    w1p = _lp(values, r) + _lp(grad_mag, r)
    h1 = float(np.hypot(_lp(values, 2.0), _lp(grad_mag, 2.0)))
    assert abs(_mode_norm("W1R", r, values, grad_mag) - w1p) <= 1e-12 * w1p
    assert abs(_mode_norm("H1", None, values, grad_mag) - h1) <= 1e-12 * h1


@PROPERTY_SETTINGS
@given(band_limited(), st.floats(-0.5, 0.5))
def test_gradient_energy_is_h1_squared_minus_l2_squared(case, shift):
    # a unit, mean-free field plus a constant, as gns_constant draws them
    grid, bmax, rng = case
    u = random_scalar(grid, bmax, rng) + shift
    grad_mag = grad_magnitude(u)
    l2 = _lp(u.values, 2.0)
    old = float(np.hypot(l2, _lp(grad_mag, 2.0))) ** 2 - l2 ** 2
    direct = _lp_of_values(grad_mag, 2.0) ** 2
    assert abs(direct - old) <= 1e-12 * direct


# The split-preconditioned drift-diffusion system B = P A P of
# driftdiff.solve, P with symbol 1/(2 pi |k|) off the corner modes.

def _white_noise(grid, rng):
    # every mode present, the Nyquist corners included
    return rng.standard_normal(grid.shape)


def _to_krylov(grid, y):
    # the solver's Krylov vector of grid values y: sqrt(w) F(y) as float64
    return (_root_weight(grid) * _fft_of(y)).view(np.float64).ravel()


def _half(grid, z):
    return z.view(np.complex128).reshape(grid.half_shape)


@PROPERTY_SETTINGS
@given(band_limited())
def test_split_symbol_vanishes_exactly_on_the_corner_modes(case):
    grid, _, rng = case
    k2 = grid.k_squared_rows(slice(None), diff=True)
    p = _split_symbol(grid)
    corner = k2 == 0.0
    assert np.array_equal(p == 0.0, corner)
    assert np.allclose(p[~corner] * 2 * np.pi * np.sqrt(k2[~corner]), 1.0,
                       rtol=1e-15, atol=0.0)
    _, p_rhs, _, p_values = _split_system(VectorField.zero(grid), grid)
    r = _white_noise(grid, rng)
    assert not _half(grid, p_rhs(r))[corner].any()
    ph = _fft_of(p_values(_to_krylov(grid, r)))
    assert np.abs(ph[corner]).max() <= 1e-12 * np.abs(ph).max()


@PROPERTY_SETTINGS
@given(band_limited())
def test_split_operator_without_drift_projects_off_the_corner_modes(case):
    grid, _, rng = case
    _, _, apply_b, _ = _split_system(VectorField.zero(grid), grid)
    y = _white_noise(grid, rng)
    k2 = grid.k_squared_rows(slice(None), diff=True)
    yh = _fft_of(y)
    yh[k2 == 0.0] = 0.0
    projected = _irfftn(yh, grid.shape)
    z = _to_krylov(grid, y)
    got = apply_b(z)
    # without a drift B is exactly keep z, a projection
    assert np.array_equal(got, ((k2 > 0.0) * _half(grid, z)).view(np.float64).ravel())
    assert np.array_equal(apply_b(got), got)
    back = _irfftn(_half(grid, got) / _root_weight(grid), grid.shape)
    assert _max_rel(back, projected) <= 1e-13


@PROPERTY_SETTINGS
@given(band_limited())
def test_krylov_inner_product_is_the_grid_mean(case):
    # Parseval: the Euclidean product of two Krylov vectors is the grid
    # mean of the product of their fields, and p_rhs maps r to P r
    grid, _, rng = case
    y, y2 = _white_noise(grid, rng), _white_noise(grid, rng)
    for ref, got in (
        (np.mean(y * y2), _to_krylov(grid, y) @ _to_krylov(grid, y2)),
        (np.mean(y * y), _to_krylov(grid, y) @ _to_krylov(grid, y)),
    ):
        assert abs(got - ref) <= 1e-14 * np.sqrt(np.mean(y * y) * np.mean(y2 * y2))
    _, p_rhs, _, _ = _split_system(VectorField.zero(grid), grid)
    py, py2 = (_irfftn(_split_symbol(grid) * _fft_of(v), grid.shape) for v in (y, y2))
    ref = np.mean(py * py2)
    assert abs(p_rhs(y) @ p_rhs(y2) - ref) <= 1e-14 * np.sqrt(np.mean(py * py) * np.mean(py2 * py2))


@PROPERTY_SETTINGS
@given(band_limited(), st.sampled_from([0.5, 3.0, 10.0]))
def test_solve_meets_the_true_residual_tolerance(case, scale):
    grid, bmax, rng = case
    b = random_solenoidal(grid, bmax, rng) * scale
    f = random_scalar(grid, bmax, rng)
    cfg = SolveConfig(tol=1e-10)
    u = solve(b, f, cfg)
    residual = -divergence(gradient(u) + b * u) - f
    assert norm(residual, p=2) <= cfg.tol * norm(f, p=2)
