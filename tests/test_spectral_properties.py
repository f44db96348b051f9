"""Property tests of the spectral calculus on random band-limited fields,
d in {2, 3, 4} and n in {8, 16}."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mikado_forge.oscillation import antidivergence
from mikado_forge.torus import (
    VectorField,
    _antidivergence_values,
    _divergence_coeffs,
    _fft_of,
    _grad_values,
    divergence,
    gradient,
    grad_magnitude,
    make_grid,
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
    return make_grid(d, n), bmax, np.random.default_rng(seed)


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
    kernel = _divergence_coeffs(grid, map(_fft_of, comps))
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
