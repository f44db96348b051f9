"""The transform kernels of `torus` against the formulas they replace, bit
for bit: `_irfftn` against `scipy.fft.irfftn`, and the pruned de-aliased
product against the 3n/2 zero-padded product it computes."""

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from mikado_forge import torus
from mikado_forge.torus import (
    _dealiased_product_divergence,
    _fft_of,
    _irfftn,
    derivative,
    grad_magnitude,
    gradient,
    make_grid,
    random_scalar,
)


@pytest.fixture
def workers():
    yield torus.set_fft_workers
    torus.set_fft_workers(1)


# (2731, 2): a size whose 1/N in double differs in the last bit from
# pocketfft's 1/N rounded from long double
SHAPES = ([(n, n) for n in (6, 12, 48, 64, 256)]
          + [(n,) * 3 for n in (6, 12, 32, 48)]
          + [(n,) * 4 for n in (6, 12, 16)]
          + [(12, 48), (48, 6, 12), (2731, 2)])


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_irfftn_is_scipy_irfftn_bit_for_bit(shape, n_workers, workers):
    workers(n_workers)
    rng = np.random.default_rng(sum(shape) + n_workers)
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    a = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    ref = sfft.irfftn(a, s=shape)
    got = _irfftn(a.copy(), shape)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def _padded_product_divergence(grid, b_coeffs, u_hat):
    # the zero-padded formula: b and u interpolated on the 3n/2 grid by
    # padding their band, multiplied there, transformed back and cut to
    # the band, then differentiated
    n, d = grid.n, grid.dim
    m = (3 * n) // 2
    npts_m = m ** d
    kcap = n // 2 - 1
    full_n = list(range(kcap + 1)) + list(range(n - kcap, n))
    full_m = list(range(kcap + 1)) + list(range(m - kcap, m))
    src = np.ix_(*([full_n] * (d - 1) + [list(range(kcap + 1))]))
    dst = np.ix_(*([full_m] * (d - 1) + [list(range(kcap + 1))]))
    half_m = (m,) * (d - 1) + (m // 2 + 1,)

    def pad_values(c):
        cm = np.zeros(half_m, dtype=np.complex128)
        cm[dst] = c[src]
        cm *= npts_m
        return sfft.irfftn(cm, s=(m,) * d)

    u_fine = pad_values(u_hat)
    e_hat = np.zeros(grid.half_shape, dtype=np.complex128)
    for ax, c in enumerate(b_coeffs):
        b_fine = pad_values(c)
        b_fine *= u_fine
        ph = sfft.rfftn(b_fine)
        block = np.zeros(grid.half_shape, dtype=np.complex128)
        block[src] = ph[dst]
        np.multiply((2j * np.pi / npts_m) * grid.axis_k(ax, diff=True), block, out=block)
        e_hat += block
    return e_hat


@st.composite
def product_case(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from({2: [8, 14, 30, 64], 3: [8, 12, 24], 4: [8, 12]}[d]))
    b_band = draw(st.integers(1, n // 2 - 1))
    u_band = draw(st.integers(1, n // 2 - 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_workers = draw(st.sampled_from([1, 2]))
    return make_grid(d, n), b_band, u_band, np.random.default_rng(seed), n_workers


@settings(deadline=None, max_examples=40, database=None)
@given(product_case())
def test_pruned_product_is_the_padded_product(case):
    grid, b_band, u_band, rng, n_workers = case
    u_hat = _fft_of(random_scalar(grid, u_band, rng))
    b_hat = [_fft_of(random_scalar(grid, b_band, rng)) for _ in range(grid.dim)]
    kept = [c.copy() for c in [u_hat] + b_hat]
    ref = _padded_product_divergence(grid, b_hat, u_hat)
    torus.set_fft_workers(n_workers)
    try:
        got = _dealiased_product_divergence(grid, iter(b_hat), u_hat)
    finally:
        torus.set_fft_workers(1)
    assert np.array_equal(got, ref)
    # the inputs are read, never written
    assert all(np.array_equal(a, k) for a, k in zip([u_hat] + b_hat, kept))


def test_operators_leave_the_coefficient_cache_alone():
    # _irfftn consumes its input; every operator hands it a temporary, so
    # no cached coefficient array is overwritten
    g = make_grid(3, 16)
    f = random_scalar(g, 5, np.random.default_rng(0))
    kept = f.coeffs.copy()
    derivative(f, 1)
    gradient(f)
    grad_magnitude(f)
    assert np.array_equal(f.coeffs, kept)
    # nor is the cache of an operator's own output, which holds the
    # coefficients of its values
    df = derivative(f, 0)
    assert np.abs(df.coeffs - _fft_of(df.values)).max() <= 1e-12 * np.abs(df.coeffs).max()
    kept_df = df.coeffs.copy()
    gradient(df)
    grad_magnitude(df)
    assert np.array_equal(df.coeffs, kept_df)
