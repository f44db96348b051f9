"""The transform kernels of `torus` against the formulas they replace, bit
for bit: the two-pass `_irfftn` and `_fft_of` against `scipy.fft.irfftn`
and `rfftn` with norm="forward", and the operators built on them, and the
pruned de-aliased product against the 3n/2 zero-padded product it
computes; and the worker pool's slab helpers against the serial loop.
scipy's pocketfft is the reference: `torus` runs numpy's 1-d transforms,
which equal scipy's bit for bit at every stage length its grids reach."""

import math
import os
import sys
import threading
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from mikado_forge import torus
from mikado_forge.driftdiff import _root_weight, _split_system
from mikado_forge.torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _dealiased_product_divergence,
    _divergence_coeffs,
    _fft_of,
    _ik,
    _inverse_div_grad_coeffs,
    _irfftn,
    _laplacian_symbol,
    _partial_values,
    _parseval_sum,
    _scratch,
    _slab_map,
    _slabs,
    _slabwise,
    _split_symbol,
    axis_derivative_norm,
    divergence,
    grad_magnitude,
    gradient,
    leray_project,
    lowpass,
    random_scalar,
    relative_divergence,
)


@pytest.fixture
def workers():
    # later tests run at the default worker count again
    saved = torus._FFT_WORKERS
    yield torus.set_fft_workers
    torus.set_fft_workers(saved)


# The last eight shapes lie just below and at or above the pool gate (2^18
# elements): one slab per pass below it, slabs on the pool with 2 workers
# above it.  At 128^3 a slab holds 4 rows (1/32 of the array); at 130 x
# 128^2 it holds 3 rows of axis 1 and 4 of axis 0, so the last slab is
# short on both passes.
SHAPES = ([(n, n) for n in (6, 12, 48, 64, 256)]
          + [(n,) * 3 for n in (6, 12, 32, 48)]
          + [(n,) * 4 for n in (6, 12, 16)]
          + [(12, 48), (48, 6, 12), (2731, 2)]
          + [(511, 512), (512, 512), (63, 64, 64), (64, 64, 64), (64, 64, 66),
             (2731, 96), (128, 128, 128), (130, 128, 128)])


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_irfftn_is_scipy_irfftn_bit_for_bit(shape, n_workers, workers):
    workers(n_workers)
    rng = np.random.default_rng(sum(shape) + n_workers)
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    a = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    ref = sfft.irfftn(a, s=shape, norm="forward")
    got = _irfftn(a.copy(), shape)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_fft_of_is_scipy_rfftn_bit_for_bit(shape, n_workers, workers):
    # (2731, 2): a size whose 1/N in double differs in the last bit from
    # pocketfft's 1/N rounded from long double, which the staged forward
    # transform applies in its first stage, as pocketfft does; the field
    # of -0 checks that it keeps the signs of pocketfft's zeros too
    workers(n_workers)
    x = np.random.default_rng(sum(shape) + n_workers).standard_normal(shape)
    for v in (x, np.full(shape, -0.0)):
        assert _fft_of(v).tobytes() == sfft.rfftn(v, norm="forward").tobytes()


# every 1-d transform length the grids can reach: n, and 3n/2 on the
# de-aliased product's padded axes, for even n from 8 to 512
STAGE_LENGTHS = sorted({m for n in range(8, 513, 2) for m in (n, 3 * n // 2)})


def test_numpy_stages_are_scipy_stages_bit_for_bit():
    # the premise of the spectral layer: numpy's four 1-d transforms, with
    # the norms `torus` gives them, are scipy's pocketfft bit for bit, along
    # a strided leading axis and a contiguous last one
    rng = np.random.default_rng(0)
    for m in STAGE_LENGTHS:
        x = rng.standard_normal((m, 3))
        c = x + 1j * rng.standard_normal((m, 3))
        for ax, layout in ((0, np.asarray), (-1, lambda a: np.ascontiguousarray(a.T))):
            xs, cs, hs = layout(x), layout(c), layout(c[: m // 2 + 1])
            pairs = [(np.fft.rfft(xs, axis=ax), sfft.rfft(xs, axis=ax)),
                     (np.fft.irfft(hs, n=m, axis=ax, norm="forward"),
                      sfft.irfft(hs, n=m, axis=ax, norm="forward")),
                     (np.fft.fft(cs, axis=ax), sfft.fft(cs, axis=ax)),
                     (np.fft.ifft(cs, axis=ax, norm="forward"),
                      sfft.ifft(cs, axis=ax, norm="forward"))]
            for got, ref in pairs:
                assert got.tobytes() == ref.tobytes(), (m, ax)


# the stages `torus` runs, and the n-dimensional calls it must not make
TRANSFORM_CALLS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("n, count", [(64, 48), (128, 96)])
def test_transform_slabs_make_few_scipy_calls(n, count, n_workers, workers, monkeypatch):
    # one numpy.fft call per slab and stage (the name predates the move
    # from scipy.fft): 16 slabs of 4 rows at 64^3 (a quarter of a pool
    # task), and at 128^3 32 slabs of 4 rows (1/32 of the array), not 128
    # slabs of one row (384 calls)
    workers(n_workers)
    calls = []
    for name in TRANSFORM_CALLS:
        fn = getattr(torus.nfft, name)
        monkeypatch.setattr(torus.nfft, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    x = np.random.default_rng(n).standard_normal((n,) * 3)
    c = _fft_of(x)
    forward = len(calls)
    _irfftn(c, x.shape)
    assert forward == len(calls) - forward == count


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("grid", [TorusGrid(2, 48), TorusGrid(3, 12), TorusGrid(3, 64),
                                  TorusGrid(2, 514)], ids=lambda g: f"{g.dim}d{g.n}")
def test_from_coeffs_is_the_plain_inverse_sum(grid, n_workers, workers):
    # the inverse carries no normalisation: coefficients c give the values
    # sum_k c_k exp(2 pi i k.x), below and above the pool gate
    workers(n_workers)
    rng = np.random.default_rng(grid.n + n_workers)
    c = rng.standard_normal(grid.half_shape) + 1j * rng.standard_normal(grid.half_shape)
    kept = c.copy()
    f = ScalarField.from_coeffs(grid, c)
    assert f.values.tobytes() == sfft.irfftn(c, s=grid.shape, norm="forward").tobytes()
    assert np.array_equal(c, kept)


def _padded_product_divergence(grid, b_coeffs, u_hat):
    # the zero-padded formula: b and u interpolated on the 3n/2 grid by
    # padding their band, multiplied there, transformed back and cut to
    # the band, then differentiated
    n, d = grid.n, grid.dim
    m = (3 * n) // 2
    kcap = n // 2 - 1
    full_n = list(range(kcap + 1)) + list(range(n - kcap, n))
    full_m = list(range(kcap + 1)) + list(range(m - kcap, m))
    src = np.ix_(*([full_n] * (d - 1) + [list(range(kcap + 1))]))
    dst = np.ix_(*([full_m] * (d - 1) + [list(range(kcap + 1))]))
    half_m = (m,) * (d - 1) + (m // 2 + 1,)

    def pad_values(c):
        cm = np.zeros(half_m, dtype=np.complex128)
        cm[dst] = c[src]
        return sfft.irfftn(cm, s=(m,) * d, norm="forward")

    u_fine = pad_values(u_hat)
    e_hat = np.zeros(grid.half_shape, dtype=np.complex128)
    for ax, c in enumerate(b_coeffs):
        b_fine = pad_values(c)
        b_fine *= u_fine
        ph = sfft.rfftn(b_fine)
        block = np.zeros(grid.half_shape, dtype=np.complex128)
        block[src] = ph[dst]
        np.multiply((2j * np.pi / m ** d) * grid.axis_k(ax, diff=True), block, out=block)
        e_hat += block
    return e_hat


@st.composite
def product_case(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from({2: [8, 14, 30, 64], 3: [8, 12, 24], 4: [8, 12]}[d]))
    b_band = draw(st.integers(1, n // 2 - 1))
    u_band = draw(st.integers(1, n // 2 - 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    # rows per slab of the first leading-axis stage on the pool, split along
    # axis 1 over its n/2 band rows: never a divisor, so the last slab is
    # short
    rows = draw(st.sampled_from([2, 3, 4, 5]).filter(lambda r: r < n // 2 and (n // 2) % r))
    return TorusGrid(d, n), b_band, u_band, np.random.default_rng(seed), rows


@settings(deadline=None, max_examples=40, database=None)
@given(product_case())
def test_pruned_product_is_the_padded_product(case):
    # on the calling thread, and on the pool at 2 workers with uneven slabs
    grid, b_band, u_band, rng, rows = case
    n, d = grid.n, grid.dim
    u_hat = _fft_of(random_scalar(grid, u_band, rng))
    b_hat = [_fft_of(random_scalar(grid, b_band, rng)) for _ in range(d)]
    kept = [c.copy() for c in [u_hat] + b_hat]
    ref = _padded_product_divergence(grid, b_hat, u_hat)
    # u's spectrum is handed over in a list, which the product empties
    held = [u_hat]
    serial = _dealiased_product_divergence(grid, iter(b_hat), held)
    assert held == []
    # a row of that stage's slab holds 3n/2 (n/2)^(d-2) elements
    with _pool_on_small_arrays(2, 4 * rows * (3 * n // 2) * (n // 2) ** (d - 2)), \
            _slab_rows() as seen:
        pooled = _dealiased_product_divergence(grid, iter(b_hat), [u_hat])
    assert (n // 2, rows) in seen
    assert serial.tobytes() == ref.tobytes()
    assert pooled.tobytes() == ref.tobytes()
    # the inputs are read, never written
    assert all(np.array_equal(a, k) for a, k in zip([u_hat] + b_hat, kept))


def test_operators_leave_the_coefficient_cache_alone():
    # _irfftn consumes its input; every operator hands it a temporary, so
    # no cached coefficient array is overwritten
    g = TorusGrid(3, 16)
    f = random_scalar(g, 5, np.random.default_rng(0))
    kept = f.coeffs.copy()
    gradient(f)
    grad_magnitude(f)
    assert np.array_equal(f.coeffs, kept)
    # nor is the cache of an operator's own output, which holds the
    # coefficients of its values
    df = gradient(f)[0]
    assert np.abs(df.coeffs - _fft_of(df.values)).max() <= 1e-12 * np.abs(df.coeffs).max()
    kept_df = df.coeffs.copy()
    gradient(df)
    grad_magnitude(df)
    assert np.array_equal(df.coeffs, kept_df)


@contextmanager
def _pool_on_small_arrays(n_workers, task_elems):
    # the pool for arrays of any size, with n_workers threads even on a
    # machine with fewer cores
    saved = (torus._POOL_GATE, torus._TASK_ELEMS, torus._FFT_WORKERS, torus._usable_cores)
    torus._usable_cores = lambda: max(n_workers, saved[3]())
    torus._POOL_GATE, torus._TASK_ELEMS = 1, task_elems
    torus.set_fft_workers(n_workers)
    try:
        yield
    finally:
        torus._POOL_GATE, torus._TASK_ELEMS = saved[:2]
        torus.set_fft_workers(saved[2])
        torus._usable_cores = saved[3]


@contextmanager
def _slab_rows():
    # the (extent, rows per slab) of every `_slab_map` call made inside
    seen, real = [], torus._slab_map

    def spy(fn, n0, rows, size):
        seen.append((n0, rows))
        return real(fn, n0, rows, size)

    torus._slab_map = spy
    try:
        yield seen
    finally:
        torus._slab_map = real


def _kernel(out, a, b):
    # pointwise, with a power, a sign, a broadcast operand and the scratch
    np.abs(a, out=out)
    out **= 1.5
    np.copysign(out, a, out=out)
    out *= b
    out += np.square(a, out=_scratch(out))


@st.composite
def slab_case(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n0 = draw(st.integers(5, 23))
    rest = tuple(draw(st.lists(st.integers(2, 5), min_size=d - 1, max_size=d - 1)))
    rows = draw(st.integers(2, 4).filter(lambda r: n0 % r != 0))
    broadcast = draw(st.booleans())
    return (n0,) + rest, rows, broadcast, draw(st.sampled_from([2, 3])), draw(st.integers(0, 2 ** 32 - 1))


@settings(deadline=None, max_examples=40, database=None)
@given(slab_case())
def test_slab_helpers_are_the_serial_loop(case):
    shape, rows, broadcast, n_workers, seed = case
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    a[0, ...] = -0.0
    b = rng.standard_normal((1,) + shape[1:] if broadcast else shape)
    ref = np.empty(shape)
    _kernel(ref, a, b)
    row = a.size // shape[0]
    serial = [float(np.square(a[s]).sum()) for s in
              (slice(i, i + rows) for i in range(0, shape[0], rows))]
    # a task of 4 rows: a slab of `_slabs` holds a quarter of it, the drawn
    # rows, by the lower clamp
    with _pool_on_small_arrays(n_workers, 4 * rows * row), _slab_rows() as seen:
        got = np.empty(shape)
        _slabwise(_kernel, got, a, b)
        mapped = _slab_map(lambda s: float(np.square(a[s]).sum()), shape[0], rows, a.size)
    # n0 is not a multiple of the rows per slab: the last slab is short
    assert seen == [(shape[0], rows)]
    assert got.tobytes() == ref.tobytes()
    assert mapped == serial


ABOVE_THE_GATE = [TorusGrid(3, 64), TorusGrid(4, 32)]


def test_slab_loops_match_serial_above_the_gate(workers):
    # the Parseval sum and the axis-derivative norm add their slabs up in
    # slab order, so the pool leaves both sums unchanged
    for g in ABOVE_THE_GATE:
        f = random_scalar(g, min(20, g.n // 2 - 1), np.random.default_rng(5))
        c = _fft_of(f)
        out = {}
        for n_workers in (1, 2):
            workers(n_workers)
            out[n_workers] = (_parseval_sum(c, g.k_squared_rows(slice(None), diff=True)),
                              [axis_derivative_norm(g, f.values, ax) for ax in range(g.dim)])
        assert out[1] == out[2], g


@pytest.mark.parametrize("g", ABOVE_THE_GATE, ids=lambda g: f"{g.dim}d{g.n}")
def test_every_slab_loop_takes_its_rows_from_slabs(g):
    # one slab rule: the pointwise kernels, the Parseval sum and the
    # axis-derivative norm cut their arrays as `_slabs` cuts an array of
    # the same shape and size (every axis of the grid has n points, so
    # the axis a loop runs along does not change its rows)
    def rule(shape, size):
        with _slab_rows() as seen:
            _slabs(lambda idx: None, shape, 0, size)
        return seen

    vals = np.random.default_rng(3).standard_normal(g.shape)
    c = _fft_of(vals)
    # 4 rows a slab at 64^3, one at 32^4; the 64^3 half spectrum lies below
    # the gate, one slab
    assert rule(g.shape, vals.size) == [(g.n, {64: 4, 32: 1}[g.n])]
    assert rule(c.shape, c.size) == [(g.n, {64: 64, 32: 1}[g.n])]
    with _slab_rows() as seen:
        _slabwise(lambda v: None, vals)
    assert seen == rule(g.shape, vals.size)
    with _slab_rows() as seen:
        _parseval_sum(c)
    assert seen == rule(c.shape, c.size)
    for ax in range(g.dim):
        with _slab_rows() as seen:
            axis_derivative_norm(g, vals, ax)
        assert seen == rule(g.shape, vals.size), ax


def test_worker_count_is_clamped_and_the_pool_starts_lazily(workers):
    workers(1)                       # stops any pool that is running
    threads = threading.active_count()
    workers(10 ** 9)
    assert torus._FFT_WORKERS == len(os.sched_getaffinity(0))
    workers(-3)
    assert torus._FFT_WORKERS == 1
    workers(10 ** 9)
    # setting the count starts no thread; the pool is created at first use
    assert torus._POOL is None
    assert threading.active_count() == threads


def test_slab_map_runs_each_slab_once_under_thread_switching():
    # more workers than cores and a short switch interval: every slab is
    # claimed by exactly one worker, and its result lands in its own place
    calls = []
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _pool_on_small_arrays(8, 1):
            got = _slab_map(lambda s: calls.append(s.start) or s.start, 997, 1, 997)
    finally:
        sys.setswitchinterval(saved)
    assert got == list(range(997))
    assert sorted(calls) == list(range(997))


@st.composite
def two_pass_case(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from({2: [8, 10, 14, 30], 3: [8, 10, 12], 4: [8, 10]}[d]))
    # elements of a transform slab (a quarter of the pool task, by the
    # lower clamp of `_slabs`): a pass over an axis of length L takes
    # elems L / n^d rows a slab, and every pass runs over axes of length n,
    # but for d = 2 the half spectrum's axis 1 (n//2 + 1 long).  The rows
    # are never a divisor of L, so every pass ends on a short slab
    size = n ** d
    lengths = (n,) if d > 2 else (n, n // 2 + 1)
    elems = draw(st.integers(2 * size // n, 8 * size // n).filter(
        lambda e: all(length % (e * length // size) for length in lengths)))
    n_workers = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return TorusGrid(d, n), elems, n_workers, np.random.default_rng(seed)


def _old_antidivergence(grid, coeffs):
    # the full-array formula the slab kernel replaces
    k2 = grid.k_squared_rows(slice(None), diff=True)
    zero = k2 == 0.0
    k2[zero] = 1.0
    phihat = coeffs / (-4.0 * np.pi ** 2 * k2)
    phihat[zero] = 0.0
    return phihat


@settings(deadline=None, max_examples=40, database=None)
@given(two_pass_case())
def test_two_pass_kernels_are_the_one_call_transforms(case):
    # the two-pass kernels, run on the pool for arrays of any size with
    # uneven slabs, against one scipy call each and the full-array
    # formulas of the operators they serve, byte for byte
    grid, elems, n_workers, rng = case
    d = grid.dim
    vals = [rng.standard_normal(grid.shape) for _ in range(d)]
    vals[0][0, ...] = -0.0
    a = rng.standard_normal(grid.half_shape) + 1j * rng.standard_normal(grid.half_shape)
    c = sfft.rfftn(vals[0], norm="forward")
    ref = {"irfftn": sfft.irfftn(a, s=grid.shape, norm="forward"), "rfftn": c,
           "div": sum(_ik(grid, ax) * sfft.rfftn(v, norm="forward")
                      for ax, v in enumerate(vals)),
           "antidiv": _old_antidivergence(grid, a)}
    for ax in range(d):
        ref[f"partial{ax}"] = sfft.irfftn(np.multiply(_ik(grid, ax), c), s=grid.shape,
                                          norm="forward")

    got = {}
    with _pool_on_small_arrays(n_workers, 4 * elems):
        with _slab_rows() as seen:
            got["irfftn"] = _irfftn(a.copy(), grid.shape)
            got["rfftn"] = _fft_of(vals[0])
        # two passes each, every one ending on a short slab
        assert len(seen) == 4
        assert all(rows < n0 and n0 % rows for n0, rows in seen), seen
        got["div"] = _divergence_coeffs(grid, vals)
        got["antidiv"] = _inverse_div_grad_coeffs(grid, a)
        in_place = a.copy()
        assert _inverse_div_grad_coeffs(grid, in_place, out=in_place) is in_place
        assert in_place.tobytes() == got["antidiv"].tobytes()
        for ax in range(d):
            got[f"partial{ax}"] = _partial_values(grid, c, ax)
        # the consumer gets every axis-0 row once, in slabs of the
        # uneven size
        slabs, streamed = [], np.full(grid.shape, np.nan)

        def consume(r, v):
            slabs.append((r.start, r.stop))
            streamed[r] = v

        assert _partial_values(grid, c, d - 1, consume) is None
    assert set(ref) == set(got)
    for key in ref:
        assert got[key].tobytes() == ref[key].tobytes(), key
    assert streamed.tobytes() == ref[f"partial{d - 1}"].tobytes()
    covered = sorted(i for start, stop in slabs for i in range(start, min(stop, grid.n)))
    assert covered == list(range(grid.n)) and len(slabs) > 1


def _produced_and_materialised(shape, rng):
    # the forward transform of a b, with b broadcast along one axis as the
    # step's pipe profiles are, from a producer and from the array, both
    # without and with acc += ik c; returns the four coefficient arrays
    # and the two accumulators
    d = len(shape)
    a = rng.standard_normal(shape)
    a[0, ...] = -0.0
    axis = int(rng.integers(d))
    b = np.broadcast_to(rng.standard_normal(shape[:axis] + (1,) + shape[axis + 1:]), shape)
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    ik = (2j * np.pi) * rng.standard_normal(
        tuple(half[ax] if ax == axis else 1 for ax in range(d)))
    acc0 = rng.standard_normal(half) + 1j * rng.standard_normal(half)

    def produce(idx, out):
        assert out.flags.c_contiguous and out.shape == a[idx].shape
        np.multiply(a[idx], b[idx], out=out)

    accs = [acc0.copy(), acc0.copy()]
    coeffs = [_fft_of(a * b), _fft_of(shape, produce=produce),
              _fft_of(a * b, accs[0], ik), _fft_of(shape, accs[1], ik, produce=produce)]
    return coeffs, accs


@st.composite
def producer_case(draw):
    grid, elems, _, rng = draw(two_pass_case())
    return grid, elems, draw(st.sampled_from([1, 2])), rng


@settings(deadline=None, max_examples=30, database=None)
@given(producer_case())
def test_produced_transform_is_the_transform_of_the_array(case):
    # the producer input of `_fft_of` against the materialised array, bit
    # for bit, in one slab a pass (below the gate) and in slabs of the
    # drawn uneven size, on the pool or one after another
    grid, elems, n_workers, rng = case
    for pooled in (False, True):
        with (_pool_on_small_arrays(n_workers, 4 * elems) if pooled else nullcontext()), \
                _slab_rows() as seen:
            (ref, got, ref_acc, got_acc), (acc_ref, acc_got) = \
                _produced_and_materialised(grid.shape, rng)
        assert got.tobytes() == ref.tobytes()
        assert got_acc.tobytes() == ref_acc.tobytes() == ref.tobytes()
        assert acc_got.tobytes() == acc_ref.tobytes()
        # two passes a transform; in slabs, every pass ends on a short slab
        assert len(seen) == 8
        assert not pooled or all(rows < n0 and n0 % rows for n0, rows in seen), seen


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("shape", [(48, 48, 48), (64, 64, 64), (130, 128, 128)],
                         ids=lambda s: "x".join(map(str, s)))
def test_produced_transform_at_the_pool_gate(shape, n_workers, workers):
    # below the gate, at it, and above it with a short last slab on both
    # passes (3 rows of axis 1 a slab at 130 x 128^2)
    workers(n_workers)
    (ref, got, ref_acc, got_acc), (acc_ref, acc_got) = \
        _produced_and_materialised(shape, np.random.default_rng(sum(shape) + n_workers))
    assert got.tobytes() == ref.tobytes() == ref_acc.tobytes() == got_acc.tobytes()
    assert acc_got.tobytes() == acc_ref.tobytes()


def _old_leray_project(grid, vals):
    # the per-axis formula the divergence sum replaces: P v = v - grad phi
    # with div grad phi = div v, from one transform per component
    c = [sfft.rfftn(v, norm="forward") for v in vals]
    div = np.zeros(grid.half_shape, dtype=np.complex128)
    for ax in range(grid.dim):
        div += _ik(grid, ax) * c[ax]
    phihat = _old_antidivergence(grid, div)
    return [sfft.irfftn(c[ax] - _ik(grid, ax) * phihat, s=grid.shape, norm="forward")
            for ax in range(grid.dim)]


def _old_split_maps(b, grid):
    # the solver's maps on grid values, with their own symbols and
    # Python's sum: B = P A P on values
    k2 = grid.k_squared_rows(slice(None), diff=True)
    with np.errstate(divide="ignore"):
        p = np.where(k2 > 0.0, 1.0 / (2.0 * np.pi * np.sqrt(k2)), 0.0)
    keep, lap = k2 > 0.0, 4.0 * np.pi ** 2 * k2
    minus_d = [-2j * np.pi * grid.axis_k(ax, diff=True) for ax in range(grid.dim)]
    bvals = [c.values for c in b.components]

    def fft(x):
        return sfft.rfftn(x, norm="forward")

    def ifft(c):
        return sfft.irfftn(c, s=grid.shape, norm="forward")

    def drift_hat(u):
        return sum(d_j * fft(b_j * u) for d_j, b_j in zip(minus_d, bvals))

    def apply_a(u):
        return ifft(lap * fft(u) + drift_hat(u))

    def apply_b(y):
        yh = fft(y.reshape(grid.shape))
        return ifft(keep * yh + p * drift_hat(ifft(p * yh))).ravel()

    return apply_a, apply_b


def _krylov_split_maps(b, grid):
    # the solver's maps on the half spectrum scaled by the square root of
    # the Parseval weight, written out with scipy and Python's sum
    k2 = grid.k_squared_rows(slice(None), diff=True)
    with np.errstate(divide="ignore"):
        p = np.where(k2 > 0.0, 1.0 / (2.0 * np.pi * np.sqrt(k2)), 0.0)
    sw = np.ones(grid.n // 2 + 1)
    sw[1:-1] = math.sqrt(2.0)
    keep, p_up, p_down = k2 > 0.0, p * sw, p / sw
    bvals = [c.values for c in b.components]

    def div_bu(u):
        return sum(_ik(grid, ax) * sfft.rfftn(b_j * u, norm="forward")
                   for ax, b_j in enumerate(bvals))

    def p_rhs(r):
        return (p_up * sfft.rfftn(r, norm="forward")).view(np.float64).ravel()

    def p_values(z):
        return sfft.irfftn(p_down * z.view(np.complex128).reshape(k2.shape),
                           s=grid.shape, norm="forward")

    def apply_b(z):
        zc = z.view(np.complex128).reshape(k2.shape)
        return (keep * zc - p_up * div_bu(p_values(z))).view(np.float64).ravel()

    return p_rhs, apply_b, p_values


# below the pool gate (one worker) and on the pool with uneven slabs
FOLDED_GRIDS = [TorusGrid(2, 14), TorusGrid(3, 10), TorusGrid(4, 8)]


def _below_or_above_the_gate(grid, n_workers):
    # on the pool: 3 rows per slab, which divides none of the grids' n
    return (nullcontext() if n_workers == 1
            else _pool_on_small_arrays(n_workers, 4 * 3 * grid.n ** (grid.dim - 1)))


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("grid", FOLDED_GRIDS, ids=lambda g: f"{g.dim}d{g.n}")
def test_divergence_and_leray_projection_are_the_old_formulas(grid, n_workers):
    rng = np.random.default_rng(grid.n * grid.dim + n_workers)
    vals = [rng.standard_normal(grid.shape) for _ in range(grid.dim)]
    vals[0][0, ...] = -0.0
    ref_div = sfft.irfftn(
        sum(_ik(grid, ax) * sfft.rfftn(v, norm="forward") for ax, v in enumerate(vals)),
        s=grid.shape, norm="forward")
    ref_leray = _old_leray_project(grid, vals)
    with _below_or_above_the_gate(grid, n_workers):
        # components without and with a cached spectrum take the two
        # branches of the accumulating forward transform
        plain = VectorField.from_arrays(grid, vals)
        cached = VectorField.from_components(
            [ScalarField.from_coeffs(grid, sfft.rfftn(v, norm="forward")) for v in vals])
        for v in (plain, cached):
            assert divergence(v).values.tobytes() == ref_div.tobytes()
        got_leray = leray_project(VectorField.from_arrays(grid, vals))
    for ax in range(grid.dim):
        assert got_leray[ax].values.tobytes() == ref_leray[ax].tobytes()


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("grid", FOLDED_GRIDS, ids=lambda g: f"{g.dim}d{g.n}")
def test_split_maps_are_the_old_drift_sum(grid, n_workers):
    # -div(b u) as -(sum of ik F(b_j u)) equals the sum of -ik F(b_j u):
    # IEEE negation is exact and commutes with rounding; the Krylov maps
    # are the written-out scaled formulas, byte for byte
    rng = np.random.default_rng(grid.n * grid.dim + n_workers)
    b = VectorField.from_arrays(grid, [rng.standard_normal(grid.shape)
                                       for _ in range(grid.dim)])
    u = rng.standard_normal(grid.shape)
    z = rng.standard_normal(2 * math.prod(grid.half_shape))
    ref_a, _ = _old_split_maps(b, grid)
    ref_rhs, ref_b, ref_values = _krylov_split_maps(b, grid)
    with _below_or_above_the_gate(grid, n_workers):
        apply_a, p_rhs, apply_b, p_values = _split_system(b, grid)
        got = [apply_a(u), p_rhs(u), apply_b(z), p_values(z)]
    assert got[0].tobytes() == ref_a(u).tobytes()
    assert got[1].tobytes() == ref_rhs(u).tobytes()
    assert got[2].tobytes() == ref_b(z).tobytes()
    assert got[3].tobytes() == ref_values(z).tobytes()


@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("grid", FOLDED_GRIDS, ids=lambda g: f"{g.dim}d{g.n}")
def test_krylov_operator_is_the_values_operator_conjugated(grid, scale):
    # with T y = sqrt(w) F(y), the Krylov space's B is T B_values T^-1:
    # B mapped back to values equals the old values map, and P y is
    # p_values(T y)
    rng = np.random.default_rng(grid.n + grid.dim)
    b = leray_project(VectorField.from_arrays(
        grid, [scale * rng.standard_normal(grid.shape) for _ in range(grid.dim)]))
    y = rng.standard_normal(grid.shape)
    sw = _root_weight(grid)

    def to_krylov(v):
        return (sw * sfft.rfftn(v, norm="forward")).view(np.float64).ravel()

    def to_values(z):
        return sfft.irfftn(z.view(np.complex128).reshape(grid.half_shape) / sw,
                           s=grid.shape, norm="forward")

    _, ref_b = _old_split_maps(b, grid)
    _, p_rhs, apply_b, p_values = _split_system(b, grid)
    ref = ref_b(y.ravel()).reshape(grid.shape)
    got = to_values(apply_b(to_krylov(y)))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    py = sfft.irfftn(_split_symbol(grid) * sfft.rfftn(y, norm="forward"),
                     s=grid.shape, norm="forward")
    assert np.abs(p_values(to_krylov(y)) - py).max() <= 1e-13 * np.abs(py).max()
    assert np.abs(to_values(p_rhs(y)) - py).max() <= 1e-13 * np.abs(py).max()


def _symbol_kernel(out, c, lap):
    # pointwise, with a symbol that vanishes on the corner modes
    np.divide(c, lap, out=out, where=lap != 0.0)
    out[lap == 0.0] = -0.0


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("grid", [TorusGrid(2, 40), TorusGrid(3, 18), TorusGrid(4, 8)],
                         ids=lambda g: f"{g.dim}d{g.n}")
def test_slab_built_symbols_are_the_full_array_formulas(grid, n_workers):
    # the symbols are built per slab from the 1-d frequencies; below the
    # gate and on the pool, with 3 half-spectrum rows per slab (a task of
    # 12 rows, by the lower clamp of `_slabs`), they give the full-array
    # formulas byte for byte.  The Parseval sums of the reference take the
    # same slabs as those of `relative_divergence`
    rng = np.random.default_rng(grid.n * grid.dim + 7 * n_workers)
    a = rng.standard_normal(grid.half_shape) + 1j * rng.standard_normal(grid.half_shape)
    vals = [rng.standard_normal(grid.shape) for _ in range(grid.dim)]
    vals[0][0, ...] = -0.0
    k2 = grid.k_squared_rows(slice(None), diff=True)

    ref_slab = np.empty(grid.half_shape, dtype=np.complex128)
    _symbol_kernel(ref_slab, a, _laplacian_symbol(grid))
    cs = [sfft.rfftn(v, norm="forward") for v in vals]
    div = sum(_ik(grid, ax) * c for ax, c in enumerate(cs))
    kmax = grid.n // 4
    keep = np.ones(grid.half_shape, dtype=bool)
    for ax in range(grid.dim):
        keep &= np.abs(grid.axis_k(ax)) <= kmax
    ref_low = sfft.irfftn(np.where(keep, cs[0], 0.0), s=grid.shape, norm="forward")

    with (nullcontext() if n_workers == 1 else
          _pool_on_small_arrays(n_workers, 12 * math.prod(grid.half_shape[1:]))), \
            _slab_rows() as seen:
        den_sq = 0.0
        for c in cs:
            den_sq += _parseval_sum(c, k2)
        ref_rel = math.sqrt(_parseval_sum(div)) / (2.0 * np.pi * math.sqrt(den_sq))
        got_slab = np.empty(grid.half_shape, dtype=np.complex128)
        _slabwise(_symbol_kernel, got_slab, a, lambda rows: _laplacian_symbol(grid, rows))
        antidiv = _inverse_div_grad_coeffs(grid, a)
        in_place = a.copy()
        assert _inverse_div_grad_coeffs(grid, in_place, out=in_place) is in_place
        got_rel = relative_divergence(VectorField.from_arrays(grid, vals))
        got_low = lowpass(ScalarField(grid, vals[0]), kmax)
    assert (grid.n, grid.n if n_workers == 1 else 3) in seen
    assert got_slab.tobytes() == ref_slab.tobytes()
    assert antidiv.tobytes() == _old_antidivergence(grid, a).tobytes()
    assert in_place.tobytes() == antidiv.tobytes()
    assert got_rel == ref_rel
    assert got_low.values.tobytes() == ref_low.tobytes()
