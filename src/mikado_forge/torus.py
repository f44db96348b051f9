"""Spectral calculus on the periodic torus [-1/2, 1/2]^d.

Fields carry values on a uniform N^d grid together with lazily computed
Fourier coefficients c_k such that f(x) = sum_k c_k exp(2*pi*i k.x).  With
that convention c_0 is the mean, quadrature is the plain grid average
(|T^d| = 1), and Parseval holds exactly between grid quadrature and the
coefficient l2 sum.

Every field is real, so c_{-k} = conj(c_k), and coefficient arrays hold
only the real-transform half spectrum, of shape `TorusGrid.half_shape`: the
last axis keeps its frequencies 0..n/2.  A column 0 < k_last < n/2 stands
for itself and its conjugate partner (see `_parseval_sum`).

This module is the package's only spectral layer.  It owns every
transform (the forward `_fft_of` and the inverse `_irfftn`, capped by the
one worker setting `set_fft_workers`), every wavenumber symbol, built
from the 1-d `TorusGrid` frequencies on the axis-0 rows a slab asks for
(2 pi i k `_ik`, -4 pi^2 |k|^2 `_laplacian_symbol`, 1/(2 pi |k|)
`_split_symbol`, the band mask `_band`, the shift phases `_shift_values`;
no full-spectrum array is cached on a grid), and the array-level kernels
the other modules build on.  A derivative is applied in one of two
directions: out of a transform into values (`_partial_values`, under the
gradient values and magnitude), or into a transform's accumulator
(`_fft_of`'s acc += ik c, which `_divergence_coeffs` runs over a
divergence's components, fields or value arrays).  Beside them: the
antidivergence, the de-aliased product part of a divergence
(`_dealiased_product_divergence`), the Parseval sum, the Lp quadrature of
value arrays, the one Sobolev-norm combinator `_mode_norm` (W^{1,r} or H1
from values and `grad_magnitude`), and the C-infinity bump.  The kernels
work in place on the arrays they allocate.  The field-level operators
below are thin wrappers over those kernels; `norm` is the Lp norm.

Transforms.  The one normalisation is the coefficient convention above:
the forward transform carries the 1/N (N the number of grid points), the
inverse is the plain sum, so the two kernels equal pocketfft's
`rfftn(x, norm="forward")` and `irfftn(c, s, norm="forward")` bit for
bit.  Every transform is a chain of 1-d `numpy.fft` stages (numpy >= 2.0
runs pocketfft's C++ code): `rfft`/`irfft` along the last axis, and
`fft`/`ifft` along one leading axis, written in place through `out=`.
The two transform kernels run as two passes over slabs, each a run of
independent 1-d transforms along the axes a slab holds whole, in
pocketfft's axis order.  The inverse kernel `_irfftn` consumes its input:
pass A, over axis-1 slabs, fills each slab (the derivative symbol of
`_partial_values`, the copy of `from_coeffs`) and runs the axis-0 complex
stage in the input's own buffer; pass B, over axis-0 slabs, runs the
other leading axes, the last-axis real inverse, and a consumer that takes
the slab's values (the gradient-magnitude sum, the Nash step's flux parts
and corrector), so those values are never formed whole.  The forward
kernel `_fft_of`: pass A, over axis-1 slabs, takes each slab's values
into a contiguous buffer, copied from an array or written by a producer
(the Nash step's quadratic source, so those values are never formed
whole), and runs the last-axis real transform, its scaling by 1/N and the
axis-0 stage in a contiguous slab buffer, which goes into the spectrum;
pass B, over axis-0 slabs, the remaining axes and optionally acc += ik c,
which accumulates a divergence without forming any derivative's
coefficients.  Callers of `_irfftn` pass
a temporary, never a cached `coeffs` array.  Complex transforms appear
only as the leading-axis stages of a real transform, in these two kernels
and in `_dealiased_product_divergence`; no full complex spectrum is
formed.

Threads.  The module owns one thread pool, sized by `set_fft_workers`
(default: the usable cores, `len(os.sched_getaffinity(0))`; the CLI caps
it with MF_THREADS, and the count is clamped to the usable cores).  It is
the only worker setting: every transform stage runs on one thread, and
the pool runs their slabs.  The pool starts at its first use.  Every
slab loop takes its slabs from one rule, `_slabs`: the pointwise kernels
(`_slabwise`, over axis-0 slabs), the passes of the two transform
kernels, the de-aliased product's stages, the Parseval sum and
`axis_derivative_norm`.  An array of fewer than `_POOL_GATE` = 2^18
elements (64^3), every 32^3 field among them, is one slab on the calling
thread.  From the gate up a slab covers 1/32 of the array, clamped to
[`_TASK_ELEMS`/4, `_TASK_ELEMS`]: few slabs, since each costs one numpy
call per stage, and small enough that a task's transform output and its
consumer's buffers stay near one task's size.  The workers pull the
slabs one at a time (`_slab_map`); at one worker they run one after
another on the calling thread.  Every result is bit for bit the same
for any worker count: the kernels are pointwise, each 1-d transform is
the same whatever slab holds it, the slab loops add their slab results in
slab order, and reductions over a whole array (`np.mean`, `.sum`) stay
one numpy call on the calling thread.

All operations are pure: fields are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
import numpy.fft as nfft

__all__ = [
    "TorusGrid",
    "ScalarField",
    "VectorField",
    "gradient",
    "axis_derivative_norm",
    "divergence",
    "norm",
    "dilate",
    "leray_project",
    "bandwidth",
    "lowpass",
    "relative_divergence",
    "grad_magnitude",
    "random_scalar",
    "random_solenoidal",
    "set_fft_workers",
]

# Per-field memory budget (bytes of one float64 array).  TorusGrid rejects
# grids whose fields would exceed it; large enough for 512^3 in d=3.
MAX_FIELD_BYTES = 2 << 30

# Arrays of fewer elements than this (every 32^3 field) never touch the
# worker pool, and every slab loop over them is one slab: below it the
# hand-off costs more than a second core gives back.
_POOL_GATE = 1 << 18
# elements of one pool task: many small slabs that the workers pull one at
# a time, so a slow core takes fewer of them
_TASK_ELEMS = 1 << 16


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


_FFT_WORKERS = _usable_cores()
_POOL: ThreadPoolExecutor | None = None
_LOCAL = threading.local()


def set_fft_workers(n: int) -> None:
    """Set the one worker count, the size of the slab pool, clamped to
    [1, usable cores].  Results are identical for any n.  The pool starts
    its threads at its first use, not here."""
    global _FFT_WORKERS, _POOL
    n = min(max(1, int(n)), _usable_cores())
    if n != _FFT_WORKERS and _POOL is not None:
        _POOL.shutdown()
        _POOL = None
    _FFT_WORKERS = n


def _mark_worker() -> None:
    _LOCAL.worker = True


def _pooled(size: int) -> bool:
    # a pool task never waits on the pool: kernels it runs stay serial
    return (_FFT_WORKERS > 1 and size >= _POOL_GATE
            and not getattr(_LOCAL, "worker", False))


def _slab_map(fn: Callable[[slice], object], n0: int, rows: int, size: int) -> list:
    """[fn(slice(s, s + rows)) for s in range(0, n0, rows)], in slab order.
    The slabs run on the pool when the work covers at least _POOL_GATE
    elements (size) and there is more than one worker; callers that add
    the results up do so in slab order, so sums do not depend on it."""
    slabs = [slice(s, s + rows) for s in range(0, n0, rows)]
    if len(slabs) < 2 or not _pooled(size):
        return [fn(s) for s in slabs]
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(_FFT_WORKERS, thread_name_prefix="torus",
                                   initializer=_mark_worker)
    results = [None] * len(slabs)
    claim = itertools.count()    # next() on it is atomic: each slab runs once

    def drain() -> None:
        # each worker takes the next unclaimed slab until none is left
        while (i := next(claim)) < len(slabs):
            results[i] = fn(slabs[i])

    for job in [_POOL.submit(drain) for _ in range(_FFT_WORKERS)]:
        job.result()
    return results


def _slabwise(kernel: Callable[..., None], *arrays: np.ndarray) -> None:
    """kernel(*slabs) over matching axis-0 slabs of arrays (`_slabs`), in
    place.  The first array sets the extent; an array of axis-0 length 1
    broadcasts and is passed whole, and a function (a symbol) is called
    with the slab's rows.  Kernels are pointwise, so the result is the one
    call kernel(*arrays) bit for bit, whatever the slabs.  From the gate up
    the slabs run on the pool, or one after another on the calling thread
    at one worker, so a kernel's scratch is one slab at any worker count.
    A kernel writes only into the arrays it is given, which the calling
    thread allocates; it takes at most one `_scratch` buffer."""
    n0 = arrays[0].shape[0]
    _slabs(lambda idx: kernel(*(a(idx[0]) if callable(a) else a[idx] if a.shape[0] == n0
                                else a for a in arrays)), arrays[0].shape, 0, arrays[0].size)


def _scratch(like: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A work buffer of like's shape (float64 unless dtype says otherwise):
    a pool worker keeps one and reuses it from task to task; the calling
    thread gets a fresh one."""
    if not getattr(_LOCAL, "worker", False):
        return np.empty(like.shape, dtype)
    words = like.size * np.dtype(dtype).itemsize // 8
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or buf.size < words:
        buf = _LOCAL.buf = np.empty(words)
    return buf[:words].view(dtype).reshape(like.shape)


def _part(a: np.ndarray, idx: tuple) -> np.ndarray:
    """The part of a, broadcast against the array idx indexes, that idx
    selects: axes where a has extent 1 are kept whole."""
    return a[tuple(s if m > 1 else slice(None) for s, m in zip(idx, a.shape))]


def _slabs(fn: Callable[[tuple], object], shape: Sequence[int], axis: int, size: int) -> list:
    """[fn(idx) for every slab along one axis of an array of this shape],
    idx selecting the slab, in slab order, on the pool (`_slab_map`): the
    slab rule of every slab loop, the pointwise kernels (`_slabwise`), the
    two transform kernels, the de-aliased product, the Parseval sum and
    `axis_derivative_norm`.  Below the pool gate the whole axis is one
    slab.  From the gate up a slab covers 1/32 of the work's size elements
    (a transform's real elements), clamped to [_TASK_ELEMS / 4,
    _TASK_ELEMS], and at least one row.  Each slab costs one numpy call per
    stage, and a call's overhead does not shrink with its rows, so a
    transform wants few slabs: 32 slabs of 3-4 rows at 96^3 and 128^3
    (2-4 rows from 91^3 to 181^3).  The lower clamp keeps a 64^3 slab at
    a quarter of _TASK_ELEMS, because the 64^3 memory guard counts each
    worker's task buffers in field units; the upper clamp keeps the 192^3
    product slab (a 128^3 residual) at one row, because a larger one
    raised peak RSS.  So a 64^3 slab holds 4 rows, and a slab at 192^3 and
    above, and on every d = 4 grid up to 64^4, one row."""
    n = shape[axis]
    head = (slice(None),) * axis
    elems = max(_TASK_ELEMS // 4, min(_TASK_ELEMS, size // 32))
    rows = n if size < _POOL_GATE else max(1, elems * n // size)
    return _slab_map(lambda s: fn(head + (s,)), n, rows, size)


def _irfftn(a: np.ndarray, s: Sequence[int],
            fill: Callable[[tuple], None] | None = None,
            consume: Callable[[slice, np.ndarray], None] | None = None) -> np.ndarray | None:
    """Real values of shape s from the complex half spectrum a, the plain
    sum f(x) = sum_k a_k exp(2 pi i k.x): bit for bit pocketfft's
    `irfftn(a, s, norm="forward")`.  Consumes a: every caller passes a
    temporary.  fill(idx), if given, first writes the part a[idx] of each
    slab (a may then come uninitialised).  Returns the values, or hands
    them to consume(rows, values) one axis-0 slab at a time and returns
    None.

    Two passes over slabs (`_slabs`: one slab each below the pool gate), in
    pocketfft's axis order 0, 1, ..., last.  Pass A, over axis-1 slabs:
    fill, then the axis-0 complex stage in a's own buffer.  Pass B, over
    axis-0 slabs: the remaining leading axes in place, the last-axis real
    inverse (into the values, or a slab-sized output), and consume.  So no
    full-grid temporary beyond a and the values is formed, and none at all
    when consume takes the values."""
    size = math.prod(s)
    d = len(s)
    out = np.empty(s) if consume is None else None

    def leading(idx: tuple) -> None:
        if fill is not None:
            fill(idx)
        v = a[idx]
        nfft.ifft(v, axis=0, norm="forward", out=v)

    def trailing(idx: tuple) -> None:
        v = a[idx]
        for ax in range(1, d - 1):
            nfft.ifft(v, axis=ax, norm="forward", out=v)
        if consume is None:
            nfft.irfft(v, n=s[-1], axis=-1, norm="forward", out=out[idx])
        else:
            consume(idx[0], nfft.irfft(v, n=s[-1], axis=-1, norm="forward"))

    _slabs(leading, a.shape, 1, size)
    _slabs(trailing, a.shape, 0, size)
    return out


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: dim axes, n points per axis, spacing 1/n."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"torus dimension must be >= 2, got {self.dim}")
        if self.n % 2 != 0:
            raise ValueError(f"points per axis must be even, got {self.n}")
        if self.n < 8:
            raise ValueError(f"points per axis must be >= 8, got {self.n}")
        if (self.n ** self.dim) * 8 > MAX_FIELD_BYTES:
            raise ValueError(
                f"grid {self.n}^{self.dim} exceeds the field memory budget "
                f"({MAX_FIELD_BYTES} bytes)"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of every coefficient array: the real-transform half
        spectrum, last axis cut to its n/2 + 1 frequencies 0..n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @cached_property
    def x1(self) -> np.ndarray:
        """1-d coordinate array, x_i = -1/2 + i/n."""
        return -0.5 + np.arange(self.n) / self.n

    @cached_property
    def k1(self) -> np.ndarray:
        """1-d integer frequencies in FFT layout."""
        return np.rint(nfft.fftfreq(self.n) * self.n).astype(np.int64)

    @cached_property
    def k1_diff(self) -> np.ndarray:
        """Frequencies for odd-order derivatives: the unpaired Nyquist mode
        is zeroed so first derivatives of real fields stay real and the
        div/grad/inverse-Laplacian cancellations are exact."""
        k = self.k1.copy()
        k[self.n // 2] = 0
        return k

    def axis_k(self, axis: int, diff: bool = False) -> np.ndarray:
        """Frequencies of one axis, shaped for broadcasting over the half
        spectrum; diff = True gives the derivative frequencies (Nyquist
        zeroed)."""
        k = self.k1_diff if diff else self.k1
        if axis == self.dim - 1:
            k = k[: self.n // 2 + 1]
        shape = [1] * self.dim
        shape[axis] = k.size
        return k.reshape(shape)

    def k_squared_rows(self, rows: slice, diff: bool = False) -> np.ndarray:
        """|k|^2 (sum of squared derivative frequencies if diff) on the
        axis-0 rows of the half spectrum, built from the 1-d frequencies;
        no full-spectrum array is cached."""
        k2 = np.zeros((len(range(self.n)[rows]),) + self.half_shape[1:])
        for ax in range(self.dim):
            k = self.axis_k(ax, diff).astype(np.float64) ** 2
            k2 += k[rows] if ax == 0 else k
        return k2

    def meshes(self) -> list[np.ndarray]:
        """Coordinate meshes (built on demand, not cached)."""
        return list(np.meshgrid(*([self.x1] * self.dim), indexing="ij"))

    def radius_squared(self) -> np.ndarray:
        """|x|^2 with x in [-1/2, 1/2)^d, measured from the grid midpoint
        (index n/2)."""
        r2 = np.zeros(self.shape)
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.n
            r2 = r2 + (self.x1 ** 2).reshape(shape)
        return r2


def _freeze(a: np.ndarray) -> np.ndarray:
    # read-only float64 arrays (including stride-0 broadcast views) pass
    # through untouched; anything else is copied and locked
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        return a
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", _freeze(self.values))

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs: np.ndarray) -> "ScalarField":
        """The real field with these half-spectrum coefficients."""
        if coeffs.shape != grid.half_shape:
            # irfftn would crop or pad any other shape without complaint
            raise ValueError(f"coefficient shape {coeffs.shape} is not the half-spectrum "
                             f"shape {grid.half_shape}")
        buf = np.empty(coeffs.shape, dtype=np.complex128)

        def fill(idx: tuple) -> None:
            buf[idx] = coeffs[idx]

        f = cls(grid=grid, values=_irfftn(buf, grid.shape, fill=fill))
        # fills the `coeffs` cache, which a cached_property keeps in __dict__
        object.__setattr__(f, "coeffs", np.ascontiguousarray(coeffs))
        return f

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable[..., np.ndarray]) -> "ScalarField":
        return cls(grid=grid, values=np.asarray(fn(*grid.meshes()), dtype=np.float64))

    @classmethod
    def zero(cls, grid: TorusGrid) -> "ScalarField":
        return cls(grid=grid, values=np.broadcast_to(np.float64(0.0), grid.shape))

    @classmethod
    def constant(cls, grid: TorusGrid, c: float) -> "ScalarField":
        return cls(grid=grid, values=np.broadcast_to(np.float64(c), grid.shape))

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Normalised Fourier coefficients in the half layout (shape
        `grid.half_shape`); c_{-k} = conj(c_k) gives the other half."""
        return _fft_of(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    # pointwise algebra (values level; products of band-limited fields are
    # exact samples, their spectra alias beyond the grid band)
    def __add__(self, other: "ScalarField | float") -> "ScalarField":
        if isinstance(other, ScalarField):
            return ScalarField(self.grid, self.values + other.values)
        return ScalarField(self.grid, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other: "ScalarField | float") -> "ScalarField":
        if isinstance(other, ScalarField):
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - float(other))

    def __mul__(self, other: "ScalarField | float") -> "ScalarField":
        if isinstance(other, ScalarField):
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


@dataclass(frozen=True, eq=False)
class VectorField:
    grid: TorusGrid
    components: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.grid.dim:
            raise ValueError("need one component per dimension")
        for c in self.components:
            if c.grid != self.grid:
                raise ValueError("component grids differ")
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def from_components(cls, comps: Sequence[ScalarField]) -> "VectorField":
        return cls(grid=comps[0].grid, components=tuple(comps))

    @classmethod
    def from_arrays(cls, grid: TorusGrid, arrays: Iterable[np.ndarray]) -> "VectorField":
        return cls(grid=grid, components=tuple(ScalarField(grid, a) for a in arrays))

    @classmethod
    def zero(cls, grid: TorusGrid) -> "VectorField":
        z = ScalarField.zero(grid)
        return cls(grid=grid, components=(z,) * grid.dim)

    def __getitem__(self, i: int) -> ScalarField:
        return self.components[i]

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.grid, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.grid, tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, other: "ScalarField | float") -> "VectorField":
        return VectorField(self.grid, tuple(c * other for c in self.components))

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(self.grid, tuple(-c for c in self.components))

    def dot(self, other: "VectorField") -> ScalarField:
        vals = np.zeros(self.grid.shape)
        for a, b in zip(self.components, other.components):
            vals += a.values * b.values
        return ScalarField(self.grid, vals)

    def magnitude(self) -> ScalarField:
        return ScalarField(self.grid, _magnitude([c.values for c in self.components]))

    def max_abs(self) -> float:
        return self.magnitude().max_abs()


Field = ScalarField | VectorField


def _add_product(acc: np.ndarray, k: np.ndarray, c: np.ndarray) -> None:
    acc += np.multiply(k, c, out=_scratch(acc, np.complex128))


def _fft_of(x: ScalarField | np.ndarray | Sequence[int], acc: np.ndarray | None = None,
            ik: np.ndarray | None = None,
            produce: Callable[[tuple, np.ndarray], None] | None = None) -> np.ndarray:
    """Normalised coefficients of a field, as `.coeffs` gives them but
    without filling its cache (keeps the large-grid paths from retaining
    duplicate spectral arrays), or of a value array: bit for bit
    pocketfft's `rfftn(x, norm="forward")`.  With acc and a derivative
    symbol ik (`_ik`), also acc += ik c: the coefficients of that
    derivative are added to acc, slab by slab, and never formed whole.
    With a producer, x is the shape of the values, and produce(idx, out)
    writes the values of each slab idx into out, a contiguous buffer of
    the slab's shape (the counterpart of `_irfftn`'s fill): values that
    are a pointwise function of other arrays are then never formed whole.

    Two passes over slabs (`_slabs`: one slab each below the pool gate), in
    pocketfft's axis order last, 0, 1, ...  Pass A, over axis-1 slabs: the
    slab's values (copied from x, or produced), the last-axis real
    transform and its scaling by 1/N, then the axis-0 stage (for d = 2 it
    runs over axis-0 slabs, and the axis-0 stage moves to pass B), in a
    contiguous slab buffer that then goes into the spectrum.  Pass B, over
    axis-0 slabs (axis-1 for d = 2): the remaining axes in place and the
    accumulation."""
    if isinstance(x, ScalarField):
        c = x.__dict__.get("coeffs")
        if c is not None:
            if acc is not None:
                _slabwise(_add_product, acc, ik, c)
            return c
        x = x.values
    shape = tuple(x) if produce is not None else x.shape
    size, d = math.prod(shape), len(shape)
    c = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    first, rest = (1, range(1, d - 1)) if d > 2 else (0, (0,))
    scale = float(1 / np.longdouble(size))    # pocketfft's 1/N, rounded from long double

    def leading(idx: tuple) -> None:
        # contiguous input and output: on a strided slab numpy's loop runs
        # one short call per axis-0 row, about twice as slow at 128^3
        dst = c[idx]
        if produce is None:
            src = np.ascontiguousarray(x[idx])
        else:
            src = np.empty(dst.shape[:-1] + shape[-1:])
            produce(idx, src)
        t = dst if dst.flags.c_contiguous else _scratch(dst, np.complex128)
        nfft.rfft(src, axis=-1, out=t)
        del src
        # per real component, as pocketfft scales its first stage: a
        # complex product would turn a -0 component into +0
        t.view(np.float64)[...] *= scale
        if d > 2:
            nfft.fft(t, axis=0, out=t)
        if t is not dst:
            dst[...] = t

    def trailing(idx: tuple) -> None:
        v = c[idx]
        for ax in rest:
            nfft.fft(v, axis=ax, out=v)
        if acc is not None:
            _add_product(acc[idx], _part(ik, idx), v)

    _slabs(leading, shape, first, size)
    _slabs(trailing, c.shape, 1 - first, size)
    return c


def _magnitude(comps: Sequence[np.ndarray]) -> np.ndarray:
    """Pointwise Euclidean norm sqrt(sum_i comps[i]^2) of value arrays,
    summed in component order."""
    def kernel(mag, *cs):
        sq = _scratch(mag)
        for c in cs:
            mag += np.square(c, out=sq)
        np.sqrt(mag, out=mag)

    mag = np.zeros(comps[0].shape)
    _slabwise(kernel, mag, *comps)
    return mag


# ---------------------------------------------------------------------------
# array-level kernels (coefficient arrays in, coefficient or real value
# arrays out; nothing is cached)

def _ik(grid: TorusGrid, axis: int) -> np.ndarray:
    """The symbol 2 pi i k_axis of one partial derivative (k1_diff
    convention), shaped for broadcasting over the half spectrum."""
    return (2j * np.pi) * grid.axis_k(axis, diff=True)


def _laplacian_symbol(grid: TorusGrid, rows: slice = slice(None)) -> np.ndarray:
    """-4 pi^2 |k|^2 (derivative frequencies), the symbol of div(grad .), on axis-0 rows."""
    return (-4.0 * np.pi ** 2) * grid.k_squared_rows(rows, diff=True)


def _split_symbol(grid: TorusGrid, rows: slice = slice(None), diff: bool = True) -> np.ndarray:
    """1/(2 pi |k|), exactly 0 where |k| = 0, on axis-0 rows: (-lap)^(-1/2)
    off its kernel.  With the derivative frequencies (diff) it splits the
    drift-diffusion preconditioner, its kernel the mean and the Nyquist
    corners; with the full |k|^2 it weights the residuals' H^-1 norms."""
    k2 = grid.k_squared_rows(rows, diff)
    with np.errstate(divide="ignore"):
        return np.where(k2 > 0.0, 1.0 / (2.0 * np.pi * np.sqrt(k2)), 0.0)


def _band(grid: TorusGrid, kmax: float, rows: slice = slice(None)) -> np.ndarray:
    """The mask |k_i| <= kmax on every axis, on axis-0 rows."""
    band = np.ones((len(range(grid.n)[rows]),) + grid.half_shape[1:], dtype=bool)
    for ax in range(grid.dim):
        inside = np.abs(grid.axis_k(ax)) <= kmax
        band &= inside[rows] if ax == 0 else inside
    return band


def _shift_values(grid: TorusGrid, coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Values of f(x - s) from the coefficients of f, via spectral phases.
    A Nyquist mode is its own conjugate partner: it shifts by the mean of
    the phases of -n/2 and +n/2, cos(pi n s), on every axis alike."""
    phase = np.ones(grid.half_shape, dtype=np.complex128)
    for ax in range(grid.dim):
        e = np.exp(-2j * np.pi * grid.axis_k(ax) * s[ax])
        e.flat[grid.n // 2] = e.flat[grid.n // 2].real
        phase = phase * e
    return _irfftn(coeffs * phase, grid.shape)


def _partial_values(grid: TorusGrid, coeffs: np.ndarray, axis: int,
                    consume: Callable[[slice, np.ndarray], None] | None = None
                    ) -> np.ndarray | None:
    """Real values of one partial derivative of the field with these
    coefficients: returned whole, or handed to consume(rows, values) slab by
    slab as `_irfftn` does.  The derivative symbol is applied in the
    inverse transform's first pass, so its coefficients are never formed
    beside the transform's own buffer."""
    ik = _ik(grid, axis)
    buf = np.empty(coeffs.shape, dtype=np.complex128)

    def fill(idx: tuple) -> None:
        np.multiply(_part(ik, idx), coeffs[idx], out=buf[idx])

    return _irfftn(buf, grid.shape, fill=fill, consume=consume)


def _grad_values(grid: TorusGrid, coeffs: np.ndarray) -> list[np.ndarray]:
    """Real values of every partial derivative of the field with these
    coefficients."""
    return [_partial_values(grid, coeffs, ax) for ax in range(grid.dim)]


def _divergence_coeffs(grid: TorusGrid, comps: Iterable[ScalarField | np.ndarray],
                       acc: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of the divergence of comps, fields or value arrays in
    axis order, added to acc (zeros if not given) through `_fft_of`: a
    field's cached spectrum is reused.  A lazy comps is drawn one at a
    time, so at most one component is alive."""
    if acc is None:
        acc = np.zeros(grid.half_shape, dtype=np.complex128)
    comps = iter(comps)
    for ax in range(grid.dim):
        _fft_of(next(comps), acc, _ik(grid, ax))
    return acc


def _inverse_div_grad_coeffs(grid: TorusGrid, coeffs: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of phi with div(grad phi) = h in the odd-derivative
    calculus; zero on the modes where that symbol vanishes (the mean and
    the unpaired Nyquist corners, which lie outside the range of div).
    Written into out if given, which may be coeffs itself when the caller
    hands over a temporary.  A slab kernel; the symbol is built per slab."""
    def kernel(o, c, lap):
        zero = lap == 0.0
        np.divide(c, lap, out=o, where=~zero)
        o[zero] = 0.0

    if out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    _slabwise(kernel, out, coeffs, lambda rows: _laplacian_symbol(grid, rows))
    return out


def _antidivergence_values(grid: TorusGrid, coeffs: np.ndarray) -> list[np.ndarray]:
    """Real components of grad(invlap(h)) from the coefficients of h, so
    that div of the output reproduces h exactly on the range of div."""
    return _grad_values(grid, _inverse_div_grad_coeffs(grid, coeffs))


def _dealiased_product_divergence(grid: TorusGrid, b_coeffs: Iterable[np.ndarray],
                                  u_coeffs: list[np.ndarray]) -> np.ndarray:
    """Coefficients of div(b u) on the band |k_i| <= n/2 - 1, zero outside
    it, with b u the de-aliased product: bit for bit what the product of
    the 3n/2 zero-padded interpolants of b and u gives (Orszag's 3/2 rule).
    b_coeffs yields the half spectrum of each drift component in axis
    order and is drawn one component at a time.  u_coeffs is a one-element
    list holding u's half spectrum: it is emptied once u's leading-axis
    array is built, so a caller that hands over its only reference has the
    spectrum freed before the product loop.  No input is modified.

    Only the band is transformed (a pruned transform).  Each input's band,
    placed in a padded spectrum, goes through the inverse transforms of the
    leading axes in their order, skipping the columns whose later axes are
    still zero; its last axis keeps only the band columns.  The last-axis
    transforms and the product run slab by slab along axis 0, and each
    slab's band columns go back into the drift's buffer.  The forward
    leading-axis transforms then skip the rows already outside the band.
    Neither the padded values nor the padded spectrum is ever formed; u's
    leading-axis array is built once and shared by every component."""
    n, d = grid.n, grid.dim
    m = (3 * n) // 2
    npts_m = m ** d
    kcap = n // 2 - 1
    # each leading axis' band: its two runs of frequencies on both grids
    runs_n = (slice(0, kcap + 1), slice(n - kcap, n))
    runs_m = (slice(0, kcap + 1), slice(m - kcap, m))
    lead = (m,) * (d - 1) + (kcap + 1,)

    def blocks(k: int):
        # the 2^k combinations of band runs over the first k axes
        return itertools.product(range(2), repeat=k)

    def transform(view: np.ndarray, ax: int, inverse: bool) -> None:
        # one leading axis in place; view is a slice of a padded buffer,
        # taken in slabs along its outermost other axis
        def stage(idx: tuple) -> None:
            v = view[idx]
            if inverse:
                nfft.ifft(v, axis=ax, norm="forward", out=v)
            else:
                nfft.fft(v, axis=ax, out=v)

        _slabs(stage, view.shape, 1 if ax == 0 else 0, view.size)

    def leading_values(c: np.ndarray, buf: np.ndarray) -> np.ndarray:
        buf[...] = 0.0
        for blk in blocks(d - 1):
            band = tuple(runs_n[i] for i in blk) + (slice(0, kcap + 1),)
            buf[tuple(runs_m[i] for i in blk)] = c[band]
        for ax in range(d - 1):
            for blk in blocks(d - 2 - ax):
                transform(buf[(slice(None),) * (ax + 1) + tuple(runs_m[i] for i in blk)],
                          ax, inverse=True)
        return buf

    def product(idx: tuple) -> None:
        # the last-axis transforms and the product of one axis-0 slab; its
        # band columns go back into the drift's buffer.  Each row's
        # transforms are the same whatever the slab
        bu = nfft.irfft(buf[idx], n=m, axis=-1, norm="forward")
        uv = nfft.irfft(u_lead[idx], n=m, axis=-1, norm="forward")
        bu *= uv
        del uv
        buf[idx] = nfft.rfft(bu, axis=-1)[..., :kcap + 1]

    u_lead = leading_values(u_coeffs.pop(), np.empty(lead, dtype=np.complex128))
    buf = np.empty(lead, dtype=np.complex128)
    e_hat = np.zeros(grid.half_shape, dtype=np.complex128)
    comps = iter(b_coeffs)   # not enumerate, whose cached tuple keeps the last c alive
    for ax in range(d):
        c = next(comps)
        leading_values(c, buf)
        del c
        _slabs(product, lead, 0, npts_m)
        for lax in range(d - 1):
            for blk in blocks(lax):
                transform(buf[tuple(runs_m[i] for i in blk)], lax, inverse=False)
        coef = (2j * np.pi / npts_m) * grid.axis_k(ax, diff=True)
        for blk in blocks(d - 1):
            dst = tuple(runs_n[i] for i in blk) + (slice(0, kcap + 1),)
            e_hat[dst] += np.multiply(coef[tuple(dst[a] if a == ax else slice(None)
                                                 for a in range(d))],
                                      buf[tuple(runs_m[i] for i in blk)])
    return e_hat


# ---------------------------------------------------------------------------
# differential operators (exact in the discrete spectral calculus)

def axis_derivative_norm(grid: TorusGrid, values: np.ndarray, axis: int) -> float:
    """||d/dx_axis values||_1 via a 1-d real spectral derivative along one
    axis (k1_diff convention), taken in slabs across another axis so that
    no full-grid temporary is allocated."""
    n, d = grid.n, grid.dim
    shape = [1] * d
    shape[axis] = n // 2 + 1
    ik = _ik(grid, d - 1).reshape(shape)
    across = (axis + 1) % d
    # pocketfft's 1/n of the inverse, rounded from long double and applied
    # after the plain sum; numpy's own 1/n differs in the last bit at some
    # n (the first even one is 5462)
    scale = float(1 / np.longdouble(n))

    def slab_sum(idx: tuple) -> float:
        spec = nfft.rfft(values[idx], axis=axis)
        spec *= ik
        dv = nfft.irfft(spec, n=n, axis=axis, norm="forward")
        del spec
        dv *= scale
        return float(np.abs(dv, out=dv).sum())

    # the 128^3 nash-iteration ci-run (2 cores, 8 alternating pairs) peaks
    # at 269.3-269.6 MB with these slabs on the pool or on the calling
    # thread, and takes 2.51 s on the pool against 2.60 s (medians)
    total = 0.0
    for part in _slabs(slab_sum, values.shape, across, values.size):
        total += part
    return total / n ** d


def gradient(f: ScalarField) -> VectorField:
    return VectorField.from_components(
        [ScalarField.from_coeffs(f.grid, _ik(f.grid, ax) * f.coeffs) for ax in range(f.grid.dim)])


def divergence(v: VectorField) -> ScalarField:
    return ScalarField.from_coeffs(v.grid, _divergence_coeffs(v.grid, v.components))


# ---------------------------------------------------------------------------
# norms

def _lp_of_values(vals: np.ndarray, p: float) -> float:
    if np.isinf(p):
        return float(np.abs(vals).max())

    def kernel(out, v):
        np.abs(v, out=out)
        out **= p

    powers = np.empty(vals.shape)
    _slabwise(kernel, powers, vals)
    # the mean stays one reduction on the calling thread: its summation
    # order is numpy's, whatever the worker count
    return float(np.mean(powers) ** (1.0 / p))


def _grad_magnitude_of(grid: TorusGrid,
                       comps: Iterable[ScalarField | np.ndarray]) -> np.ndarray:
    """Pointwise Frobenius norm of the gradient of the fields or value
    arrays comps, one partial derivative at a time; nothing is cached."""
    def add_square(a, g):
        a += np.square(g, out=g)

    acc = np.zeros(grid.shape)
    for comp in comps:
        c = _fft_of(comp)
        for ax in range(grid.dim):
            _partial_values(grid, c, ax, lambda rows, g: _slabwise(add_square, acc[rows], g))
        del c
    _slabwise(lambda a: np.sqrt(a, out=a), acc)
    return acc


def grad_magnitude(f: Field) -> np.ndarray:
    """Pointwise Euclidean (Frobenius for vectors) norm of the gradient;
    no coefficients are cached on f."""
    return _grad_magnitude_of(f.grid, (f,) if isinstance(f, ScalarField) else f.components)


def _mode_norm(mode: str, r: float | None, values: np.ndarray,
               grad_mag: np.ndarray) -> float:
    """The mode's norm of a field from its values and the pointwise size of
    its gradient: H1 in the H1 mode, the additive W^{1,r} norm
    ||values||_r + ||grad_mag||_r otherwise."""
    if mode == "H1":
        return math.hypot(_lp_of_values(values, 2.0), _lp_of_values(grad_mag, 2.0))
    return _lp_of_values(values, r) + _lp_of_values(grad_mag, r)


def norm(f: Field, p: float = 2.0) -> float:
    """Lp norm of a field by grid quadrature, (mean |f|^p)^(1/p); p = inf
    gives the grid max.  Vector fields use the pointwise Euclidean
    magnitude."""
    if not np.isinf(p) and p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    mag = np.abs(f.values) if isinstance(f, ScalarField) else f.magnitude().values
    return _lp_of_values(mag, p)


def bandwidth(f: Field) -> int:
    """Effective bandwidth: largest |k_i| carrying a coefficient above
    1e-10 * max|coeff| on any axis."""
    if isinstance(f, VectorField):
        return max(bandwidth(c) for c in f.components)
    mag = np.abs(f.coeffs)
    peak = mag.max()
    if peak == 0.0:
        return 0
    mask = mag > 1e-10 * peak
    grid = f.grid
    bw = 0
    for ax in range(grid.dim):
        other = tuple(i for i in range(grid.dim) if i != ax)
        profile = mask.any(axis=other)
        ks = np.abs(grid.axis_k(ax).ravel()[profile])
        if ks.size:
            bw = max(bw, int(ks.max()))
    return bw


# ---------------------------------------------------------------------------
# dilation, the C-infinity bump, low-pass filter, Leray projection

def _dilate_values(grid: TorusGrid, values: np.ndarray, lam: int) -> np.ndarray:
    # f(lam * x_i) lands exactly on grid points: index map
    # j = lam*i + (n/2)(1 - lam)  (mod n)
    n = grid.n
    idx = (lam * np.arange(n) + (n // 2) * (1 - lam)) % n
    out = values
    for ax in range(grid.dim):
        out = np.take(out, idx, axis=ax)
    return out


def dilate(f: Field, lam: int) -> Field:
    """The lam-dilation x -> f(lam x); exact samples, spectral support k -> lam*k.

    Requires lam * bandwidth(f) <= n/2 so no spectral content folds back.
    """
    lam = int(lam)
    if lam < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {lam}")
    if isinstance(f, VectorField):
        return VectorField.from_components(tuple(dilate(c, lam) for c in f.components))
    bw = bandwidth(f)
    if lam * bw > f.grid.n // 2:
        raise ValueError(
            f"aliasing: lam * bandwidth = {lam}*{bw} exceeds n/2 = {f.grid.n // 2}"
        )
    return ScalarField(f.grid, _dilate_values(f.grid, f.values, lam))


def _bump(s2: np.ndarray) -> np.ndarray:
    """The standard C-infinity bump exp(-1/(1 - s2)) on s2 < 1, 0 outside,
    as a function of the squared radius s2 = |z|^2 (any shape)."""
    out = np.zeros_like(s2, dtype=np.float64)
    inside = s2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    return out


def lowpass(f: Field, kmax: float) -> Field:
    """Zero all coefficients with any |k_i| > kmax."""
    if isinstance(f, VectorField):
        return VectorField.from_components(tuple(lowpass(c, kmax) for c in f.components))
    return ScalarField.from_coeffs(f.grid, np.where(_band(f.grid, kmax), f.coeffs, 0.0))


def leray_project(b: VectorField) -> VectorField:
    """Remove the gradient part: P b = b - grad(invlap(div b)).

    Output has machine-zero spectral divergence; idempotent; constants pass
    through unchanged.
    """
    grid = b.grid
    # fills each cache, which the divergence then reuses
    coeffs = [c.coeffs for c in b.components]
    phihat = _inverse_div_grad_coeffs(grid, _divergence_coeffs(grid, b.components))
    return VectorField.from_components(tuple(
        ScalarField.from_coeffs(grid, c - _ik(grid, ax) * phihat)
        for ax, c in enumerate(coeffs)))


def _parseval_sum(c: np.ndarray,
                  weight: np.ndarray | Callable[[slice], np.ndarray] | None = None) -> float:
    """sum over the full spectrum of weight |c_k|^2 from half-spectrum
    coefficients c (weight, if given, in the same layout and even in k, or
    a function giving its axis-0 rows): each column 0 < k_last < n/2
    counts twice, for itself and its conjugate partner; the k_last = 0 and
    Nyquist columns count once.  Taken in slabs along the first axis
    (`_slabs`, one slab below the pool gate): full-grid float temporaries
    here would fragment the heap on large grids and raise the peak RSS of
    the callers that follow."""
    def slab_sum(idx: tuple) -> float:
        sq = np.abs(c[idx], out=_scratch(c[idx]))
        np.square(sq, out=sq)
        if weight is not None:
            sq *= weight(idx[0]) if callable(weight) else weight[idx]
        sq[..., 1:-1] *= 2.0
        return float(sq.sum())

    total = 0.0
    for part in _slabs(slab_sum, c.shape, 0, c.size):
        total += part
    return total


def relative_divergence(v: VectorField) -> float:
    """||div v||_2 scaled by the Frobenius H1-seminorm of v (0 for v = 0),
    both by Parseval from one transform per component; no coefficients are
    cached on v."""
    grid = v.grid
    acc = np.zeros(grid.half_shape, dtype=np.complex128)
    den_sq = 0.0
    for ax in range(grid.dim):
        c = _fft_of(v[ax], acc, _ik(grid, ax))
        den_sq += _parseval_sum(c, lambda rows: grid.k_squared_rows(rows, diff=True))
        del c
    num = math.sqrt(_parseval_sum(acc))
    den = 2.0 * np.pi * math.sqrt(den_sq)
    return num / den if den > 0.0 else 0.0


# ---------------------------------------------------------------------------
# random band-limited fields (deterministic given the generator)

def random_scalar(
    grid: TorusGrid,
    bmax: int,
    rng: np.random.Generator,
    mean_zero: bool = True,
    unit_l2: bool = True,
) -> ScalarField:
    """Random real field with spectrum inside the cube |k_i| <= bmax."""
    if bmax < 1 or bmax > grid.n // 2 - 1:
        raise ValueError(f"bmax must lie in [1, n/2 - 1], got {bmax}")
    size = (2 * bmax + 1,) * grid.dim
    drawn = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    # the field is the real part of the drawn series: the Hermitian part
    # 0.5 (c_k + conj(c_{-k})) of the block, whose k_last >= 0 half is stored
    herm = 0.5 * (drawn + np.conj(drawn[(slice(None, None, -1),) * grid.dim]))
    block = [i % grid.n for i in range(-bmax, bmax + 1)]
    c = np.zeros(grid.half_shape, dtype=np.complex128)
    c[np.ix_(*([block] * (grid.dim - 1) + [range(bmax + 1)]))] = herm[..., bmax:]
    vals = _irfftn(c, grid.shape)
    if mean_zero:
        vals = vals - vals.mean()
    f = ScalarField(grid, vals)
    if unit_l2:
        l2 = norm(f, p=2)
        if l2 > 0:
            f = f * (1.0 / l2)
    return f


def random_solenoidal(
    grid: TorusGrid,
    bmax: int,
    rng: np.random.Generator,
) -> VectorField:
    """Random mean-zero divergence-free drift: Leray projection of a random
    field, unit in L2."""
    comps = [random_scalar(grid, bmax, rng, unit_l2=False) for _ in range(grid.dim)]
    b = leray_project(VectorField.from_components(comps))
    b = VectorField.from_components(tuple(c - c.mean for c in b.components))
    l2 = norm(b, p=2)
    if l2 > 0:
        b = b * (1.0 / l2)
    return b
