"""Spectral-calculus tests: grids, derivatives, norms, dilation, low-pass
filter, Leray projection, serialization."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mikado_forge.torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _mode_norm,
    _parseval_sum,
    bandwidth,
    dilate,
    grad_magnitude,
    gradient,
    leray_project,
    lowpass,
    norm,
    random_scalar,
    random_solenoidal,
    relative_divergence,
)
from mikado_forge import fieldio
from mikado_forge.oscillation import _c1_norm


def test_make_grid_definitions():
    g = TorusGrid(3, 64)
    assert g.n ** g.dim == 262144
    g4 = TorusGrid(4, 32)
    assert g4.n ** g4.dim == 1048576


def test_make_grid_rejections():
    with pytest.raises(ValueError):
        TorusGrid(2, 7)       # odd resolution
    with pytest.raises(ValueError):
        TorusGrid(1, 16)      # dimension too small
    with pytest.raises(ValueError):
        TorusGrid(2, 6)       # below minimum resolution
    with pytest.raises(ValueError):
        TorusGrid(3, 4096)    # memory budget


def test_unit_measure():
    g = TorusGrid(2, 32)
    one = ScalarField.constant(g, 1.0)
    for p in (1.0, 2.0, 3.0, np.inf):
        assert norm(one, p=p) == pytest.approx(1.0, abs=1e-14)


def test_gradient_single_mode():
    g = TorusGrid(3, 32)
    f = ScalarField.from_function(g, lambda x, y, z: np.sin(2 * np.pi * x))
    gf = gradient(f)
    exact = ScalarField.from_function(g, lambda x, y, z: 2 * np.pi * np.cos(2 * np.pi * x))
    assert norm(gf[0] - exact, p=2) < 1e-12
    assert norm(gf[1], p=2) < 1e-14
    assert norm(gf[2], p=2) < 1e-14


def test_mikado_field_is_solenoidal():
    from mikado_forge.mikado import build_family
    g = TorusGrid(3, 32)
    fam = build_family(3, 1.5, 7.0, g, resolution_factor=2.0)
    for j in range(3):
        assert relative_divergence(fam.fields[j]) <= 1e-10


def test_parseval_hundred_fields():
    g = TorusGrid(2, 32)
    rng = np.random.default_rng(3)
    # conjugate-pair weight of the half spectrum: the k_last = 0 and Nyquist
    # columns are their own partners, every other column stands for two
    pair = np.full(g.half_shape, 2.0)
    pair[..., 0] = pair[..., -1] = 1.0
    for _ in range(100):
        f = random_scalar(g, 5, rng, mean_zero=False, unit_l2=False)
        quad = norm(f, p=2)
        spec = float(np.sqrt((pair * np.abs(f.coeffs) ** 2).sum()))
        assert abs(quad - spec) <= 1e-12 * quad
        assert abs(quad - np.sqrt(_parseval_sum(f.coeffs))) <= 1e-12 * quad


def test_coeffs_are_the_half_spectrum_and_from_coeffs_checks_the_shape():
    for d, n in [(2, 16), (3, 8), (4, 8)]:
        g = TorusGrid(d, n)
        f = random_scalar(g, 3, np.random.default_rng(d))
        assert f.coeffs.shape == g.shape[:-1] + (n // 2 + 1,) == g.half_shape
        back = ScalarField.from_coeffs(g, f.coeffs)
        assert np.abs(back.values - f.values).max() <= 1e-13 * np.abs(f.values).max()
        # a full-layout array would be cropped silently by the inverse transform
        full = np.fft.fftn(f.values) / f.values.size
        with pytest.raises(ValueError, match="half-spectrum"):
            ScalarField.from_coeffs(g, full)


def test_random_scalar_is_the_real_part_of_the_drawn_series():
    # reference: the drawn block placed on the full spectrum, and the real
    # part of its complex inverse transform
    for d, n, bmax in [(2, 16, 3), (3, 16, 7), (4, 8, 3)]:
        g = TorusGrid(d, n)
        f = random_scalar(g, bmax, np.random.default_rng(7), mean_zero=False, unit_l2=False)
        rng = np.random.default_rng(7)
        size = (2 * bmax + 1,) * d
        c = np.zeros(g.shape, dtype=complex)
        block = [i % n for i in range(-bmax, bmax + 1)]
        c[np.ix_(*([block] * d))] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        ref = np.fft.ifftn(c).real * n ** d
        assert np.abs(f.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_l2_norm_of_sine():
    g = TorusGrid(2, 64)
    f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
    assert norm(f, p=2) == pytest.approx(1 / np.sqrt(2), rel=1e-13)


def test_l1_norm_of_sine_against_refined_oracle():
    # 1-d quadrature oracle at 10x resolution, and the closed form 2/pi
    n = 256
    g = TorusGrid(2, n)
    f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
    coarse = norm(f, p=1)
    xs = -0.5 + np.arange(10 * n) / (10 * n)
    oracle = np.abs(np.sin(2 * np.pi * xs)).mean()
    assert abs(coarse - oracle) <= 5e-5
    assert abs(oracle - 2 / np.pi) <= 5e-7
    assert abs(coarse - 2 / np.pi) <= 5e-5


def test_norm_rejects_p_below_one():
    g = TorusGrid(2, 32)
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        norm(f, p=0.5)


def test_c_norm_requires_resolved_field():
    g = TorusGrid(2, 32)
    rng = np.random.default_rng(4)
    rough = ScalarField(g, rng.standard_normal(g.shape))
    with pytest.raises(ValueError):
        _c1_norm(rough)
    smooth = random_scalar(g, 5, rng)
    assert _c1_norm(smooth) > 0


def test_w1p_additive_convention():
    g = TorusGrid(2, 64)
    rng = np.random.default_rng(5)
    f = random_scalar(g, 4, rng)
    assert _mode_norm("W1R", 1.5, f.values, grad_magnitude(f)) == pytest.approx(
        norm(f, p=1.5) + norm(gradient(f), p=1.5), rel=1e-12)
    h1 = _mode_norm("H1", None, f.values, grad_magnitude(f))
    assert h1 == pytest.approx(
        np.hypot(norm(f, p=2), norm(gradient(f), p=2)), rel=1e-12)


def test_grad_magnitude_memory_in_fields():
    # one partial derivative at a time, in units of one 64^3 float64 field:
    # the peak is the input's spectrum, one derivative's spectrum, its
    # values' slabs, and the accumulator (measured 3.25 at one and at two
    # workers); only the result outlives the call, and no coefficients are
    # cached on the input
    g = TorusGrid(3, 64)
    f = random_scalar(g, 5, np.random.default_rng(6))
    field = g.n ** g.dim * 8
    tracemalloc.start()
    try:
        mag = grad_magnitude(f)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / field <= 3.5
    assert (kept - mag.nbytes) / field <= 0.05
    assert "coeffs" not in f.__dict__
    ref = gradient(f).magnitude().values
    np.testing.assert_allclose(mag, ref, rtol=1e-12, atol=1e-12 * ref.max())


def test_dilate_single_mode():
    g = TorusGrid(2, 64)
    f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
    d3 = dilate(f, 3)
    exact = ScalarField.from_function(g, lambda x, y: np.sin(6 * np.pi * x))
    assert np.abs(d3.values - exact.values).max() < 1e-12


def test_dilate_spectral_support_map():
    g = TorusGrid(2, 64)
    f = ScalarField.from_function(g, lambda x, y: np.cos(2 * np.pi * (x + 2 * y)))
    d2 = dilate(f, 2)
    c = d2.coeffs
    # mass must sit exactly on (2, 4); its conjugate (-2, -4) is the
    # implied other half of the spectrum
    mag = np.abs(c)
    assert mag[2, 4] > 0.49
    mag[2, 4] = 0.0
    assert mag.max() < 1e-13


def test_dilate_lp_isometry():
    g = TorusGrid(2, 128)
    rng = np.random.default_rng(6)
    f = random_scalar(g, 3, rng)
    # coprime factor: exact sample permutation, all norms preserved exactly
    for p in (1.0, 2.0, 3.0, np.inf):
        assert norm(dilate(f, 5), p=p) == pytest.approx(norm(f, p=p), rel=1e-14)
    # dyadic factor: Parseval-exact at p = 2; other exponents see the
    # dilated samples on a coarser sub-lattice, so the quadrature of the
    # kinked integrand |f|^p agrees only at its own accuracy
    assert norm(dilate(f, 4), p=2) == pytest.approx(norm(f, p=2), rel=1e-13)
    for p in (1.0, 3.0):
        assert norm(dilate(f, 4), p=p) == pytest.approx(norm(f, p=p), rel=2e-3)
    # the sup over the sub-lattice can only undershoot, and only slightly
    sup4 = norm(dilate(f, 4), p=np.inf)
    assert sup4 <= norm(f, p=np.inf) + 1e-14
    assert sup4 >= 0.95 * norm(f, p=np.inf)


def test_dilate_aliasing_guard():
    g = TorusGrid(2, 64)
    rng = np.random.default_rng(7)
    f = random_scalar(g, 5, rng)
    with pytest.raises(ValueError):
        dilate(f, 20)


def test_bandwidth_and_lowpass():
    g = TorusGrid(2, 64)
    rng = np.random.default_rng(8)
    f = random_scalar(g, 9, rng)
    assert bandwidth(f) == 9
    assert bandwidth(lowpass(f, 4)) <= 4


def test_leray_annihilates_gradients():
    g = TorusGrid(3, 32)
    rng = numpy_rng = np.random.default_rng(11)
    phi = random_scalar(g, 4, numpy_rng)
    assert norm(leray_project(gradient(phi)), p=2) <= 1e-10 * norm(gradient(phi), p=2)


def test_leray_idempotent_and_solenoidal():
    g = TorusGrid(3, 32)
    rng = np.random.default_rng(12)
    b = VectorField.from_components(
        [random_scalar(g, 4, rng, unit_l2=False) for _ in range(3)])
    pb = leray_project(b)
    assert relative_divergence(pb) <= 1e-10
    assert norm(leray_project(pb) - pb, p=2) <= 1e-10 * max(norm(pb, p=2), 1e-300)


def test_leray_fixes_solenoidal_fields():
    g = TorusGrid(3, 32)
    rng = np.random.default_rng(13)
    b = random_solenoidal(g, 4, rng)
    assert norm(leray_project(b) - b, p=2) <= 1e-12


def test_field_serialization_roundtrip(tmp_path):
    g = TorusGrid(2, 32)
    rng = np.random.default_rng(14)
    f = random_scalar(g, 5, rng)
    h1 = fieldio.write_field(tmp_path / "f.bin", f)
    back = fieldio.read_field(tmp_path / "f.bin")
    assert np.array_equal(back.values, f.values)
    assert h1 == fieldio.content_hash(f)

    b = random_solenoidal(g, 4, rng)
    fieldio.write_field(tmp_path / "b.bin", b)
    back_b = fieldio.read_field(tmp_path / "b.bin")
    for i in range(2):
        assert np.array_equal(back_b[i].values, b[i].values)


@pytest.mark.parametrize("rank", ["scalar", "vector"])
def test_read_field_rejects_a_wrong_length(tmp_path, rank):
    # a cut header, a truncated payload and trailing bytes each raise a
    # ValueError that names the file and the byte count it should have
    g = TorusGrid(2, 16)
    rng = np.random.default_rng(16)
    f = random_scalar(g, 5, rng) if rank == "scalar" else random_solenoidal(g, 4, rng)
    data = fieldio.field_bytes(f)
    expected = 20 + (1 if rank == "scalar" else 2) * 16 ** 2 * 8
    assert len(data) == expected
    for name, bad, count in [("header", data[:10], 20), ("truncated", data[:-8], expected),
                             ("trailing", data + b"\0" * 8, expected)]:
        path = tmp_path / f"{name}.bin"
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.* expected .*{count}"):
            fieldio.read_field(path)


def test_write_field_writes_field_bytes(tmp_path):
    # write_field streams each component from its array; the file and its
    # hash are field_bytes and its sha256, for a scalar, a vector and a
    # field whose values are a broadcast (stride-0) view
    g = TorusGrid(3, 16)
    rng = np.random.default_rng(15)
    fields = {
        "scalar": random_scalar(g, 5, rng),
        "vector": VectorField.from_components(
            [random_scalar(g, 3, rng, unit_l2=False) for _ in range(3)]),
        "broadcast": VectorField.from_components(
            [ScalarField.zero(g), ScalarField.constant(g, -2.5),
             ScalarField(g, np.broadcast_to(rng.standard_normal((16, 1, 16)), g.shape))]),
    }
    assert not fields["broadcast"][2].values.flags.c_contiguous
    for name, f in fields.items():
        path = tmp_path / f"{name}.bin"
        digest = fieldio.write_field(path, f)
        assert path.read_bytes() == fieldio.field_bytes(f), name
        assert digest == hashlib.sha256(fieldio.field_bytes(f)).hexdigest(), name


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        fieldio.read_field(path)
