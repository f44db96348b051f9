"""Mikado family construction: cancellation identities, disjointness,
normalisation, concentration scalings."""

import dataclasses

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import assume, given, settings, strategies as st

from mikado_forge.mikado import (
    DIV_TOL,
    MEAN_TOL,
    PRODUCT_TOL,
    FamilyReport,
    _axis_defect,
    _expand_along,
    _snap_offset,
    build_family,
    gamma_exponent,
    scaling_report,
    verify_family,
)
from mikado_forge import torus
from mikado_forge.torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _mode_norm,
    grad_magnitude,
    norm,
    relative_divergence,
)


@pytest.fixture(scope="module")
def family64():
    return build_family(3, 1.5, 8.0, TorusGrid(3, 64))


def test_family_identities(family64):
    rep = verify_family(family64)
    assert max(rep.div_field_rel) <= 1e-9
    assert max(rep.div_product_rel) <= 1e-9
    assert max(rep.mean_density) <= 1e-9
    assert max(rep.mean_field) <= 1e-9
    assert max(rep.product_integral_err) <= 1e-8
    assert rep.cross_disjointness == 0.0
    assert rep.passed


def test_product_integral_is_basis_vector(family64):
    fam = family64
    for j in range(3):
        for i in range(3):
            val = float((fam.densities[j].values * fam.fields[j][i].values).mean())
            target = 1.0 if i == j else 0.0
            assert val == pytest.approx(target, abs=1e-8)


def test_build_preconditions():
    g = TorusGrid(3, 64)
    with pytest.raises(ValueError):
        build_family(3, 1.5, 5.0, g)          # mu <= 2d
    with pytest.raises(ValueError):
        build_family(3, 1.5, 32.0, g)         # unresolved tube at factor 8
    with pytest.raises(ValueError):
        build_family(3, 1.0, 8.0, g)          # p must exceed 1
    with pytest.raises(ValueError):
        build_family(2, 1.5, 8.0, TorusGrid(2, 64))  # crossing tubes in d = 2
    with pytest.raises(ValueError):
        build_family(3, 1.5, 8.0, g, resolution_factor=1.0)


def test_tampered_family_detected(family64):
    bad = dataclasses.replace(
        family64,
        densities=tuple([family64.densities[0] * 2.0] + list(family64.densities[1:])))
    rep = verify_family(bad)
    assert not rep.checks["product_integral"]
    assert rep.product_integral_err[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.checks == _full_grid_verify(bad).checks


def test_product_l1_mu_independent():
    g = TorusGrid(3, 64)
    sums = []
    for mu in (8.0, 16.0, 32.0):
        fam = build_family(3, 1.5, mu, g, resolution_factor=2.0)
        rep = verify_family(fam)
        sums.append(rep.product_l1_sum)
    ref = sums[0]
    for s in sums[1:]:
        assert abs(s - ref) <= 0.05 * ref


def test_measured_m_dominates_product_line(family64):
    assert family64.M >= 3.0 - 1e-9
    assert family64.M_components["product_l1"] == pytest.approx(3.0, abs=1e-12)


def test_gamma_formula():
    assert gamma_exponent(4, 8 / 7) == pytest.approx(1 / 8, abs=1e-12)
    # window boundary: gamma vanishes at p = 2(d-1)/(d+1)
    d = 5
    p_star = 2 * (d - 1) / (d + 1)
    assert gamma_exponent(d, p_star) == pytest.approx(0.0, abs=1e-12)
    # d = 3 window is empty: gamma negative for every p > 1
    assert gamma_exponent(3, 1.5) < 0
    assert gamma_exponent(3, 1.01) < 0


def test_scaling_exponent_formulas():
    # d=3, p=3/2, r=3, k=0: density exponent (d-1)(1/p' - 1/r) = 2(1/3-1/3) = 0
    sr = scaling_report(3, 1.5, 3.0, 0, [8, 16, 32], n=256)
    assert sr.predicted["theta"] == pytest.approx(0.0, abs=1e-12)
    # d=3, p=3/2, r=1, k=0: field exponent 2(2/3 - 1) = -2/3
    sr2 = scaling_report(3, 1.5, 1.0, 0, [8, 16, 32, 64], n=512)
    assert sr2.predicted["w"] == pytest.approx(-2 / 3, abs=1e-12)
    assert abs(sr2.fitted["w"] - sr2.predicted["w"]) <= 0.1


def test_scaling_fits_match_predictions():
    for r in (1.0, 2.0, 3.0):
        sr = scaling_report(3, 1.5, r, 0, [8, 16, 32, 64], n=512)
        assert sr.passed, (r, sr.fitted, sr.predicted)
    sr1 = scaling_report(3, 1.5, 2.0, 1, [8, 16, 32, 64], n=512)
    assert abs(sr1.fitted["theta"] - sr1.predicted["theta"]) <= 0.15


def test_h1_slope_sign_follows_gamma():
    # d=4, p=8/7: gamma = 1/8 > 0, H1 norms decrease with concentration
    sr4 = scaling_report(4, 8 / 7, 2.0, 0, [9, 16, 32], n=128, resolution_factor=4.0)
    assert sr4.predicted["theta_h1"] == pytest.approx(-1 / 8, abs=1e-12)
    assert abs(sr4.fitted["theta_h1"] - (-1 / 8)) <= 0.1
    assert sr4.measured_theta_h1[0] > sr4.measured_theta_h1[-1]
    # d=3, p=8/7: gamma < 0, H1 norms grow
    sr3 = scaling_report(3, 8 / 7, 2.0, 0, [8, 16, 32, 64], n=512)
    assert sr3.measured_theta_h1[0] < sr3.measured_theta_h1[-1]
    assert abs(sr3.fitted["theta_h1"] - sr3.predicted["theta_h1"]) <= 0.1


def test_scaling_report_preconditions():
    with pytest.raises(ValueError):
        scaling_report(3, 1.5, 2.0, 0, [8, 16], n=256)     # too few points
    with pytest.raises(ValueError):
        scaling_report(3, 1.5, 2.0, 2, [8, 16, 32], n=256)  # k out of range
    with pytest.raises(ValueError):
        scaling_report(3, 1.5, 2.0, 0, [8, 16, 64], n=256)  # 64 unresolved


def test_transverse_norms_equal_full_grid(family64):
    # pipes are constant along their axis, so full-grid norms equal the
    # transverse ones the scaling path uses
    fam = family64
    grid_t = TorusGrid(dim=2, n=64)
    for j in range(3):
        full = norm(fam.densities[j], p=1.7)
        from mikado_forge.torus import ScalarField
        trans = norm(ScalarField(grid_t, fam.density_transverse(j)), p=1.7)
        assert full == pytest.approx(trans, rel=1e-12)


# ---------------------------------------------------------------------------
# verify_family against a full-grid reading of the same family

def _axis_derivative_l2(grid, values, axis):
    """||d/dx_axis values||_2 by a 1-d real spectral derivative on the full
    grid, Nyquist mode zeroed."""
    n = grid.n
    k = np.arange(n // 2 + 1, dtype=float)
    k[n // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = k.size
    spec = sfft.rfft(values, axis=axis) * (2j * np.pi * k).reshape(shape)
    dv = sfft.irfft(spec, n=n, axis=axis)
    return float(np.mean(dv * dv)) ** 0.5


def _w12_norm(f):
    return _mode_norm("W1R", 2.0, f.values, grad_magnitude(f))


def _full_grid_verify(fam):
    """Every identity of verify_family measured on the full d-dimensional
    grid: spectral divergences along the pipe axis, full-grid means and
    products.  A second reading of the family to check the first against."""
    d, n = fam.d, fam.grid.n
    grid_t = TorusGrid(dim=d - 1, n=n)
    div_field, div_product, mean_den, mean_fld, prod_err = [], [], [], [], []
    for j in range(d):
        theta, w_j = fam.densities[j], fam.fields[j][j]
        prod_vals = theta.values * w_j.values
        den_w = _w12_norm(ScalarField(grid_t, np.take(w_j.values, 0, axis=j))) or 1.0
        den_p = _w12_norm(ScalarField(grid_t, np.take(prod_vals, 0, axis=j))) or 1.0
        div_field.append(_axis_derivative_l2(fam.grid, w_j.values, j) / den_w)
        div_product.append(_axis_derivative_l2(fam.grid, prod_vals, j) / den_p)
        mean_den.append(abs(theta.mean) / max(norm(theta, p=1), 1e-300))
        mean_fld.append(abs(w_j.mean) / max(norm(w_j, p=1), 1e-300))
        prod_err.append(max(
            abs(float((theta.values * fam.fields[j][i].values).mean()) - (i == j))
            for i in range(d)))
    cross = max(float(np.abs(fam.densities[j].values * fam.fields[i][i].values).max())
                for j in range(d) for i in range(d) if i != j)
    prod_l1 = sum(float(np.abs(fam.densities[j].values * fam.fields[j][j].values).mean())
                  for j in range(d))
    checks = {
        "div_field": max(div_field) <= DIV_TOL,
        "div_product": max(div_product) <= DIV_TOL,
        "mean_density": max(mean_den) <= MEAN_TOL,
        "mean_field": max(mean_fld) <= MEAN_TOL,
        "product_integral": max(prod_err) <= PRODUCT_TOL,
        "cross_disjoint": cross == 0.0,
        "product_l1_bound": prod_l1 <= fam.M + 1e-9,
    }
    return FamilyReport(
        d=d, p=fam.p, mu=fam.mu, n=n, div_field_rel=div_field, div_product_rel=div_product,
        mean_density=mean_den, mean_field=mean_fld, product_integral_err=prod_err,
        cross_disjointness=cross, product_l1_sum=prod_l1, measured_M=fam.M, checks=checks)


def _assert_agrees_with_full_grid(fam):
    rep, ref = verify_family(fam), _full_grid_verify(fam)
    assert rep.checks == ref.checks
    assert rep.passed
    # relative roundoff-level figures: absolute agreement
    for key in ("div_field_rel", "div_product_rel", "mean_density", "mean_field",
                "product_integral_err"):
        np.testing.assert_allclose(getattr(rep, key), getattr(ref, key), rtol=0.0,
                                   atol=1e-12, err_msg=key)
    assert rep.cross_disjointness == ref.cross_disjointness == 0.0
    assert rep.product_l1_sum == pytest.approx(ref.product_l1_sum, rel=1e-12, abs=0.0)
    assert rep.measured_M == pytest.approx(ref.measured_M, rel=1e-12, abs=0.0)


@st.composite
def _family_params(draw):
    """(d, n, p, mu) of a small family at resolution factor 2."""
    d = draw(st.sampled_from([3, 4]))
    n = draw(st.sampled_from([16, 24, 32])) if d == 3 else 24
    lo, hi = (6.5, n / 2) if d == 3 else (9.0, 12.0)
    mu = draw(st.floats(lo, hi))
    p = draw(st.floats(1.05, 3.0))
    return d, n, p, mu


@settings(deadline=None, max_examples=25, database=None)
@given(_family_params())
def test_verify_family_agrees_with_full_grid(params):
    d, n, p, mu = params
    try:
        fam = build_family(d, p, mu, TorusGrid(d, n), resolution_factor=2.0)
    except ValueError:
        assume(False)
    _assert_agrees_with_full_grid(fam)


def test_verify_family_agrees_with_full_grid_d5():
    # the smallest d = 5 family that builds
    _assert_agrees_with_full_grid(
        build_family(5, 1.3, 12.0, TorusGrid(5, 24), resolution_factor=2.0))


def _noisy_density(fam):
    # theta_0 as a full array, modulated along axis 0 inside its own tube
    x0 = -0.5 + np.arange(fam.grid.n) / fam.grid.n
    theta = fam.densities[0].values
    wobble = 1.0 + 1e-3 * np.sin(2 * np.pi * x0).reshape((-1,) + (1,) * (fam.d - 1))
    return dataclasses.replace(
        fam, densities=(ScalarField(fam.grid, theta * wobble),) + fam.densities[1:])


def _pipe0_on_pipe1(fam):
    # pipe 0's transverse slices rolled so that its tube is centred where
    # pipe 1's is, on every transverse coordinate
    d, n = fam.d, fam.grid.n
    shift = round(n * (_snap_offset(d, n, 2) - _snap_offset(d, n, 1)))

    def moved(values):
        t = np.roll(np.take(values, 0, axis=0), shift, axis=tuple(range(d - 1)))
        return _expand_along(t, 0, n, d)

    comps = list(fam.fields[0].components)
    comps[0] = ScalarField(fam.grid, moved(comps[0].values))
    return dataclasses.replace(
        fam, densities=(ScalarField(fam.grid, moved(fam.densities[0].values)),)
        + fam.densities[1:],
        fields=(VectorField.from_components(comps),) + fam.fields[1:])


@pytest.mark.parametrize("mutate, failing", [
    (_noisy_density, "div_product"),
    (_pipe0_on_pipe1, "cross_disjoint"),
], ids=["not-constant-along-axis", "pipe-on-pipe"])
def test_mutated_family_fails(family64, mutate, failing):
    bad = mutate(family64)
    rep, ref = verify_family(bad), _full_grid_verify(bad)
    assert [name for name, ok in rep.checks.items() if not ok] == [failing]
    assert rep.checks == ref.checks


def test_cross_overlap_is_the_full_grid_max(family64):
    bad = _pipe0_on_pipe1(family64)
    assert verify_family(bad).cross_disjointness == _full_grid_verify(bad).cross_disjointness > 0.0


def test_off_axis_field_component_detected(family64):
    # field 0 gains a component along e_1 that varies along x_1, so it is
    # no longer divergence-free although w_0,0 is untouched
    g = family64.grid
    x = -0.5 + np.arange(g.n) / g.n
    wave = np.sin(2 * np.pi * x)
    comps = list(family64.fields[0].components)
    comps[1] = ScalarField(g, np.broadcast_to(wave[None, :, None] * wave[:, None, None], g.shape))
    bad = dataclasses.replace(
        family64, fields=(VectorField.from_components(comps),) + family64.fields[1:])
    assert relative_divergence(bad.fields[0]) > 0.01
    rep = verify_family(bad)
    assert rep.div_field_rel[0] > 0.0 and rep.div_product_rel[0] > 0.0
    assert rep.div_field_rel[1:] == [0.0, 0.0]
    assert not rep.checks["div_field"] and not rep.checks["div_product"]


def _materialised(fam):
    # the family with every field a full array: no stride-0 axis
    def full(f):
        return ScalarField(f.grid, np.array(f.values))

    return dataclasses.replace(
        fam, densities=tuple(full(t) for t in fam.densities),
        fields=tuple(VectorField.from_components([full(c) for c in w.components])
                     for w in fam.fields))


def test_materialised_family_gives_the_same_report(family64):
    # verify_family reads a broadcast view on the elements it stores; a
    # full copy of every field reads the same report, field by field
    full = _materialised(family64)
    assert all(0 not in c.values.strides for w in full.fields for c in w.components)
    assert verify_family(full) == verify_family(family64)
    # one perturbed slice along the pipe axis is still caught
    w = np.array(full.fields[0][0].values)
    w[5] *= 1.0 + 1e-6
    comps = list(full.fields[0].components)
    comps[0] = ScalarField(full.grid, w)
    rep = verify_family(dataclasses.replace(
        full, fields=(VectorField.from_components(comps),) + full.fields[1:]))
    assert rep.div_field_rel[0] > DIV_TOL and not rep.checks["div_field"]
    assert rep.div_field_rel[1:] == [0.0, 0.0]


def test_axis_defect_of_a_view_is_read_along_its_own_axis():
    # stride 0 along axes 1 and 2 only: constant there, not along axis 0
    v = np.broadcast_to(np.arange(1.0, 5.0)[:, None, None], (4, 3, 2))
    assert _axis_defect(v, 0) == 0.75
    assert _axis_defect(v, 1) == _axis_defect(v, 2) == 0.0
    assert _axis_defect(np.array(v), 0) == 0.75


def test_verify_family_makes_no_transform(family64, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_family made a transform")

    monkeypatch.setattr(torus, "_fft_of", refuse)
    monkeypatch.setattr(torus.nfft, "rfft", refuse)
    monkeypatch.setattr(torus.nfft, "rfftn", refuse)
    assert verify_family(family64).passed
