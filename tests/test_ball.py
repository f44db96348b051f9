"""Ball counterexample: angular pair constraints, field energies, the
unit-size energy defect, fluxes, and the p -> 3/2 norm blow-up."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from mikado_forge.ball import (
    build_fields,
    energy_defect,
    flux_check,
    grad_energy,
    make_alpha_beta,
    singular_norm_report,
)


@pytest.fixture(scope="module")
def pair():
    return make_alpha_beta()


@pytest.fixture(scope="module")
def fields(pair):
    return build_fields(pair, n_r=64, n_sph=12)


def test_constraints(pair):
    res = pair.constraint_residuals
    assert abs(res["int_beta"]) <= 1e-10
    assert abs(res["int_alpha_beta"]) <= 1e-10
    assert abs(res["int_alpha2_beta_plus_2"]) <= 1e-8


def test_alpha2_beta_against_legendre_oracle(pair):
    # independent 1-d Gauss-Legendre quadrature of the closed forms:
    # 2 pi * (-15/(8 pi)) * int_{-1}^{1} u^2 (3u^2 - 1) du = -2
    u, w = npleg.leggauss(32)
    val = 2 * np.pi * float((u ** 2 * (-15 / (8 * np.pi)) * (3 * u ** 2 - 1) * w).sum())
    assert val == pytest.approx(-2.0, abs=1e-12)
    measured = pair.sphere_integral(lambda uu: pair.alpha(uu) ** 2 * pair.beta(uu))
    assert measured == pytest.approx(val, abs=1e-12)


def test_beta_north_pole(pair):
    assert pair.beta(np.array([1.0]))[0] == pytest.approx(-15 / (4 * math.pi), rel=1e-12)


def test_parity_makes_alpha_beta_integral_vanish(pair):
    # odd integrand in u: quadrature zero to machine precision
    assert abs(pair.sphere_integral(
        lambda u: pair.alpha(u) * pair.beta(u))) <= 1e-14


def test_boundary_value_of_v(fields):
    # v = (1 - r^4) alpha vanishes on the sphere by the radial factor
    a = fields.pair.alpha(fields.u)
    assert np.abs((1.0 - 1.0 ** 4) * a).max() == 0.0
    assert np.isfinite(fields.b_r).all()  # nodes avoid the origin


def test_grad_energy_closed_form(fields):
    exact = 64 * math.pi / 15
    assert grad_energy(fields) == pytest.approx(exact, rel=1e-10)


def test_energy_defect_unit_magnitude(fields):
    ed = energy_defect(fields)
    assert ed["drift_term"] == pytest.approx(1.0, abs=1e-3)
    assert ed["defect_magnitude_err"] <= 1e-3
    assert ed["pairing"] == pytest.approx(ed["grad_energy"] + ed["drift_term"], rel=1e-12)


def test_defect_vanishes_without_angular_weight(pair):
    silent = dataclasses.replace(pair, beta_coeffs=(0.0,) * len(pair.beta_coeffs))
    fs = build_fields(silent, n_r=64, n_sph=12)
    assert energy_defect(fs)["drift_term"] == pytest.approx(0.0, abs=1e-14)


def test_defect_scales_quadratically_in_alpha(pair, fields):
    scaled = dataclasses.replace(
        pair, alpha_coeffs=tuple(2.0 * c for c in pair.alpha_coeffs))
    fs = build_fields(scaled, n_r=64, n_sph=12)
    ratio = energy_defect(fs)["defect"] / energy_defect(fields)["defect"]
    assert ratio == pytest.approx(4.0, rel=1e-12)


def test_quadrature_convergence(fields, pair):
    finer = build_fields(pair, n_r=128, n_sph=24)
    assert abs(energy_defect(finer)["defect"]
               - energy_defect(fields)["defect"]) <= 1e-5
    assert abs(grad_energy(finer) - grad_energy(fields)) <= 1e-5


def test_flux_through_spheres(fields):
    # every sphere about the origin carries the one flux int_{S^2} beta
    fl = flux_check(fields)
    assert set(fl) == {"flux", "max_abs"}
    assert fl["max_abs"] == abs(fl["flux"]) <= 1e-9


def test_singular_norms(pair):
    rep = singular_norm_report(pair, p_list=(1.4, 1.45, 1.49),
                               cutoffs=(1e-2, 1e-3, 1e-4))
    for row in rep["rows"]:
        assert row["monotone_growth"]
        assert np.isfinite(row["full_graded"])
    # the p = 1.4 value is finite and already near its graded quadrature
    row14 = rep["rows"][0]
    assert row14["p"] == 1.4
    assert row14["full_graded"] > row14["partial"][-1]
    # closer to 3/2 the partial integrals grow much faster
    assert rep["rows"][-1]["partial"][-1] > row14["partial"][-1]


def test_build_preconditions(pair):
    with pytest.raises(ValueError):
        build_fields(pair, n_r=16, n_sph=12)
    with pytest.raises(ValueError):
        build_fields(pair, n_r=64, n_sph=6)
