"""Fast-oscillation calculus: antidivergence, improved Hoelder,
quantitative Riemann-Lebesgue."""

import numpy as np
import pytest

from mikado_forge.oscillation import (
    RATE_TOL,
    OscillationReport,
    antidivergence,
    antidivergence_sweep,
    improved_holder_check,
    riemann_lebesgue_check,
)
from mikado_forge.ratefit import fit_loglog
from mikado_forge.torus import (
    ScalarField,
    TorusGrid,
    dilate,
    divergence,
    lowpass,
    norm,
    random_scalar,
)


def test_antidivergence_single_mode():
    g = TorusGrid(3, 32)
    h = ScalarField.from_function(g, lambda x, y, z: np.sin(2 * np.pi * x))
    u = antidivergence(h)
    exact = ScalarField.from_function(
        g, lambda x, y, z: -np.cos(2 * np.pi * x) / (2 * np.pi))
    assert norm(u[0] - exact, p=2) < 1e-14
    assert norm(u[1], p=2) == 0.0
    assert norm(u[2], p=2) == 0.0
    z = antidivergence(ScalarField.zero(g))
    assert norm(z, p=2) == 0.0


def test_antidivergence_right_inverse():
    g = TorusGrid(3, 32)
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = random_scalar(g, 5, rng)
        assert norm(divergence(antidivergence(h)) - h, p=2) <= 1e-11 * norm(h, p=2)


def test_antidivergence_rejects_nonzero_mean():
    g = TorusGrid(2, 32)
    with pytest.raises(ValueError):
        antidivergence(ScalarField.constant(g, 1.0))


def test_antidivergence_dilation_scaling_exact():
    g = TorusGrid(2, 256)
    rng = np.random.default_rng(1)
    h = random_scalar(g, 3, rng)
    base = norm(antidivergence(h), p=2)
    for lam in (2, 4, 8):
        scaled = norm(antidivergence(dilate(h, lam)), p=2)
        assert scaled == pytest.approx(base / lam, rel=1e-12)


def test_antidivergence_oscillation_gain_rate():
    g = TorusGrid(2, 256)
    rng = np.random.default_rng(2)
    f = 1.0 + 0.5 * random_scalar(g, 2, rng)
    gg = random_scalar(g, 3, rng)
    lams = [4, 8, 16, 32]
    mags = []
    for lam in lams:
        h = f * dilate(gg, lam)
        h = h - h.mean
        mags.append(norm(antidivergence(h), p=2))
    slope = fit_loglog(lams, mags)
    assert abs(slope + 1.0) <= RATE_TOL
    # the sweep the CLI and criterion 3 run is this loop
    assert antidivergence_sweep(f, gg, lams) == (mags, slope)


def test_improved_holder_trivial_cases():
    g = TorusGrid(2, 128)
    rng = np.random.default_rng(3)
    gg = random_scalar(g, 3, rng)
    const = ScalarField.constant(g, 1.7)
    # g constant: norms factor exactly
    rep = improved_holder_check(1.0 + 0.2 * random_scalar(g, 3, rng),
                                ScalarField.constant(g, 0.8), [2, 4], p=2.0)
    assert max(rep.measured) < 1e-12
    # f constant: |c| ||g||_p factors exactly (coprime dilations resample
    # bijectively, keeping every quadrature norm identical)
    rep2 = improved_holder_check(const, gg, [3, 5], p=1.5)
    assert max(rep2.measured) < 1e-10 * norm(gg, p=1.5)


def test_improved_holder_bound_and_rate():
    g = TorusGrid(2, 256)
    rng = np.random.default_rng(4)
    base = random_scalar(g, 2, rng)
    # composed field with a genuine spectral tail, band-limited by truncation
    f = 1.0 + 0.5 * lowpass(ScalarField(g, np.abs(base.values) ** 3), g.n // 3)
    gg = random_scalar(g, 3, rng)
    rep = improved_holder_check(f, gg, [4, 8, 16, 32], p=2.0)
    assert rep.passed
    assert rep.fitted_rate <= -0.5 + RATE_TOL
    # residual is non-increasing across the dyadic sweep (10% noise allowed)
    for a, b in zip(rep.measured, rep.measured[1:]):
        assert b <= a * 1.1


def test_improved_holder_spec_example_is_degenerate():
    # f depending only on x1 paired with g(x2): norms factor exactly at
    # every dilation, so the residual vanishes identically
    g = TorusGrid(2, 128)
    f = ScalarField.from_function(g, lambda x, y: 1 + 0.5 * np.sin(2 * np.pi * x))
    gg = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * y))
    rep = improved_holder_check(f, gg, [4, 8, 16, 32], p=2.0)
    assert max(rep.measured) < 1e-12
    assert rep.passed


def test_riemann_lebesgue_bound_random_suite():
    g = TorusGrid(2, 256)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = 1.0 + 0.3 * random_scalar(g, 3, rng)
        gg = random_scalar(g, 3, rng)
        rep = riemann_lebesgue_check(f, gg, [3, 9, 27])
        assert rep.passed


def test_riemann_lebesgue_trivial_cases():
    g = TorusGrid(2, 128)
    rng = np.random.default_rng(6)
    gg = random_scalar(g, 3, rng)
    rep = riemann_lebesgue_check(ScalarField.constant(g, 2.0), gg, [2, 4, 8])
    assert max(rep.measured) < 1e-13
    f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
    rep2 = riemann_lebesgue_check(f, f, 2)
    assert rep2.measured[0] < 1e-15


def test_riemann_lebesgue_band_limited_exponential_decay():
    g = TorusGrid(2, 256)
    es = ScalarField.from_function(g, lambda x, y: np.exp(np.sin(2 * np.pi * x)))
    es = lowpass(es, 8)
    sg = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
    rep = riemann_lebesgue_check(es, sg, [3, 9, 27])
    assert rep.passed
    for a, b in zip(rep.measured, rep.measured[1:]):
        assert b <= max(a, 1e-15)


def test_riemann_lebesgue_rejects_nonzero_mean():
    g = TorusGrid(2, 128)
    rng = np.random.default_rng(7)
    f = random_scalar(g, 3, rng)
    with pytest.raises(ValueError):
        riemann_lebesgue_check(f, ScalarField.constant(g, 1.0), [2])


def test_report_validation():
    OscillationReport(
        lemma="riemann_lebesgue", params={"d": 2},
        lambda_list=[2, 4], measured=[0.1, 0.05], bound=[0.2, 0.1],
        fitted_rate=-1.0, passed=True)
    with pytest.raises(ValueError):
        OscillationReport(lemma="x", params={}, lambda_list=[4, 2],
                          measured=[0, 0], bound=[0, 0],
                          fitted_rate=0.0, passed=True)
    with pytest.raises(ValueError):
        OscillationReport(lemma="x", params={}, lambda_list=[2, 4],
                          measured=[-1, 0], bound=[0, 0],
                          fitted_rate=0.0, passed=True)
