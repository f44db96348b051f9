"""The classical point-singularity counterexample on the unit ball in R^3.

A radial drift b = r^-2 beta(omega) e_r with a mean-zero angular weight and
the bounded solution v = (1 - r^4) alpha(omega) give a weak solution whose
energy pairing misses int |grad v|^2 by exactly the normalisation of
int_{S^2} alpha^2 beta: an explicit failure of the energy identity for a
drift that is in L^p only for p < 3/2.

Everything here is tensor quadrature on a radial x spherical grid: Gauss
nodes in a graded radial variable (clustered at the singularity), a
Gauss-Legendre rule in cos(theta).  The angular data is zonal, so the
azimuthal integration contributes an exact 2*pi factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = [
    "SphericalPair",
    "BallFieldSet",
    "make_alpha_beta",
    "build_fields",
    "energy_defect",
    "flux_check",
    "singular_norm_report",
    "grad_energy",
]

MAX_DEGREE = 8


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = npleg.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


@dataclass(frozen=True)
class SphericalPair:
    """Zonal pair (alpha, beta) as Legendre coefficients in u = cos(theta),
    with the three defining constraint residuals measured by quadrature."""

    alpha_coeffs: tuple[float, ...]
    beta_coeffs: tuple[float, ...]
    constraint_residuals: dict

    def alpha(self, u: np.ndarray) -> np.ndarray:
        return npleg.legval(u, self.alpha_coeffs)

    def beta(self, u: np.ndarray) -> np.ndarray:
        return npleg.legval(u, self.beta_coeffs)

    def alpha_dtheta(self, u: np.ndarray) -> np.ndarray:
        """d(alpha)/d(theta) = -sin(theta) * alpha'(u)."""
        der = npleg.legder(self.alpha_coeffs)
        return -np.sqrt(np.maximum(1.0 - u * u, 0.0)) * npleg.legval(u, der)

    def sphere_integral(self, values_of_u) -> float:
        """int_{S^2} h(u) dOmega = 2 pi int_{-1}^{1} h(u) du, Gauss-exact."""
        u, w = npleg.leggauss(2 * MAX_DEGREE + 4)
        return float(2.0 * np.pi * (values_of_u(u) * w).sum())


def make_alpha_beta() -> SphericalPair:
    """The closed-form pair alpha = u, beta = -(15/(8 pi)) (3 u^2 - 1).

    beta is a pure second zonal harmonic (mean-zero), alpha * beta is odd,
    and the normalisation puts int alpha^2 beta at -2.
    """
    alpha = (0.0, 1.0) + (0.0,) * (MAX_DEGREE - 1)
    # 3u^2 - 1 = 2 P_2(u)
    beta = (0.0, 0.0, -15.0 / (4.0 * math.pi)) + (0.0,) * (MAX_DEGREE - 2)
    pair = SphericalPair(alpha_coeffs=alpha, beta_coeffs=beta, constraint_residuals={})
    res = {
        "int_beta": pair.sphere_integral(pair.beta),
        "int_alpha_beta": pair.sphere_integral(lambda u: pair.alpha(u) * pair.beta(u)),
        "int_alpha2_beta_plus_2": pair.sphere_integral(
            lambda u: pair.alpha(u) ** 2 * pair.beta(u)) + 2.0,
    }
    object.__setattr__(pair, "constraint_residuals", res)
    return pair


@dataclass(frozen=True)
class BallFieldSet:
    """Sampled counterexample data on the tensor grid (r_i, u_k)."""

    pair: SphericalPair
    r: np.ndarray          # radial nodes in (0, 1), clustered near 0
    wr: np.ndarray         # weights for int_0^1 . dr
    u: np.ndarray          # Gauss nodes in cos(theta)
    wu: np.ndarray
    b_r: np.ndarray        # radial drift component beta(u)/r^2, shape (n_r, n_u)
    v: np.ndarray          # (1 - r^4) alpha(u)
    dv_r: np.ndarray       # -4 r^3 alpha(u)
    dv_theta_over_r: np.ndarray  # (1 - r^4)/r * d(alpha)/d(theta)

    def volume_integral(self, integrand: np.ndarray) -> float:
        """int_B f dV for zonal f sampled on the grid (2 pi azimuthal factor)."""
        radial = (integrand * self.wu[None, :]).sum(axis=1)
        return float(2.0 * np.pi * (radial * self.r ** 2 * self.wr).sum())


def build_fields(pair: SphericalPair, n_r: int = 64, n_sph: int = 12) -> BallFieldSet:
    """Sample b, v, grad v.  n_r >= 32 radial Gauss nodes (graded r = s^2);
    n_sph >= 9 Gauss nodes in cos(theta) (rule exact to degree 2 n_sph - 1)."""
    if n_r < 32:
        raise ValueError(f"need n_r >= 32, got {n_r}")
    if n_sph < 9:
        raise ValueError(f"need n_sph >= 9 for degree-16 exactness, got {n_sph}")
    s, ws = _gauss01(n_r)
    r = s ** 2
    wr = 2.0 * s * ws
    u, wu = npleg.leggauss(n_sph)
    a = pair.alpha(u)[None, :]
    be = pair.beta(u)[None, :]
    at = pair.alpha_dtheta(u)[None, :]
    rc = r[:, None]
    return BallFieldSet(
        pair=pair, r=r, wr=wr, u=u, wu=wu,
        b_r=be / rc ** 2,
        v=(1.0 - rc ** 4) * a,
        dv_r=-4.0 * rc ** 3 * a,
        dv_theta_over_r=(1.0 - rc ** 4) / rc * at,
    )


def grad_energy(fs: BallFieldSet) -> float:
    """int_B |grad v|^2 (closed form 64 pi / 15 for the standard pair)."""
    return fs.volume_integral(fs.dv_r ** 2 + fs.dv_theta_over_r ** 2)


def energy_defect(fs: BallFieldSet) -> dict:
    """Energy bookkeeping of the counterexample.

    drift_term = int_B b . v grad v; under the natural pairing
    (f, v) = int (grad v + b v) . grad v the identity defect
    int |grad v|^2 - (f, v) equals -drift_term, and the normalisation of the
    angular pair forces |defect| = 1.
    """
    drift = fs.volume_integral(fs.b_r * fs.v * fs.dv_r)
    ge = grad_energy(fs)
    return {
        "grad_energy": ge,
        "drift_term": drift,
        "pairing": ge + drift,
        "defect": -drift,
        "defect_magnitude_err": abs(abs(drift) - 1.0),
    }


def flux_check(fs: BallFieldSet) -> dict:
    """Flux of b through the spheres about the origin: int_{S^2} beta = 0
    certifies div b = 0 away from the origin.

    On the sphere S_r, b . n = beta(u)/r^2 and the surface element is
    r^2 dOmega, so r cancels: every radius has the one flux int_{S^2} beta."""
    flux = float(2.0 * np.pi * (fs.pair.beta(fs.u) * fs.wu).sum())
    return {"flux": flux, "max_abs": abs(flux)}


def _radial_power_integral(q: float, lo: float, hi: float) -> float:
    """int_lo^hi r^q dr by 96-node Gauss quadrature in the graded variable
    r = lo + (hi - lo) t^grading (accurate for endpoint singularities)."""
    grading = 5.0
    t, wt = _gauss01(96)
    r = lo + (hi - lo) * t ** grading
    dr = (hi - lo) * grading * t ** (grading - 1.0)
    return float(((r ** q) * dr * wt).sum())


def singular_norm_report(pair: SphericalPair, p_list=(1.4, 1.45, 1.49),
                         cutoffs=(1e-2, 1e-3, 1e-4)) -> dict:
    """||b||_p^p partial integrals int_{delta}^{1} r^{2-2p} dr x angular
    factor, per inner cutoff delta: finite for p < 3/2 but growing without
    bound as p -> 3/2 from below."""
    ang = {p: pair.sphere_integral(lambda u: np.abs(pair.beta(u)) ** p) for p in p_list}
    rows = []
    for p in p_list:
        partials = [ang[p] * _radial_power_integral(2.0 - 2.0 * p, lo, 1.0)
                    for lo in cutoffs]
        full = ang[p] * _radial_power_integral(2.0 - 2.0 * p, 0.0, 1.0)
        rows.append({
            "p": p,
            "cutoffs": list(cutoffs),
            "partial": partials,
            "full_graded": full,
            "monotone_growth": all(b > a for a, b in zip(partials, partials[1:])),
        })
    return {"rows": rows}
