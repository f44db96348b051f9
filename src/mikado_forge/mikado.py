"""Mikado pipe families on the torus.

A family at concentration mu consists of d scalar densities and d vector
fields, one pipe per coordinate axis.  Pipe j is constant along e_j and
concentrated in a transverse tube of radius 1/mu around an axis-parallel
line; tubes of different pipes are pairwise disjoint exactly when mu > 2d
(offsets sit on the (2j-1)/(2d) lattice, separation 1/d).

Construction choices that make the cancellation identities exact in the
discrete calculus rather than merely small:

* the transverse profile is odd in its first coordinate and pipe centres
  are snapped onto grid points, so all grid sums of the profile vanish by
  symmetric pairing;
* fields are constant along their pipe axis, so the spectral divergence of
  both the field and the density-field product is zero to roundoff at any
  resolution;
* the profile is renormalised against the build grid quadrature, so the
  density-field product integrates to exactly e_j.

Field values are stored as stride-0 broadcasts of the (d-1)-dimensional
transverse profile; a full family at n = 256 in d = 3 costs under a
megabyte until a consumer materialises products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ratefit import fit_loglog
from .torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _bump,
    _lp_of_values,
    axis_derivative_norm,
    grad_magnitude,
    norm,
)

__all__ = [
    "MikadoProfile",
    "MikadoFamily",
    "FamilyReport",
    "ScalingReport",
    "build_family",
    "verify_family",
    "scaling_report",
    "gamma_exponent",
]

# Ring bump parameters in profile coordinates (support radius < 1).
_RING_CENTER = 0.5
_RING_WIDTH = 0.45

DIV_TOL = 1e-9
MEAN_TOL = 1e-9
PRODUCT_TOL = 1e-8


def gamma_exponent(d: int, p: float) -> float:
    """(d-1) * (1/p + 1/2 - (1 + 1/(d-1))); positive iff p < 2(d-1)/(d+1)."""
    return (d - 1) * (1.0 / p + 0.5 - (1.0 + 1.0 / (d - 1)))


@dataclass(frozen=True)
class MikadoProfile:
    """Transverse profile phi(z) = ring(|z|) z_1/|z| on the unit ball of
    R^(d-1), where ring is the standard bump centred on |z| = 1/2: smooth,
    compactly supported, odd in z_1 (hence mean-zero), and L2-normalised
    against the build grid (scale below)."""

    transverse_dim: int
    scale: float  # multiplies the raw shape; fixed by grid quadrature

    def raw(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Unscaled shape at z = coords (broadcastable arrays)."""
        r2 = sum(c * c for c in coords)
        r = np.sqrt(r2)
        t = (r - _RING_CENTER) / _RING_WIDTH
        ring = _bump(t * t)
        with np.errstate(invalid="ignore", divide="ignore"):
            ang = np.where(r > 0.0, coords[0] / np.where(r > 0.0, r, 1.0), 0.0)
        return ring * ang

    def __call__(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        return self.scale * self.raw(coords)


def _snap_offset(d: int, n: int, j: int) -> float:
    """Pipe-centre coordinate (2j-1)/(2d) snapped onto the grid."""
    return round(n * (2 * j - 1) / (2 * d)) / n


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + 0.5) % 1.0 - 0.5


def _pipe_profile(d: int, mu: float, n: int, offset: float) -> tuple[np.ndarray, float]:
    """Samples of one pipe's profile phi(mu * wrap(y - offset)) on the
    (d-1)-dim transverse grid, all transverse coordinates sharing the
    offset, and the scale that makes the grid quadrature of
    mu^(d-1) phi^2 exactly 1 (so theta_j . w_j integrates to exactly 1).
    Returns (scaled samples, scale)."""
    m = d - 1
    delta = mu * _wrap(-0.5 + np.arange(n) / n - offset)
    coords = []
    for ax in range(m):
        shape = [1] * m
        shape[ax] = n
        coords.append(delta.reshape(shape))
    raw = MikadoProfile(transverse_dim=m, scale=1.0).raw(coords)
    s2 = float((raw * raw).mean())
    if s2 <= 0.0:
        raise ValueError("profile vanished on the grid; increase n")
    scale = 1.0 / math.sqrt(mu ** m * s2)
    return scale * raw, scale


def _expand_along(values: np.ndarray, axis: int, n: int, d: int) -> np.ndarray:
    """Broadcast a transverse array to the full grid, constant along `axis`."""
    expanded = np.expand_dims(values, axis=axis)
    view = np.broadcast_to(expanded, (n,) * d)
    return view  # read-only, stride 0 along the pipe axis


@dataclass(frozen=True, eq=False)
class MikadoFamily:
    d: int
    p: float
    mu: float
    grid: TorusGrid
    densities: tuple[ScalarField, ...]
    fields: tuple[VectorField, ...]
    pipe_offsets: tuple[float, ...]
    a_theta: float
    a_w: float
    profile: MikadoProfile
    gamma: float
    M: float
    M_components: dict

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    def density_transverse(self, j: int) -> np.ndarray:
        """Transverse slice of density j (amplitude included)."""
        return np.take(self.densities[j].values, 0, axis=j)

    def field_transverse(self, j: int) -> np.ndarray:
        """Transverse slice of the nonzero component of field j."""
        return np.take(self.fields[j][j].values, 0, axis=j)


def _transverse_norm(grid_t: TorusGrid, values: np.ndarray, p: float,
                     flavor: str = "Lp") -> float:
    return norm(ScalarField(grid_t, values), p=p, flavor=flavor)


def _measure_m(d: int, p: float, mu: float, grid_t: TorusGrid,
               prof_theta: np.ndarray, prof_w: np.ndarray,
               gamma: float) -> tuple[float, dict]:
    """Measured family constant: the smallest M making the k = 0 norm lines,
    the product line, and (when its exponent is meaningful) the H1 line hold."""
    pc = p / (p - 1.0)
    comp: dict[str, float] = {}
    candidates = [float(d)]  # sum_j ||theta_j w_j||_1 is exactly d
    comp["product_l1"] = float(d)
    for r in sorted({1.0, 2.0, p, pc}):
        st = d * _transverse_norm(grid_t, prof_theta, r)
        sw = d * _transverse_norm(grid_t, prof_w, r)
        et = (d - 1) * (1.0 / pc - 1.0 / r)
        ew = (d - 1) * (1.0 / p - 1.0 / r)
        comp[f"theta_r{r:g}"] = 3.0 * st / mu ** et
        comp[f"w_r{r:g}"] = 3.0 * sw / mu ** ew
        candidates += [comp[f"theta_r{r:g}"], comp[f"w_r{r:g}"]]
    if gamma > 0:
        sh = d * _transverse_norm(grid_t, prof_theta, 2.0, flavor="H1")
        comp["theta_h1"] = sh / mu ** (-gamma)
        candidates.append(comp["theta_h1"])
    return max(candidates), comp


def build_family(
    d: int,
    p: float,
    mu: float,
    grid: TorusGrid,
    resolution_factor: float = 8.0,
) -> MikadoFamily:
    """Construct the d pipes at concentration mu on the given grid.

    Preconditions: d >= 3 (two transversal tubes always cross in d = 2),
    mu > 2d (tube disjointness), p > 1, and n >= resolution_factor * mu so
    the tube profile is grid-resolved.  The default factor 8 gives 16 points
    across a tube; callers may relax it to 2 for identity-only work (the
    cancellation identities are exact at any resolution by construction).
    """
    if d < 3:
        raise ValueError(f"mikado families need d >= 3, got {d}")
    if grid.dim != d:
        raise ValueError(f"grid dimension {grid.dim} does not match d = {d}")
    if mu <= 2 * d:
        raise ValueError(f"concentration must exceed 2d = {2 * d}, got {mu}")
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if resolution_factor < 2.0:
        raise ValueError("resolution_factor below 2 leaves tubes unsampled")
    n = grid.n
    if n < resolution_factor * mu:
        raise ValueError(
            f"grid does not resolve the tube: n = {n} < {resolution_factor} * mu = "
            f"{resolution_factor * mu:g}"
        )

    offsets = tuple(_snap_offset(d, n, j + 1) for j in range(d))
    seps = []
    for a in range(d):
        for b in range(a + 1, d):
            seps.append(abs(_wrap(np.array(offsets[a] - offsets[b]))).item())
    if min(seps) < 2.0 / mu:
        raise ValueError(
            f"snapped pipe offsets too close for mu = {mu}: separation {min(seps):.4f} "
            f"< 2/mu = {2.0 / mu:.4f}"
        )

    pc = p / (p - 1.0)
    a_theta = mu ** ((d - 1) / pc)
    a_w = mu ** ((d - 1) / p)
    grid_t = TorusGrid(dim=d - 1, n=n)

    densities = []
    fields = []
    prof0 = None
    scale0 = 1.0
    for j in range(d):
        prof_vals, scale = _pipe_profile(d, mu, n, offsets[j])
        if j == 0:
            prof0, scale0 = prof_vals, scale
        theta_vals = _expand_along(a_theta * prof_vals, j, n, d)
        w_vals = _expand_along(a_w * prof_vals, j, n, d)
        zero = ScalarField(grid, np.broadcast_to(np.float64(0.0), grid.shape))
        comps = [zero] * d
        comps[j] = ScalarField(grid, w_vals)
        densities.append(ScalarField(grid, theta_vals))
        fields.append(VectorField.from_components(comps))

    profile = MikadoProfile(transverse_dim=d - 1, scale=scale0)
    gam = gamma_exponent(d, p)
    m_val, m_comp = _measure_m(d, p, mu, grid_t, a_theta * prof0,
                               a_w * prof0, gam)
    return MikadoFamily(
        d=d, p=p, mu=mu, grid=grid,
        densities=tuple(densities), fields=tuple(fields),
        pipe_offsets=offsets, a_theta=a_theta, a_w=a_w,
        profile=profile, gamma=gam, M=m_val, M_components=m_comp,
    )


@dataclass
class FamilyReport:
    d: int
    p: float
    mu: float
    n: int
    div_field_rel: list[float]
    div_product_rel: list[float]
    mean_density: list[float]
    mean_field: list[float]
    product_integral_err: list[float]
    cross_disjointness: float
    product_l1_sum: float
    measured_M: float
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_family(fam: MikadoFamily) -> FamilyReport:
    """Measure every cancellation identity of the family; failures are
    reported, never raised."""
    d, n = fam.d, fam.grid.n
    grid_t = TorusGrid(dim=d - 1, n=n)

    div_field = []
    div_product = []
    mean_den = []
    mean_fld = []
    prod_err = []
    for j in range(d):
        theta = fam.densities[j]
        w_j = fam.fields[j][j]
        # only component j of the field is nonzero, so the full spectral
        # divergence reduces to the derivative along the pipe axis
        num_w = axis_derivative_norm(fam.grid, w_j.values, j)
        prod_vals = theta.values * w_j.values
        num_p = axis_derivative_norm(fam.grid, prod_vals, j)
        den_w = _transverse_norm(grid_t, np.take(w_j.values, 0, axis=j), 2.0, "W1p") or 1.0
        den_p = _transverse_norm(grid_t, np.take(prod_vals, 0, axis=j), 2.0, "W1p") or 1.0
        div_field.append(num_w / den_w)
        div_product.append(num_p / den_p)
        mean_den.append(abs(theta.mean) / max(norm(theta, p=1), 1e-300))
        mean_fld.append(abs(w_j.mean) / max(norm(w_j, p=1), 1e-300))
        err = 0.0
        for i in range(d):
            target = 1.0 if i == j else 0.0
            err = max(err, abs(float((theta.values * fam.fields[j][i].values).mean()) - target))
        prod_err.append(err)

    cross = 0.0
    for j in range(d):
        for i in range(d):
            if i == j:
                continue
            cross = max(cross, float(np.abs(fam.densities[j].values * fam.fields[i][i].values).max()))

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
        d=d, p=fam.p, mu=fam.mu, n=n,
        div_field_rel=div_field, div_product_rel=div_product,
        mean_density=mean_den, mean_field=mean_fld,
        product_integral_err=prod_err, cross_disjointness=cross,
        product_l1_sum=prod_l1, measured_M=fam.M, checks=checks,
    )


@dataclass
class ScalingReport:
    d: int
    p: float
    r: float
    k: int
    mu_list: list[float]
    measured_theta: list[float]
    measured_w: list[float]
    measured_theta_h1: list[float]
    fitted: dict[str, float]
    predicted: dict[str, float]
    tolerances: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(abs(self.fitted[q] - self.predicted[q]) <= self.tolerances[q]
                   for q in self.fitted)


def scaling_report(
    d: int,
    p: float,
    r: float,
    k: int,
    mu_list: Sequence[float],
    n: int = 512,
    resolution_factor: float = 8.0,
) -> ScalingReport:
    """Fit concentration exponents of sum_j ||grad^k theta||_r, same for the
    fields, and sum_j ||theta||_H1 against mu, and compare with the predicted
    k + (d-1)(1/p' - 1/r), k + (d-1)(1/p - 1/r), and -gamma.

    Pipes are constant along their axis, so every norm equals its transverse
    counterpart; measurements run on the (d-1)-dimensional grid, which keeps
    mu = 64 at n = 512 cheap.
    """
    mu_list = [float(m) for m in mu_list]
    if len(mu_list) < 3:
        raise ValueError("need at least 3 concentrations to fit a slope")
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    for mu in mu_list:
        if mu <= 2 * d:
            raise ValueError(f"mu = {mu} not above 2d = {2 * d}")
        if n < resolution_factor * mu:
            raise ValueError(f"n = {n} does not resolve mu = {mu}")

    pc = p / (p - 1.0)
    gam = gamma_exponent(d, p)
    grid_t = TorusGrid(dim=d - 1, n=n)

    th, w, h1 = [], [], []
    for mu in mu_list:
        prof = ScalarField(grid_t, _pipe_profile(d, mu, n, _snap_offset(d, n, 1))[0])
        a_theta = mu ** ((d - 1) / pc)
        a_w = mu ** ((d - 1) / p)
        if k == 0:
            th.append(d * a_theta * norm(prof, p=r))
            w.append(d * a_w * norm(prof, p=r))
        else:
            gr = _lp_of_values(grad_magnitude(prof), r)
            th.append(d * a_theta * gr)
            w.append(d * a_w * gr)
        h1.append(d * a_theta * norm(prof, flavor="H1"))

    fitted = {
        "theta": fit_loglog(mu_list, th),
        "w": fit_loglog(mu_list, w),
        "theta_h1": fit_loglog(mu_list, h1),
    }
    predicted = {
        "theta": k + (d - 1) * (1.0 / pc - 1.0 / r),
        "w": k + (d - 1) * (1.0 / p - 1.0 / r),
        "theta_h1": -gam,
    }
    tol = 0.1 if k == 0 else 0.15
    tolerances = {"theta": tol, "w": tol, "theta_h1": 0.1}
    return ScalingReport(
        d=d, p=p, r=r, k=k, mu_list=mu_list,
        measured_theta=th, measured_w=w, measured_theta_h1=h1,
        fitted=fitted, predicted=predicted, tolerances=tolerances,
    )
