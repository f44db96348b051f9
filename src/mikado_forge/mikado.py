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
* fields point along their pipe axis and are constant along it, as are the
  densities, so both the field and the density-field product are
  divergence-free;
* the profile is renormalised against the build grid quadrature, so the
  density-field product integrates to exactly e_j.

Field values are stored as stride-0 broadcasts of the (d-1)-dimensional
transverse profile; a full family at n = 256 in d = 3 costs under a
megabyte until a consumer materialises products.  Every family quantity
is therefore read on the transverse slices: `verify_family` checks the
stored structure exactly (theta_j and w_j constant along axis j, the
off-axis components of field j zero) instead of taking spectral
derivatives, and takes its means, products and overlaps on the slices.
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
    _mode_norm,
    grad_magnitude,
    norm,
)

__all__ = [
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


def _snap_offset(d: int, n: int, j: int) -> float:
    """Pipe-centre coordinate (2j-1)/(2d) snapped onto the grid."""
    return round(n * (2 * j - 1) / (2 * d)) / n


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + 0.5) % 1.0 - 0.5


def _pipe_profile(d: int, mu: float, n: int, offset: float) -> np.ndarray:
    """Samples of one pipe's profile phi(mu * wrap(y - offset)) on the
    (d-1)-dim transverse grid, all transverse coordinates sharing the
    offset.  phi(z) = ring(|z|) z_1/|z| on the unit ball of R^(d-1), where
    ring is the standard bump centred on |z| = 1/2: smooth, compactly
    supported and odd in z_1 (hence mean-zero).  It is scaled so that the
    grid quadrature of mu^(d-1) phi^2 is exactly 1, so theta_j . w_j
    integrates to exactly 1."""
    m = d - 1
    delta = mu * _wrap(-0.5 + np.arange(n) / n - offset)
    coords = []
    for ax in range(m):
        shape = [1] * m
        shape[ax] = n
        coords.append(delta.reshape(shape))
    r = np.sqrt(sum(c * c for c in coords))
    t = (r - _RING_CENTER) / _RING_WIDTH
    with np.errstate(invalid="ignore", divide="ignore"):
        ang = np.where(r > 0.0, coords[0] / np.where(r > 0.0, r, 1.0), 0.0)
    raw = _bump(t * t) * ang
    s2 = float((raw * raw).mean())
    if s2 <= 0.0:
        raise ValueError("profile vanished on the grid; increase n")
    return 1.0 / math.sqrt(mu ** m * s2) * raw


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
    gamma: float
    M: float
    M_components: dict

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    def density_transverse(self, j: int) -> np.ndarray:
        """Transverse slice of density j (amplitude included), a view."""
        return self.densities[j].values[(slice(None),) * j + (0,)]

    def field_transverse(self, j: int) -> np.ndarray:
        """Transverse slice of the nonzero component of field j, a view."""
        return self.fields[j][j].values[(slice(None),) * j + (0,)]


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
        st = d * _lp_of_values(prof_theta, r)
        sw = d * _lp_of_values(prof_w, r)
        et = (d - 1) * (1.0 / pc - 1.0 / r)
        ew = (d - 1) * (1.0 / p - 1.0 / r)
        comp[f"theta_r{r:g}"] = 3.0 * st / mu ** et
        comp[f"w_r{r:g}"] = 3.0 * sw / mu ** ew
        candidates += [comp[f"theta_r{r:g}"], comp[f"w_r{r:g}"]]
    if gamma > 0:
        sh = d * _mode_norm("H1", None, prof_theta,
                            grad_magnitude(ScalarField(grid_t, prof_theta)))
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

    profiles = [_pipe_profile(d, mu, n, offset) for offset in offsets]
    densities = []
    fields = []
    for j, prof_vals in enumerate(profiles):
        theta_vals = _expand_along(a_theta * prof_vals, j, n, d)
        w_vals = _expand_along(a_w * prof_vals, j, n, d)
        zero = ScalarField(grid, np.broadcast_to(np.float64(0.0), grid.shape))
        comps = [zero] * d
        comps[j] = ScalarField(grid, w_vals)
        densities.append(ScalarField(grid, theta_vals))
        fields.append(VectorField.from_components(comps))

    gam = gamma_exponent(d, p)
    m_val, m_comp = _measure_m(d, p, mu, grid_t, a_theta * profiles[0],
                               a_w * profiles[0], gam)
    return MikadoFamily(
        d=d, p=p, mu=mu, grid=grid,
        densities=tuple(densities), fields=tuple(fields),
        gamma=gam, M=m_val, M_components=m_comp,
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


def _stored(values: np.ndarray) -> np.ndarray:
    """The elements a broadcast view stores: index 0 (kept as an axis of
    length 1) on each stride-0 axis.  The view repeats them, so a maximum
    or a constancy test along an axis reads the same on both."""
    return values[tuple(slice(0, 1) if st == 0 else slice(None) for st in values.strides)]


def _axis_defect(values: np.ndarray, axis: int) -> float:
    """0.0 when values is constant along axis, otherwise its largest
    deviation from the slice at index 0 relative to its largest |value|.
    A stride-0 axis is constant by construction."""
    if values.strides[axis] == 0:
        return 0.0
    values = _stored(values)
    first = values[(slice(None),) * axis + (slice(0, 1),)]
    if np.array_equal(values, np.broadcast_to(first, values.shape)):
        return 0.0
    return float(np.abs(values - first).max()) / max(float(np.abs(values).max()), 1e-300)


def verify_family(fam: MikadoFamily) -> FamilyReport:
    """Measure every cancellation identity of the family; failures are
    reported, never raised.

    Divergence-freeness is checked on the stored structure, with no
    transform: w_j = w_j,j e_j is divergence-free exactly when w_j,j is
    constant along axis j and the other components are zero, and theta_j w_j
    is then too when theta_j is constant along axis j.  Constancy is
    stricter than a vanishing spectral derivative along the axis, which
    cannot see the unpaired Nyquist mode.  div_field_rel and div_product_rel
    are 0.0 when the structure holds, otherwise the largest relative defect.
    Given that structure every other identity is a function of the
    transverse slices and is measured on them.

    The fields are broadcast views (stride 0 along the pipe axis, and
    along every axis for the zero components), and the structure is read
    only on the elements they store: an axis of stride 0 is constant, and
    maxima run on index 0 of each stride-0 axis (`_stored`).  A view
    repeats its stored elements, so the report is the one a materialised
    copy of the family gives."""
    d = fam.d
    theta_t = [fam.density_transverse(j) for j in range(d)]
    w_t = [fam.field_transverse(j) for j in range(d)]
    prods = [t * w for t, w in zip(theta_t, w_t)]

    div_field = []
    div_product = []
    for j in range(d):
        off_defect = max(float(np.abs(_stored(c.values)).max())
                         for i, c in enumerate(fam.fields[j].components) if i != j)
        div_field.append(max(_axis_defect(fam.fields[j][j].values, j),
                             off_defect / max(float(np.abs(w_t[j]).max()), 1e-300)))
        div_product.append(max(div_field[j], _axis_defect(fam.densities[j].values, j)))
    mean_den = [abs(float(t.mean())) / max(float(np.abs(t).mean()), 1e-300) for t in theta_t]
    mean_fld = [abs(float(w.mean())) / max(float(np.abs(w).mean()), 1e-300) for w in w_t]
    # theta_j w_j,i = 0 for i != j: the off-axis components are zero
    prod_err = [abs(float(pr.mean()) - 1.0) for pr in prods]

    # theta_j varies along x_i and w_i along x_j; on each line of the other
    # d - 2 coordinates max|theta_j w_i| is the product of the two maxima
    cross = 0.0
    for j in range(d):
        for i in range(d):
            if i != j:
                t_max = np.abs(theta_t[j]).max(axis=i - (i > j))
                w_max = np.abs(w_t[i]).max(axis=j - (j > i))
                cross = max(cross, float((t_max * w_max).max()))

    prod_l1 = sum(float(np.abs(pr).mean()) for pr in prods)

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
        d=d, p=fam.p, mu=fam.mu, n=fam.grid.n,
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

    def fits(self, q: str) -> bool:
        """The fitted exponent q lies within its tolerance of the prediction."""
        return abs(self.fitted[q] - self.predicted[q]) <= self.tolerances[q]

    @property
    def passed(self) -> bool:
        return all(self.fits(q) for q in self.fitted)


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
        prof = ScalarField(grid_t, _pipe_profile(d, mu, n, _snap_offset(d, n, 1)))
        a_theta = mu ** ((d - 1) / pc)
        a_w = mu ** ((d - 1) / p)
        if k == 0:
            th.append(d * a_theta * norm(prof, p=r))
            w.append(d * a_w * norm(prof, p=r))
        else:
            gr = _lp_of_values(grad_magnitude(prof), r)
            th.append(d * a_theta * gr)
            w.append(d * a_w * gr)
        # the amplitude goes in before the H1 norm, as in _measure_m
        theta = ScalarField(grid_t, a_theta * prof.values)
        h1.append(d * _mode_norm("H1", None, theta.values, grad_magnitude(theta)))

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
