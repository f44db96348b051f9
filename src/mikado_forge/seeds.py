"""Seed constructions for perturbation-step and iteration experiments.

`seed_triple` is the one builder of a seed flux: from a drift b0, a
profile u0 and divergence-free terms h_i it forms f0 = -grad u0 - b0 u0 + h,
so the triple solves -div(grad u0 + b0 u0) = div f0 exactly on the grid.

The iteration's desk-scale laws prefer seeds with controlled geometry:

* a localized mean-zero profile u0 (difference of compact bumps, so the
  mean vanishes by mass matching rather than by a global constant shift);
* a strong "column" drift pointing along one axis and constant along it
  (exactly divergence-free), whose support the flux bumps avoid in the
  shared coordinates, so pipe perturbations never touch it;
* divergence-free flux bumps h_i that are constant along axis i, which
  push |f_i| above the cutoff thresholds on a controlled region.

Everything is evaluated from 1-d factors and broadcast, so a d = 3 seed at
n = 256 allocates a handful of full arrays only.
"""

from __future__ import annotations

import numpy as np

from .convexint import IterateTriple
from .mikado import _expand_along
from .torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    gradient,
    norm,
)

__all__ = [
    "seed_triple",
    "cascade_seed",
    "shifted_cosine_seed",
]


def bump_1d(grid: TorusGrid, center: float, radius: float) -> np.ndarray:
    """Compactly supported C-infinity bump: exactly zero outside the
    radius, so support bookkeeping in seed geometry is exact."""
    x = grid.x1
    w = ((x - center + 0.5) % 1.0 - 0.5) / radius
    out = np.zeros_like(x)
    inside = np.abs(w) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - w[inside] ** 2))
    return out


def compact_blob(grid: TorusGrid, center, radius: float,
                 axes=None) -> np.ndarray:
    """Product of compact bumps over the given axes (all by default),
    broadcast to the full grid: support is exactly the coordinate box
    center +- radius on those axes.  Constant along omitted axes; stride-0
    there."""
    axes = list(range(grid.dim)) if axes is None else list(axes)
    center = list(np.broadcast_to(center, (len(axes),)))
    out = None
    for ax, c in zip(axes, center):
        shape = [1] * grid.dim
        shape[ax] = grid.n
        fac = bump_1d(grid, float(c), radius).reshape(shape)
        out = fac if out is None else out * fac
    return np.broadcast_to(out, grid.shape)


def dog_scalar(grid: TorusGrid, center, radius_in: float,
               radius_out: float) -> ScalarField:
    """Localized, exactly mean-zero difference of compact blobs."""
    inner = compact_blob(grid, center, radius_in)
    outer = compact_blob(grid, center, radius_out)
    return ScalarField(grid, inner - (inner.mean() / outer.mean()) * outer)


def column_drift(grid: TorusGrid, center, radius: float, axis: int,
                 lp_norm: tuple[float, float]) -> VectorField:
    """Drift B(x_perp) e_axis, constant along its own axis: exactly
    divergence-free, supported in a coordinate column.

    Built entirely on the transverse grid and broadcast, so the field costs
    no full-size memory.  lp_norm = (p, target) rescales ||B||_p (equal to
    the transverse norm by axis constancy).
    """
    grid_t = TorusGrid(dim=grid.dim - 1, n=grid.n)
    comp_t = ScalarField(grid_t, compact_blob(grid_t, center, radius))
    p, target = lp_norm
    comp_t = comp_t * (target / norm(comp_t, p=p))
    comps = [ScalarField.zero(grid)] * grid.dim
    comps[axis] = ScalarField(grid, _expand_along(comp_t.values, axis, grid.n, grid.dim))
    return VectorField.from_components(comps)


def transverse_bump(grid: TorusGrid, amp: float, center, radius: float,
                    axis: int) -> np.ndarray:
    """Flux bump for component `axis`: constant along that axis (hence the
    component field amp * bump e_axis is divergence-free)."""
    other = [ax for ax in range(grid.dim) if ax != axis]
    return amp * compact_blob(grid, center, radius, axes=other)


def seed_triple(b0: VectorField, u0: ScalarField, h) -> IterateTriple:
    """The triple (b0, u0, f0) with f0_i = -d_i u0 - b0_i u0 + h_i.

    The terms h_i (arrays or scalars) must form a divergence-free h, which
    the equation does not see: constants, or bumps h_i constant along axis
    i.  u0 must already be mean-zero; it is used as given."""
    # formed whole on purpose: forming f0 one derivative slab at a time moves
    # the peak RSS through glibc's heap layout, up on the 128^3 nash-iteration
    # benchmark workload and down on step-refine (CHANGES.md, the FOUND on
    # seed_triple).  Measured again with the Nash step that forms u1 in
    # theta's buffer: nash-iteration 277.9 -> 292.1 MB, step-refine
    # 300.3 -> 284.5 MB
    gu = gradient(u0)
    comps = [ScalarField(u0.grid, -gu[i].values - b0[i].values * u0.values + hi)
             for i, hi in enumerate(h)]
    return IterateTriple(b=b0, u=u0, f=VectorField.from_components(comps))


def cascade_seed(grid: TorusGrid, u_amp: float, drift_lp: float,
                 flux_amp: float, p: float) -> IterateTriple:
    """Iteration seed with separated supports (d = 3 geometry).

    The drift is a column along e3 around (x1, x2) = (0.3, 0.3); the flux
    bumps for e1 and e2 sit at transverse coordinates that avoid the
    column's shadow and the profile's support; u0 is a small localized
    profile far from the column.  Consequence: the pipe amplitudes vanish
    on the drift's support, so the strong spectator drift never enters the
    new flux error, and they barely graze the profile.
    """
    if grid.dim != 3:
        raise ValueError("cascade_seed is a d = 3 construction")
    u0 = u_amp * dog_scalar(grid, (-0.35, -0.35, -0.35), 0.06, 0.12)
    b0 = column_drift(grid, (0.3, 0.3), 0.12, axis=2, lp_norm=(p, drift_lp))
    h1 = transverse_bump(grid, flux_amp, (0.0, 0.15), 0.1, axis=0)
    h2 = transverse_bump(grid, flux_amp, (0.0, -0.1), 0.1, axis=1)
    return seed_triple(b0, u0, (h1, h2, 0.0))


def shifted_cosine_seed(grid: TorusGrid, u_amp: float, flux_shift: float) -> IterateTriple:
    """Single-step seed: a gentle band-limited profile with a constant flux
    shift that pushes every |f_i| above the cutoff thresholds (constants
    are divergence-free, so the equation is untouched)."""
    n = grid.n
    cos1d = np.cos(2.0 * np.pi * grid.x1)

    def axis_cos(ax: int) -> np.ndarray:
        shape = [1] * grid.dim
        shape[ax] = n
        return cos1d.reshape(shape)

    # u0 = cos(2 pi x_1) + prod_{ax >= 2} cos(2 pi x_ax): mean-zero, bandwidth 1
    prod = None
    for ax in range(1, grid.dim):
        prod = axis_cos(ax) if prod is None else prod * axis_cos(ax)
    vals = np.broadcast_to(axis_cos(0), grid.shape) + prod
    u0 = u_amp * ScalarField(grid, vals)
    u0 = u0 - u0.mean
    return seed_triple(VectorField.zero(grid), u0, (flux_shift,) * grid.dim)
