"""One pipe-concentration perturbation step for the steady drift-diffusion
equation in flux form, and the iteration built on it.

A triple (b, u, f) with div b = 0, mean u = 0 satisfies

    -div(grad u + b u) = div f        (flux-form equation)

at grid scale.  A step picks a cutoff delta, an oscillation frequency
lambda, and a concentration mu, and adds pipe perturbations

    theta = sum_j chi_j sgn(f_j) |f_j|^(1/p') (Theta_j)_lambda
    w     = sum_j chi_j |f_j|^(1/p) (W_j)_lambda

plus the correctors that restore mean-zero, divergence-freeness, and the
equation, trading the old flux error f for a strictly smaller one.

Discrete bookkeeping choices (each keeps an identity exact on the grid
instead of approximately true):

* perturbation products are sampled pointwise, so the diagonal collapse of
  theta*w onto sum_j chi_j^2 f_j (pipe products) is exact, and the cutoff
  split uses chi_j^2 throughout;
* the corrector w_c applies the antidivergence to the measured spectral
  divergence of w, which makes div b_1 vanish to roundoff at any
  resolution (in the continuum the two definitions coincide);
* the corrector term b_0 * theta_c (a constant multiple of a
  divergence-free field) is dropped from the new flux: it is
  divergence-free, so the equation cannot see it, and keeping it would
  charge a spectator drift's full L1 mass to the error budget;
* the equation residual is measured against de-aliased products (3n/2
  zero-padded evaluation), restricted to the resolved band; construction
  on the build grid makes the aliased residual vanish identically, so the
  de-aliased measure is the honest one and decays with refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .mikado import MikadoFamily, _expand_along, build_family
from .torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _band,
    _dealiased_product_divergence,
    _divergence_coeffs,
    _fft_of,
    _grad_magnitude_of,
    _ik,
    _inverse_div_grad_coeffs,
    _laplacian_symbol,
    _lp_of_values,
    _magnitude,
    _mode_norm,
    _parseval_sum,
    _partial_values,
    _scratch,
    _slabwise,
    _split_symbol,
    axis_derivative_norm,
    grad_magnitude,
    norm,
    relative_divergence,
)

__all__ = [
    "IterateTriple",
    "StepParams",
    "StepReport",
    "ConvergenceReport",
    "assemble_step",
    "select_parameters",
    "run_iteration",
    "grid_lambda_max",
    "equation_residual",
    "h1_window",
    "w1r_window",
    "w1q_window",
    "validate_mode",
]

DIV_B_TOL = 1e-9
MEAN_U_TOL = 1e-10
# the iteration asks every step to divide ||f||_1 by at least this factor
F_DECREASE = 4.0
# the de-aliased residual of a step must fall at least this much when the
# step is rebuilt on a grid twice as fine
REFINEMENT_FACTOR = 4.0


def _structure_checks(div_b_rel: float, mean_u_rel: float) -> dict[str, bool]:
    """A triple's relative div b and mean u against their tolerances."""
    return {"div_b1": div_b_rel <= DIV_B_TOL, "mean_u1": mean_u_rel <= MEAN_U_TOL}


# ---------------------------------------------------------------------------
# admissible exponent windows

def h1_window(d: int) -> tuple[float, float]:
    """p-window (1, 2(d-1)/(d+1)) for H1-mode runs; empty below d = 4."""
    return 1.0, 2.0 * (d - 1) / (d + 1)


def w1r_window(d: int, p: float) -> tuple[float, float]:
    """r-window [1, p'(d-1)/(d-1+p')) for the W1R mode."""
    pc = p / (p - 1.0)
    return 1.0, pc * (d - 1) / (d - 1 + pc)


def w1q_window(d: int, p: float) -> tuple[float, float]:
    """q-window [1, p(d-1)/(d-1+p)) for the drift-regularity mode."""
    return 1.0, p * (d - 1) / (d - 1 + p)


def validate_mode(d: int, p: float, mode: str, r: float | None = None,
                  q: float | None = None) -> None:
    if mode == "H1":
        lo, hi = h1_window(d)
        if d < 4:
            raise ValueError(f"H1 mode needs d >= 4 (window empty for d = {d})")
        if not (lo < p < hi):
            raise ValueError(f"H1 mode needs p in ({lo}, {hi:.6g}), got {p}")
        return
    if mode in ("W1R", "W1R_W1Q"):
        if d < 3:
            raise ValueError(f"{mode} mode needs d >= 3, got {d}")
        if not (1.0 < p < d - 1):
            raise ValueError(f"{mode} mode needs p in (1, {d - 1}), got {p}")
        if r is None:
            raise ValueError(f"{mode} mode needs the Sobolev exponent r")
        lo, hi = w1r_window(d, p)
        if not (lo <= r < hi):
            raise ValueError(f"{mode} mode needs r in [1, {hi:.6g}), got {r}")
        if mode == "W1R_W1Q":
            if p <= (d - 1) / (d - 2):
                raise ValueError(
                    f"W1R_W1Q mode needs p > (d-1)/(d-2) = {(d - 1) / (d - 2):.6g}, got {p}")
            if q is None:
                raise ValueError("W1R_W1Q mode needs the drift exponent q")
            lo, hi = w1q_window(d, p)
            if not (lo <= q < hi):
                raise ValueError(f"W1R_W1Q mode needs q in [1, {hi:.6g}), got {q}")
        return
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# data types

@dataclass(frozen=True, eq=False)
class IterateTriple:
    """A smooth flux-form iterate: div b = 0, mean u = 0,
    -div(grad u + b u) = div f at grid scale."""

    b: VectorField
    u: ScalarField
    f: VectorField

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid

    @cached_property
    def f_l1(self) -> float:
        """||f||_1, computed once per triple."""
        return norm(self.f, p=1)

    def check_structure(self) -> dict:
        rd = relative_divergence(self.b)
        mu_ = abs(self.u.mean) / max(1.0, self.u.max_abs())
        return {"div_b_rel": rd, "mean_u_rel": mu_, "ok": all(_structure_checks(rd, mu_).values())}


@dataclass(frozen=True)
class StepParams:
    delta: float
    lam: int
    mu: float
    mode: str = "W1R"
    r: float | None = None
    q: float | None = None

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if int(self.lam) != self.lam or self.lam < 1:
            raise ValueError(f"lambda must be a positive integer, got {self.lam}")
        object.__setattr__(self, "lam", int(self.lam))


@dataclass
class StepReport:
    params: StepParams
    family_M: float
    f0_l1: float
    increment_lp: float          # ||b1-b0||_p + ||u1-u0||_p'
    increment_lp_bound: float    # M max(||f0||_1^(1/p'), ||f0||_1^(1/p))
    mode_increment: float        # mode norm of u1 - u0
    f1_l1: float
    smallness_lhs: float         # mode_increment + f1_l1
    smallness_target: float
    b_increment_w1q: float | None
    g_parts: dict
    theta_c: float
    theta_h1: float
    div_b1_rel: float
    mean_u1_rel: float
    # frequency of the quadratic source:
    # sum_j ||d_j(chi_j^2 f_j)||_1 / (2 pi ||f0||_1)
    quad_source_freq: float = 0.0
    residual_out: float | None = None
    # set by run_iteration: the lambda the decline law asks for
    # (F_DECREASE * quad_source_freq) and the largest lambda the grid admits
    lam_needed: float | None = None
    lam_grid_max: int | None = None

    @property
    def dominant_part(self) -> str:
        """Name of the largest new-flux part."""
        return max(self.g_parts, key=self.g_parts.get)

    @property
    def cutoff_part_ok(self) -> bool:
        return self.g_parts["cutoff"] <= self.params.delta / 2 + 1e-12 * self.f0_l1

    @property
    def increment_ok(self) -> bool:
        return self.increment_lp <= self.increment_lp_bound

    @property
    def smallness_ok(self) -> bool:
        return self.smallness_lhs <= self.smallness_target

    @property
    def checks(self) -> dict[str, bool]:
        """The step's verdicts: the Lp increment bound, the smallness
        target, the cutoff budget, and the structure of the new triple."""
        return {
            "increment_bound": self.increment_ok,
            "smallness": self.smallness_ok,
            "cutoff_budget": self.cutoff_part_ok,
            **_structure_checks(self.div_b1_rel, self.mean_u1_rel),
        }


# ---------------------------------------------------------------------------
# cutoffs

def _smoothstep(t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for t <= 0, 1 for t >= 1, written into t's
    buffer; lo and hi are scratch of t's shape.  With its argument clipped
    to 1e-300, exp(-1/s) is exactly 0 on the far side of each end, so the
    quotient is exactly 0 for t <= 0 and exactly 1 for t >= 1."""
    np.clip(t, 1e-300, None, out=lo)
    np.divide(-1.0, lo, out=lo)
    np.exp(lo, out=lo)
    np.subtract(1.0, t, out=hi)
    np.clip(hi, 1e-300, None, out=hi)
    np.divide(-1.0, hi, out=hi)
    np.exp(hi, out=hi)
    hi += lo
    return np.divide(lo, hi, out=t)


def _cutoff(fj: np.ndarray, delta: float, d: int, out: np.ndarray | None = None,
            scratch: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Values of one component cutoff chi_j from the values of f_j, in out
    if given; scratch is two buffers of f_j's shape.  chi_j = 1 where
    |f_j| >= delta/(2d), 0 where |f_j| <= delta/(4d), a fixed smoothstep
    ramp between."""
    lo = delta / (4.0 * d)
    hi = delta / (2.0 * d)
    t = np.abs(fj, out=out)
    t -= lo
    t /= hi - lo
    return _smoothstep(t, *(scratch or (np.empty_like(t), np.empty_like(t))))


# ---------------------------------------------------------------------------
# dilation of family profiles by integer tiling

def _dilate_tile(transverse: np.ndarray, lam: int) -> np.ndarray:
    """Exact samples of the lambda-dilated pipe profile on the lam-times
    finer grid: tile per transverse axis, then roll by the half-cell offset
    the coordinate convention x_i = (i - n/2)/n induces."""
    if lam == 1:
        return transverse
    m = transverse.ndim
    n_fam = transverse.shape[0]
    out = np.tile(transverse, (lam,) * m)
    off = (n_fam * (1 - lam) // 2) % n_fam
    if off:
        out = np.roll(out, -off, axis=tuple(range(m)))
    return out


def grid_lambda_max(n: int, d: int, resolution_factor: float) -> int:
    """Largest lambda dividing n whose family grid n/lambda still resolves
    the smallest admissible concentration 2d + 1; 0 if none does."""
    return max((lam for lam in range(1, n + 1)
                if n % lam == 0 and n // lam >= resolution_factor * (2 * d + 1)),
               default=0)


# ---------------------------------------------------------------------------
# the de-aliased equation residual

def _residual_size(t: IterateTriple, e_hat: np.ndarray, kcap: int | None = None) -> float:
    """H^-1 size of a residual with coefficients e_hat over ||f||_2: the
    Parseval sum weighted by the squared `_split_symbol` of the full |k|^2,
    zero off the band |k_i| <= kcap if given, built per Parseval slab."""
    grid = t.grid

    def weight(rows: slice) -> np.ndarray:
        w = _split_symbol(grid, rows, diff=False) ** 2
        if kcap is not None:
            w[~_band(grid, kcap, rows)] = 0.0
        return w

    return math.sqrt(_parseval_sum(e_hat, weight)) / max(norm(t.f, p=2), 1e-300)


def sampled_residual(t: IterateTriple) -> float:
    """Sobolev-weighted size of div(grad u + b u + f) with the product b u
    sampled on the build grid, scaled by ||f||_2.

    The step construction makes this vanish to roundoff: it is the
    build-resolution consistency invariant of a triple.  The de-aliased
    measure below is the one that sees the committed sampling error.
    """
    grid = t.grid
    e_hat = _laplacian_symbol(grid) * _fft_of(t.u)
    for ax in range(grid.dim):
        prod = t.b[ax].values * t.u.values
        e_hat = e_hat + _ik(grid, ax) * (_fft_of(prod) + _fft_of(t.f[ax]))
    return _residual_size(t, e_hat)


def residual_refinement(coarse: float, fine: float) -> tuple[float, bool]:
    """The factor by which the equation residual falls from a step's grid
    to the refined one, and whether it reaches REFINEMENT_FACTOR."""
    factor = coarse / max(fine, 1e-300)
    return factor, factor >= REFINEMENT_FACTOR


def equation_residual(t: IterateTriple) -> float:
    """Sobolev-weighted size of div(grad u + b u + f) on the band
    |k_i| <= n/2 - 1, with b u evaluated as the true (de-aliased) product.
    Only the band is transformed, slab by slab
    (`torus._dealiased_product_divergence`), and the values are those of
    3n/2 zero-padded interpolation.  Scaled by ||f||_2.

    On the build grid the aliased residual vanishes identically by
    construction; this band-exact measure exposes the sampling error the
    construction actually commits, which decays under grid refinement.

    u's spectrum is handed to the product, which frees it before its loop,
    and is transformed again for the Laplacian term after it: one more
    forward transform, and one full-grid array less at the peak.  The
    terms are added in the same order either way.
    """
    grid = t.grid
    kcap = grid.n // 2 - 1

    # de-aliased product part of the divergence
    e_hat = _dealiased_product_divergence(grid, (_fft_of(c) for c in t.b.components),
                                          [_fft_of(t.u)])

    # band-limited parts: laplacian of u and divergence of f
    e_hat += _laplacian_symbol(grid) * _fft_of(t.u)
    _divergence_coeffs(grid, t.f.components, e_hat)
    return _residual_size(t, e_hat, kcap)


# ---------------------------------------------------------------------------
# perturbations and the step

def assemble_step(
    t: IterateTriple,
    params: StepParams,
    fam: MikadoFamily,
    eps_target: float = math.inf,
) -> tuple[IterateTriple, StepReport]:
    """Run one full step: build the pipe perturbation theta, w and the
    corrector w_c, perturb, and assemble the new flux error

        f1 = g_quad + g_cutoff + g_laplace + g_linear + g_corrector,

    reporting the L1 mass of every part and both sides of the increment
    and smallness estimates.

    Every vector quantity is built and consumed one component at a time,
    in buffers reused in place, and every spectral part reaches the flux
    accumulator slab by slab from its inverse transform.  Its pointwise
    work runs as slab kernels (`torus._slabwise`) that write only into
    those buffers.  Each quadratic source is produced slab by slab inside
    its forward transform (`_fft_of`'s producer), theta's amplitude is
    slab scratch, and u1 is formed in theta's buffer after the corrector,
    which forms theta + theta_c slab by slab.

    The step consumes its input flux: at entry it takes u0, b0, ||f0||_1
    and the component arrays of f0 out of t and drops its reference to t,
    and it releases f0_j once component j's loop iteration is done.  A
    caller that passes its only reference to t (`run_iteration` on a fixed
    schedule, the ci-step experiment) has f0 freed as the step goes; one
    that keeps t (`select_parameters`, whose trials share it) does not; the
    search also holds its best trial's triple while it assembles the next.
    At 64^3 the step's peak is about 7.3 full-grid fields above what its
    caller held at the call with the handover (7.5 with two workers), and
    about 10.3 (10.5) when the caller keeps t; the 32^4 H1 step's is about
    8.2 (8.3) with the handover."""
    if params.mode in ("W1R", "W1R_W1Q") and params.r is None:
        raise ValueError(f"mode {params.mode} needs the Sobolev exponent r")
    if params.mode == "W1R_W1Q" and params.q is None:
        raise ValueError("mode W1R_W1Q needs the drift exponent q")
    grid = t.grid
    n, d = grid.n, grid.dim
    lam = params.lam
    if n % lam != 0:
        raise ValueError(f"lambda = {lam} must divide n = {n}")
    if fam.grid.n != n // lam:
        raise ValueError(
            f"family grid {fam.grid.n} does not match n/lambda = {n // lam}")
    if fam.d != d:
        raise ValueError("family dimension mismatch")
    p, pc = fam.p, fam.p_conj
    u0, b0, f0_l1 = t.u, t.b, t.f_l1
    f0 = [c.values for c in t.f.components]
    del t
    delta = params.delta
    shape = grid.shape

    def amplitudes(cj, fj, absf, theta, density, field):
        """chi_j (the buffer of |f_j| and the slab scratch that then holds
        theta's amplitude serve as its scratch), theta += chi_j sgn(f_j)
        |f_j|^(1/p') Theta_j, w_j = chi_j |f_j|^(1/p) W_j in the buffer of
        |f_j|, and chi_j^2 f_j in the buffer of chi_j.  Where |f_j| <=
        delta/(4d), chi_j is exactly 0, and so are both amplitudes."""
        amp = _scratch(cj)
        _cutoff(fj, delta, d, out=cj, scratch=(absf, amp))
        np.abs(fj, out=absf)
        amp[...] = absf
        amp **= 1.0 / pc
        np.copysign(amp, fj, out=amp)
        amp *= cj
        amp *= density
        theta += amp
        absf **= 1.0 / p
        absf *= cj
        absf *= field
        cj *= cj
        cj *= fj

    theta_vals = np.zeros(shape)
    w_comps: list[np.ndarray] = [None] * d
    q_hat = np.zeros(grid.half_shape, dtype=np.complex128)
    # the cutoff part chi^2 f - f seeds the flux accumulator
    f1_comps: list[np.ndarray] = [None] * d
    quad_source_l1 = 0.0
    for j in range(d):
        fj = f0[j]
        cj, absf = np.empty(shape), np.empty(shape)
        _slabwise(amplitudes, cj, fj, absf, theta_vals,
                  _expand_along(_dilate_tile(fam.density_transverse(j), lam), j, n, d),
                  _expand_along(_dilate_tile(fam.field_transverse(j), lam), j, n, d))
        w_comps[j] = absf
        quad_source_l1 += axis_derivative_norm(grid, cj, j)
        prod = _expand_along(_dilate_tile(
            fam.density_transverse(j) * fam.field_transverse(j) - 1.0, lam), j, n, d)
        # the quadratic source chi_j^2 f_j ((Theta W)_lambda - 1) along
        # e_j, produced slab by slab inside its transform
        _fft_of(shape, q_hat, _ik(grid, j),
                produce=lambda idx, out: np.multiply(cj[idx], prod[idx], out=out))
        del prod
        # the cutoff part chi_j^2 f_j - f_j, in the buffer of chi_j
        _slabwise(lambda c, f: np.subtract(c, f, out=c), cj, fj)
        del fj
        f0[j] = None
        f1_comps[j] = cj

    theta_c = -float(theta_vals.mean())
    # the accumulator holds the cutoff part until the first add_part
    g_parts: dict[str, float] = {"cutoff": float(_magnitude(f1_comps).mean())}

    def accumulate(f1, g, mag):
        f1 += g
        mag += np.square(g, out=g)

    def add_part(name: str, part: Callable[[int, Callable], None]) -> np.ndarray:
        """Add a flux part to the accumulator, one component at a time:
        part(i, add) hands component i to add(rows, g), on the axis-0 rows
        of one inverse-transform slab (all rows below the pool gate).
        Return the part's magnitude."""
        mag = np.zeros(shape)
        for i in range(d):
            f1 = f1_comps[i]
            part(i, lambda rows, g: _slabwise(accumulate, f1[rows], g, mag[rows]))
        _slabwise(lambda m: np.sqrt(m, out=m), mag)
        g_parts[name] = float(mag.mean())
        return mag

    # quadratic remainder through the antidivergence
    psi_hat = _inverse_div_grad_coeffs(grid, q_hat, out=q_hat)
    del q_hat
    add_part("quad", lambda i, add: _partial_values(grid, psi_hat, i, add))
    del psi_hat

    # laplacian part: grad theta, whose magnitude feeds the mode norms
    theta_hat = _fft_of(theta_vals)
    gt_mag = add_part("laplace", lambda i, add: _partial_values(grid, theta_hat, i, add))
    del theta_hat

    # linear part: w u0 + b0 theta
    def linear_kernel(g, w, u, b, theta):
        np.multiply(w, u, out=g)
        g += np.multiply(b, theta, out=_scratch(g))

    def linear(i: int, add: Callable) -> None:
        g = np.empty(shape)
        _slabwise(linear_kernel, g, w_comps[i], u0.values, b0[i].values, theta_vals)
        add(slice(None), g)

    add_part("linear", linear)

    # the increment du = theta + theta_c, formed for its norms only; the
    # corrector forms it again slab by slab, and u1 goes into theta's
    # buffer after the corrector
    du_vals = np.empty(shape)
    _slabwise(lambda du, theta: np.add(theta, theta_c, out=du), du_vals, theta_vals)
    theta_h1 = _mode_norm("H1", None, du_vals, gt_mag)
    mode_inc = (theta_h1 if params.mode == "H1"
                else _mode_norm(params.mode, params.r, du_vals, gt_mag))
    du_lp = _lp_of_values(du_vals, pc)
    del du_vals, gt_mag

    # corrector restoring div b1 = 0: w_c = -grad phi, where div grad phi is
    # the measured div w
    phi_hat = _divergence_coeffs(grid, w_comps)
    _inverse_div_grad_coeffs(grid, phi_hat, out=phi_hat)

    def corrector_kernel(g, wc, u, w, theta):
        np.negative(wc, out=wc)
        np.multiply(wc, u, out=g)
        sc = _scratch(g)
        g += np.multiply(w, theta_c, out=sc)
        np.add(theta, theta_c, out=sc)      # du
        g += np.multiply(sc, wc, out=sc)
        w += wc

    def corrector(i: int, add: Callable) -> None:
        """w_c u0 + theta_c w + theta w_c + theta_c w_c (b0 theta_c is
        divergence-free and is dropped from the flux), on each slab of the
        derivative that gives w_c; w_c is then folded into w, whose buffer
        holds the drift increment dw = w + w_c."""
        w = w_comps[i]

        def slab(rows: slice, wc: np.ndarray) -> None:
            g = np.empty(wc.shape)
            _slabwise(corrector_kernel, g, wc, u0.values[rows], w[rows], theta_vals[rows])
            add(rows, g)

        _partial_values(grid, phi_hat, i, slab)

    add_part("corrector", corrector)
    del phi_hat

    # u1 = (u0 + theta) + theta_c in theta's buffer, made mean-zero
    def new_u(theta, u):
        np.add(u, theta, out=theta)
        theta += theta_c

    _slabwise(new_u, theta_vals, u0.values)
    u1_vals = theta_vals
    del theta_vals
    u1_mean = u1_vals.mean()
    _slabwise(lambda u1: np.subtract(u1, u1_mean, out=u1), u1_vals)
    dw_comps = w_comps          # w + w_c since the corrector loop
    del w_comps

    # the accumulator built g; the equation -div(grad u + b u) = div f
    # hands the next iterate f1 = -g
    for i in range(d):
        _slabwise(lambda f: np.negative(f, out=f), f1_comps[i])

    dw_mag = _magnitude(dw_comps)
    inc = _lp_of_values(dw_mag, p) + du_lp
    inc_bound = fam.M * max(f0_l1 ** (1.0 / pc), f0_l1 ** (1.0 / p))
    b_inc_w1q = None
    if params.mode == "W1R_W1Q":
        b_inc_w1q = _mode_norm("W1R", params.q, dw_mag, _grad_magnitude_of(grid, dw_comps))
    del dw_mag

    # the new iterate, b1 = b0 + dw formed in the buffer of dw
    for i in range(d):
        _slabwise(lambda dw, b: np.add(b, dw, out=dw), dw_comps[i], b0[i].values)
    b1 = VectorField.from_arrays(grid, dw_comps)
    del dw_comps
    f1 = VectorField.from_arrays(grid, f1_comps)
    t1 = IterateTriple(b=b1, u=ScalarField(grid, u1_vals), f=f1)
    f1_l1 = t1.f_l1
    structure = t1.check_structure()

    report = StepReport(
        params=params,
        family_M=fam.M,
        f0_l1=f0_l1,
        increment_lp=inc,
        increment_lp_bound=inc_bound,
        mode_increment=mode_inc,
        f1_l1=f1_l1,
        smallness_lhs=mode_inc + f1_l1,
        smallness_target=eps_target,
        b_increment_w1q=b_inc_w1q,
        g_parts=g_parts,
        theta_c=theta_c,
        theta_h1=theta_h1,
        div_b1_rel=structure["div_b_rel"],
        mean_u1_rel=structure["mean_u_rel"],
        quad_source_freq=(quad_source_l1 / (2.0 * math.pi * f0_l1)
                          if f0_l1 > 0.0 else 0.0),
    )
    return t1, report


# ---------------------------------------------------------------------------
# parameter selection and the iteration

def _family(d: int, p: float, mu: float, n: int, factor: float) -> MikadoFamily:
    """The family of build_family, built once per p to 12 digits and mu to 6."""
    return _rounded_family(d, round(p, 12), round(mu, 6), n, factor)


@functools.cache
def _rounded_family(d: int, p: float, mu: float, n: int, factor: float) -> MikadoFamily:
    return build_family(d, p, mu, TorusGrid(dim=d, n=n), resolution_factor=factor)


def _mu_ladder(d: int, max_mu: float) -> list[float]:
    out = [2.0 * d + 1.0]
    v = 8.0
    while v <= max_mu:
        if v > 2 * d:
            out.append(v)
        v *= 2.0
    return [m for m in out if m <= max_mu] or []


def select_parameters(
    t: IterateTriple,
    eps: float,
    mode: str = "W1R",
    r: float | None = None,
    q: float | None = None,
    p: float = 1.5,
    resolution_factor: float = 8.0,
    mode_cap: float = math.inf,
    f1_cap: float = math.inf,
) -> tuple[tuple[IterateTriple, StepReport] | None, bool]:
    """Greedy nested search in the order delta, then lambda, then mu.

    delta is the largest dyadic fraction of ||f||_1 whose cutoff budget
    delta/2 fits below eps/4; lambda and mu walk their ladders until a trial
    step meets the smallness target (and any caller caps).  Every trial is
    assembled with eps_target = eps.  Returns (step, met): the first trial
    that meets the target with True, else the trial of least smallness with
    False, and (None, False) when there is no trial.  A trial whose
    perturbation is identically zero (increment_lp == 0) changes neither u
    nor b, so it is neither taken nor kept; a zero flux gives only such
    trials.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = t.grid
    d, n = grid.dim, grid.n
    f_l1 = t.f_l1
    if f_l1 == 0.0:
        return None, False

    delta = None
    for i in range(1, 13):
        cand = f_l1 * 2.0 ** (-i)
        if cand / 2.0 <= eps / 4.0:
            delta = cand
            break
    if delta is None:
        delta = f_l1 * 2.0 ** (-12)

    best = None
    for lam in (1, 2, 4, 8):
        if n % lam != 0:
            continue
        n_fam = n // lam
        mus = _mu_ladder(d, n_fam / resolution_factor)
        for mu in mus:
            fam = _family(d, p, mu, n_fam, resolution_factor)
            params = StepParams(delta=delta, lam=lam, mu=mu, mode=mode, r=r, q=q)
            step = assemble_step(t, params, fam, eps_target=eps)
            rep = step[1]
            if rep.increment_lp > 0.0:
                if (rep.smallness_lhs <= eps and rep.mode_increment <= mode_cap
                        and rep.f1_l1 <= f1_cap and rep.increment_ok):
                    return step, True
                if best is None or rep.smallness_lhs < best[1].smallness_lhs:
                    best = step
            del step        # of the trials, only the best one's triple stays alive
    return best, False


@dataclass
class ConvergenceReport:
    schedule: list[float]
    steps: list[StepReport]
    f_history: list[float]
    u_mode_history: list[float]
    drift_distance: float
    u_mode_final: float
    u_mode_initial: float
    status: str
    assertions: dict


def run_iteration(
    t0: IterateTriple,
    eps: float,
    K: int,
    mode: str = "W1R",
    p: float = 1.5,
    r: float | None = None,
    q: float | None = None,
    resolution_factor: float = 8.0,
    lam_schedule: Sequence[int] | None = None,
    mu_schedule: Sequence[float] | None = None,
) -> tuple[IterateTriple, ConvergenceReport]:
    """K perturbation steps from the seed triple t0, targeting the desk-scale
    surrogate laws: every step should multiply ||f||_1 by at most
    1/F_DECREASE, the final mode norm must stay above half the seed's, and
    the total drift displacement below eps.

    Each step targets mode_cap + f_cap: half the seed's mode norm per step
    and a fourfold flux decline.  The asymptotic epsilon-schedule (with the
    measured family constant) is evaluated and recorded per step.  Fixed
    per-step (lambda, mu) schedules take their step as given; without them,
    select_parameters searches each step.  When no trial meets the target,
    the search's best trial is taken and status becomes "best_effort"; when
    it has no trial at all (a zero flux, or only zero-perturbation trials),
    status becomes "budget_exhausted" and the iteration stops.  Either way
    the final assertion table records the shortfall.

    The decline law is promised only once lambda is far above the
    frequency of the quadratic source chi_j^2 f_j (see
    docs/criterion5.md), so each step also records the lambda the law asks
    for, F_DECREASE * quad_source_freq, next to the largest lambda the grid
    admits at this resolution factor.
    """
    d = t0.grid.dim
    validate_mode(d, p, mode, r, q)
    # only the seed's drift is kept, for the drift distance: a caller that
    # passes its only reference to the seed has u0 and f0 freed after step 1
    b0, t = t0.b, t0
    del t0
    u0_mode = _mode_norm(mode, r, t.u.values, grad_magnitude(t.u))
    f_hist = [t.f_l1]
    u_hist = [u0_mode]
    steps: list[StepReport] = []
    schedule: list[float] = []
    status = "completed"

    m_const = None
    for k in range(1, K + 1):
        mode_cap = 2.0 ** (-(k + 1)) * u0_mode
        f_cap = f_hist[-1] / F_DECREASE
        if m_const is None:
            probe_mu = 2.0 * d + 1.0
            m_const = _family(d, p, probe_mu, t.grid.n, 2.0).M
        eps_k = 0.5 * min(1.0, (eps / (m_const * 2.0 ** (k + 1))) ** (p / (p - 1.0)),
                          2.0 ** (-k) * u0_mode)
        schedule.append(eps_k)     # recorded only: nothing else reads the schedule
        target = mode_cap + f_cap
        if lam_schedule is not None:
            lam = int(lam_schedule[k - 1])
            mu = float(mu_schedule[k - 1]) if mu_schedule is not None else 2.0 * d + 1.0
            fam = _family(d, p, mu, t.grid.n // lam, resolution_factor)
            params = StepParams(delta=f_hist[-1] / 32.0, lam=lam, mu=mu,
                                mode=mode, r=r, q=q)
            # the step gets the only reference to t, so it frees f0 as it goes
            held = [t]
            del t
            t, rep = assemble_step(held.pop(), params, fam, eps_target=target)
        else:
            step, met = select_parameters(
                t, target, mode=mode, r=r, q=q, p=p,
                resolution_factor=resolution_factor,
                mode_cap=mode_cap, f1_cap=f_cap)
            if step is None:
                status = "budget_exhausted"
                break
            t, rep = step
            if not met:
                status = "best_effort"
        rep.lam_needed = F_DECREASE * rep.quad_source_freq
        rep.lam_grid_max = grid_lambda_max(t.grid.n, d, resolution_factor)
        m_const = rep.family_M
        steps.append(rep)
        f_hist.append(rep.f1_l1)
        u_hist.append(_mode_norm(mode, r, t.u.values, grad_magnitude(t.u)))

    drift_dist = norm(t.b - b0, p=p)
    assertions = {
        "increment_bound_each_step": all(s.increment_ok for s in steps),
        "cutoff_budget_each_step": all(s.cutoff_part_ok for s in steps),
        "structure_each_step": all(s.checks["div_b1"] and s.checks["mean_u1"]
                                   for s in steps),
        "f_decrease": bool(steps) and all(b <= a / F_DECREASE * (1 + 1e-9)
                                          for a, b in zip(f_hist, f_hist[1:])),
        "u_mode_lower_bound": u_hist[-1] >= u0_mode / 2.0,
        "drift_distance": drift_dist <= eps,
        "completed_all_steps": len(steps) == K,
    }
    report = ConvergenceReport(
        schedule=schedule, steps=steps,
        f_history=f_hist, u_mode_history=u_hist,
        drift_distance=drift_dist,
        u_mode_final=u_hist[-1], u_mode_initial=u0_mode,
        status=status, assertions=assertions,
    )
    return t, report
