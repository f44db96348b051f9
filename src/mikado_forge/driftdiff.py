"""Spectral solver and well-posedness experiments for the steady
drift-diffusion equation -div(grad u + b u) = f on the torus, with a
weakly divergence-free drift b.

The solver is GMRES on P A P y = P f, u = P y, for A u = -lap(u) - div(b u)
split-preconditioned by P = (-lap)^(-1/2); div b = 0 makes the drift term
skew-adjoint, so P A P is the identity plus a nearly skew operator.  Its
Krylov space is the half spectrum of y: each coefficient scaled by the
square root of its Parseval weight (2 on the columns 0 < k_last < n/2,
1 on k_last = 0 and n/2), the complex array viewed as float64.  So the
Euclidean inner product of two Krylov vectors is the grid mean of the
product of the fields they stand for, GMRES takes the iterates it would
take on grid values, and a matvec needs d + 1 transforms.  The GMRES
itself (`_gmres`, restarted, modified Gram-Schmidt and Givens rotations)
takes its inner products with `np.einsum`, so no call starts a threaded
BLAS.  Around it sit the diagnostics this problem is known for:
truncation-based approximation solutions, the energy identity/inequality,
a drift-independent maximum-principle sweep, dyadic-power testing with the
companion Gagliardo-Nirenberg bound, the mollifier-commutator functional,
and a two-schedule uniqueness probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ratefit import fit_loglog, slope_stderr
from .torus import (
    ScalarField,
    TorusGrid,
    VectorField,
    _bump,
    _divergence_coeffs,
    _fft_of,
    _irfftn,
    _laplacian_symbol,
    _lp_of_values,
    _mode_norm,
    _shift_values,
    _split_symbol,
    grad_magnitude,
    gradient,
    leray_project,
    lowpass,
    norm,
    random_scalar,
    random_solenoidal,
    relative_divergence,
)

__all__ = [
    "SolveConfig",
    "TruncationSchedule",
    "NonConvergence",
    "solve",
    "approximation_solution",
    "energy_check",
    "solve_checks",
    "max_principle_sweep",
    "moser_gns_check",
    "moser_checks",
    "commutator_check",
    "commutator_verdict",
    "uniqueness_probe",
    "max_principle_constant",
    "gns_constant",
]


_RESTART = 40   # GMRES restart length


@dataclass(frozen=True)
class SolveConfig:
    tol: float = 1e-10
    max_matvecs: int = 16000    # total budget over all rounds and residual checks

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


class NonConvergence(RuntimeError):
    def __init__(self, achieved: float, matvecs: int, cfg: SolveConfig, limit: str):
        super().__init__(f"no convergence: {limit} after {matvecs} matvecs (budget "
                         f"{cfg.max_matvecs} matvecs); achieved relative residual {achieved:.3e}")
        self.achieved, self.matvecs = achieved, matvecs


@dataclass(frozen=True)
class TruncationSchedule:
    """Increasing drift-truncation levels; mode 'clamp' caps |b| pointwise
    (followed by a Leray reprojection), 'lowpass' truncates the spectrum."""

    levels: tuple[float, ...]
    mode: str = "lowpass"

    def __post_init__(self) -> None:
        if len(self.levels) < 3:
            raise ValueError("need at least 3 truncation levels")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be increasing")
        if self.mode not in ("clamp", "lowpass"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")

    def truncate(self, b: VectorField, level: float) -> VectorField:
        if self.mode == "lowpass":
            return lowpass(b, float(level))
        mag = b.magnitude().values
        factor = np.minimum(1.0, level / np.maximum(mag, 1e-300))
        clamped = VectorField.from_arrays(
            b.grid, [c.values * factor for c in b.components])
        return leray_project(clamped)


def _root_weight(grid: TorusGrid) -> np.ndarray:
    """The square root of the Parseval weight of each half-spectrum column:
    sqrt(2) on 0 < k_last < n/2, which stand for themselves and their
    conjugate partners, 1 on k_last = 0 and n/2 (see `_parseval_sum`)."""
    sw = np.full(grid.half_shape[-1], math.sqrt(2.0))
    sw[[0, -1]] = 1.0
    return sw


def _split_system(b: VectorField, grid: TorusGrid):
    """The maps of the split system B = P A P, the identity plus the drift
    part off the corner modes where P vanishes.  A u = -lap(u) - div(b u)
    maps grid values to grid values in the odd-derivative convention the
    diagnostics use: -lap is the negated `_laplacian_symbol`, div(b u)
    `_divergence_coeffs` of the b_j u.  B maps the Krylov space (see the
    module docstring) to itself: z = sqrt(w) c for y with coefficients c,
    and B z = keep z - (p sqrt(w)) div_bu(values of (p / sqrt(w)) z), with p
    the derivative-frequency `_split_symbol`.  p_rhs(r) is P r in the Krylov
    space, (p sqrt(w)) F(r), and p_values(z) is P y in grid values.  All run
    on real transforms, d + 1 of them for B."""
    p, lap = _split_symbol(grid), -_laplacian_symbol(grid)
    sw = _root_weight(grid)
    keep, p_up, p_down = p > 0.0, p * sw, p / sw
    bvals = [c.values for c in b.components]

    def div_bu(u: np.ndarray) -> np.ndarray:
        return _divergence_coeffs(grid, (b_j * u for b_j in bvals))

    def apply_a(u: np.ndarray) -> np.ndarray:
        return _irfftn(lap * _fft_of(u) - div_bu(u), grid.shape)

    def p_rhs(r: np.ndarray) -> np.ndarray:
        return (p_up * _fft_of(r)).view(np.float64).ravel()

    def p_values(z: np.ndarray) -> np.ndarray:
        return _irfftn(p_down * z.view(np.complex128).reshape(p.shape), grid.shape)

    def apply_b(z: np.ndarray) -> np.ndarray:
        zc = z.view(np.complex128).reshape(p.shape)
        return (keep * zc - p_up * div_bu(p_values(z))).view(np.float64).ravel()

    return apply_a, p_rhs, apply_b, p_values


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum's own loop: np.dot and np.linalg.norm would start the
    # threaded BLAS pool, which costs more than it gives at field sizes
    return float(np.einsum("i,i->", x, y))


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_dot(x, x))


def _gmres(apply: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, rtol: float,
           restart: int, budget: int) -> tuple[np.ndarray, int]:
    """GMRES(restart) for apply(x) = rhs from x = 0 (Saad & Schultz 1986):
    modified Gram-Schmidt Arnoldi, Givens rotations, inner products by
    `_dot`.  A cycle stops once its Arnoldi estimate of the residual is
    <= rtol ||rhs|| and returns at once; a cycle that ends short of it
    restarts from rhs - apply(x), which costs one matvec more.  Returns x
    and the matvecs spent, at most budget (>= 1): a cycle is cut where the
    budget ends, and no restart is begun without room for one step."""
    x = np.zeros_like(rhs)
    beta = _norm(rhs)
    if beta == 0.0:
        return x, 0
    target, r, matvecs = rtol * beta, rhs, 0
    basis = np.empty((restart + 1, rhs.size))
    while True:
        np.multiply(r, 1.0 / beta, out=basis[0])
        hess = np.zeros((restart + 1, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        for j in range(min(restart, budget - matvecs)):
            w = apply(basis[j])
            matvecs += 1
            for i in range(j + 1):
                hess[i, j] = hij = _dot(basis[i], w)
                w -= hij * basis[i]
            hess[j + 1, j] = h = _norm(w)
            if h > 0.0:
                np.multiply(w, 1.0 / h, out=basis[j + 1])
            for i in range(j):
                h0, h1 = hess[i, j], hess[i + 1, j]
                hess[i, j], hess[i + 1, j] = cs[i] * h0 + sn[i] * h1, cs[i] * h1 - sn[i] * h0
            h0, h1 = hess[j, j], hess[j + 1, j]
            rho = math.sqrt(h0 * h0 + h1 * h1)
            cs[j], sn[j] = (h0 / rho, h1 / rho) if rho > 0.0 else (1.0, 0.0)
            hess[j, j], hess[j + 1, j] = rho, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            if abs(g[j + 1]) <= target or h == 0.0:
                break
        # back substitution on the rotated Hessenberg matrix, k steps
        k = j + 1
        y = [0.0] * k
        for i in reversed(range(k)):
            acc = g[i] - sum(hess[i, m] * y[m] for m in range(i + 1, k))
            y[i] = acc / hess[i, i] if hess[i, i] != 0.0 else 0.0
        for i in range(k):
            x += y[i] * basis[i]
        if abs(g[k]) <= target or h == 0.0 or budget - matvecs < 2:
            return x, matvecs
        r = rhs - apply(x)
        matvecs += 1
        beta = _norm(r)
        if beta <= target:
            return x, matvecs


def solve(b: VectorField, f: ScalarField, cfg: SolveConfig = SolveConfig()) -> ScalarField:
    """Mean-zero u with -lap(u) - div(b u) = f to relative residual cfg.tol.

    Each round runs `_gmres` on B z = P r in the Krylov space (see the
    module docstring), r the true residual (f at first), to a split
    residual of max(min(0.1, tol / (2 achieved)), 1e-13) relative to P r,
    adds P y to u and computes achieved = ||A u - f|| / ||f|| in flux form;
    u is accepted only once that is <= cfg.tol.  A round that fails to
    halve it raises NonConvergence at once, as does a spent budget: all
    rounds share cfg.max_matvecs matvecs.  A round whose GMRES cycle
    converges after k steps costs k + 1 (the residual in flux form is
    one); each restart of a cycle costs 1 more.

    Preconditions: f mean-zero (torus solvability), b divergence-free at
    grid scale, both bounded (finite grid values).
    """
    grid = f.grid
    fl2 = norm(f, p=2)
    if fl2 == 0.0:
        return ScalarField.zero(grid)
    if abs(f.mean) > 1e-10 * fl2:
        raise ValueError(f"source must be mean-zero, got mean {f.mean:.3e}")
    rd = relative_divergence(b)
    if rd > 1e-8:
        raise ValueError(f"drift is not divergence-free at grid scale ({rd:.3e})")
    apply_a, p_rhs, apply_b, p_values = _split_system(b, grid)
    matvecs, achieved, u, r = 0, 1.0, 0.0, f.values
    while True:
        # a round needs one Krylov step and its true residual
        left = cfg.max_matvecs - matvecs
        if left < 2:
            raise NonConvergence(achieved, matvecs, cfg, "the matvec budget is spent")
        # the split residual stands in for the true one: aim at half the
        # tolerance, and at a tenfold cut at least in a correction round
        z, spent = _gmres(apply_b, p_rhs(r), max(min(0.1, 0.5 * cfg.tol / achieved), 1e-13),
                          _RESTART, left - 1)
        u = u + p_values(z)
        r = f.values - apply_a(u)
        matvecs += spent + 1
        previous, achieved = achieved, _lp_of_values(r, 2.0) / fl2
        if achieved <= cfg.tol:
            return ScalarField(grid, u - u.mean())
        if achieved > 0.5 * previous:
            raise NonConvergence(achieved, matvecs, cfg, "a round failed to halve the true residual")


def energy_check(u: ScalarField, b: VectorField, f: ScalarField) -> dict:
    """Defect of the energy identity int |grad u|^2 = (f, u) for function
    data, and whether the energy inequality holds to 1e-8 relative."""
    grad_energy = _lp_of_values(grad_magnitude(u), 2.0) ** 2
    pairing = float((f.values * u.values).mean())
    defect = grad_energy - pairing
    scale = max(abs(grad_energy), abs(pairing), 1e-300)
    return {
        "grad_energy": grad_energy,
        "pairing": pairing,
        "identity_defect": defect,
        "relative_defect": defect / scale,
        "inequality_ok": bool(defect <= 1e-8 * scale),
    }


def solve_checks(recovery_errors: list[float], energy_defects: list[float]) -> dict:
    """Verdicts of a manufactured-solution suite: every relative L2
    recovery error and every |relative energy-identity defect| <= 1e-8."""
    return {
        "manufactured_recovery": max(recovery_errors) <= 1e-8,
        "energy_identity": max(energy_defects) <= 1e-8,
    }


def approximation_solution(
    b: VectorField,
    f: ScalarField,
    sched: TruncationSchedule,
    cfg: SolveConfig = SolveConfig(),
) -> tuple[ScalarField, dict]:
    """Solve with the drift truncated at each schedule level; return the
    finest-level solution with the inter-level Cauchy diagnostic, both
    distances in L2."""
    solutions = []
    drift_dist = []
    energies = []
    for level in sched.levels:
        bn = sched.truncate(b, level)
        un = solve(bn, f, cfg)
        solutions.append(un)
        drift_dist.append(norm(b - bn, p=2.0))
        energies.append(energy_check(un, bn, f))
    steps = [norm(s2 - s1, p=2.0) for s1, s2 in zip(solutions, solutions[1:])]
    diag = {
        "levels": list(sched.levels),
        "mode": sched.mode,
        "drift_distance_l2": drift_dist,
        "interlevel_distance": steps,
        "energy": energies,
    }
    return solutions[-1], diag


# ---------------------------------------------------------------------------
# maximum principle

_CD_SEED = 777
_CD_MARGIN = 1.15


@functools.cache
def max_principle_constant(d: int) -> float:
    """Dimension-only bound for ||u||_inf / ||f||_inf, fitted once on a
    seeded calibration family of drifts and forcings at n = 32, then frozen."""
    grid = TorusGrid(dim=d, n=32)
    rng = np.random.default_rng(_CD_SEED + d)
    worst = 0.0
    cfg = SolveConfig(tol=1e-9)
    for _ in range(6):
        f = random_scalar(grid, 3, rng)
        for s in (0.0, 1.0, 10.0):
            bb = random_solenoidal(grid, 3, rng) * s if s else VectorField.zero(grid)
            u = solve(bb, f, cfg)
            worst = max(worst, u.max_abs() / f.max_abs())
    return _CD_MARGIN * worst


def max_principle_sweep(f: ScalarField, drift_family: list[VectorField],
                        cfg: SolveConfig = SolveConfig()) -> dict:
    """sup-norm ratios over a drift family; asserts the fitted dimensional
    bound and checks the ratios do not trend upward with ||b||_2."""
    if f.max_abs() == 0.0:
        rows = [{"b_l2": norm(bb, p=2), "ratio": None, "status": "skipped"}
                for bb in drift_family]
        return {"rows": rows, "max_ratio": None, "bound": None,
                "trend_slope": None, "trend_ok": True, "all_bounded": True}
    cd = max_principle_constant(f.grid.dim)
    rows = []
    for bb in drift_family:
        try:
            u = solve(bb, f, cfg)
            rows.append({"b_l2": norm(bb, p=2),
                         "ratio": u.max_abs() / f.max_abs(),
                         "status": "ok"})
        except NonConvergence as exc:
            rows.append({"b_l2": norm(bb, p=2), "ratio": None,
                         "status": f"solver failure: {exc}"})
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    bnorms = [r["b_l2"] for r in rows if r["ratio"] is not None]
    if len(ratios) >= 3 and max(bnorms) > min(bnorms):
        slope, err = slope_stderr(np.array(bnorms), np.array(ratios))
    else:
        slope, err = None, None  # too few points for a trend statement
    # with every solve failed there is no ratio to bound; the rows say why
    max_ratio = max(ratios) if ratios else None
    return {
        "rows": rows,
        "max_ratio": max_ratio,
        "bound": cd,
        "all_bounded": max_ratio is not None and max_ratio <= cd,
        "trend_slope": slope,
        "trend_stderr": err,
        # upward trend must be statistically indistinguishable from <= 0
        "trend_ok": True if slope is None else slope <= 2.0 * err,
    }


# ---------------------------------------------------------------------------
# dyadic-power (Moser) identities and the companion GNS inequality

_GNS_SEED = 991
_GNS_MARGIN = 1.10


@functools.cache
def gns_constant(d: int) -> float:
    """C_d with ||g||_2^2 <= eps ||grad g||_2^2 + C_d eps^(-d/2) ||g||_1^2,
    fitted once on a seeded corpus at n = 32 and frozen."""
    grid = TorusGrid(dim=d, n=32)
    rng = np.random.default_rng(_GNS_SEED + d)
    worst = 0.0
    for _ in range(20):
        g = random_scalar(grid, 4, rng, mean_zero=False)
        g = g + float(rng.uniform(-0.5, 0.5))
        l2sq = norm(g, p=2) ** 2
        grad_sq = _lp_of_values(grad_magnitude(g), 2.0) ** 2
        l1sq = norm(g, p=1) ** 2
        for eps in (0.5, 0.25, 0.125, 0.0625):
            need = (l2sq - eps * grad_sq) / (eps ** (-d / 2) * l1sq)
            worst = max(worst, need)
    return _GNS_MARGIN * max(worst, 0.0)


def moser_gns_check(u: ScalarField, b: VectorField, f: ScalarField,
                    k_max: int = 3) -> list[dict]:
    """For k = 1..k_max, test the equation against the dyadic power
    u^(2^k - 1): the weighted gradient identity

        (2^k - 1)/2^(2k-2) * int |grad u^(2^(k-1))|^2 = int f u^(2^k - 1)

    encodes the drift cancellation; both the direct drift pairing and its
    exact power-route form are reported, along with the GNS bound for
    g = u^(2^(k-1)) at eps = 2^-k.
    """
    out = []
    umax = u.max_abs()
    d = u.grid.dim
    cd = gns_constant(d)
    for k in range(1, k_max + 1):
        if umax > 0 and 2 ** k * math.log(max(umax, 1.0)) > 600:
            out.append({"k": k, "status": "skipped (overflow guard)"})
            continue
        g = ScalarField(u.grid, u.values ** (2 ** (k - 1)))
        v = ScalarField(u.grid, u.values ** (2 ** k - 1))
        weight = (2 ** k - 1) / 2 ** (2 * k - 2)
        grad_g_sq = _lp_of_values(grad_magnitude(g), 2.0) ** 2
        lhs = weight * grad_g_sq
        rhs = float((f.values * v.values).mean())
        scale = max(abs(lhs), abs(rhs), 1e-300)

        grad_v = gradient(v)
        drift_direct = float((b.dot(grad_v).values * u.values).mean())
        power = ScalarField(u.grid, u.values ** (2 ** k))
        grad_power = gradient(power)
        drift_power = (1.0 - 2.0 ** (-k)) * float(b.dot(grad_power).values.mean())
        drift_scale = max(norm(b, p=2) * norm(grad_v, p=2) * max(umax, 1.0), 1e-300)

        eps = 2.0 ** (-k)
        gns_rhs = eps * grad_g_sq + cd * eps ** (-d / 2) * norm(g, p=1) ** 2
        out.append({
            "k": k,
            "status": "ok",
            "identity_lhs": lhs,
            "identity_rhs": rhs,
            "identity_defect_rel": abs(lhs - rhs) / scale,
            "drift_term_direct_rel": abs(drift_direct) / drift_scale,
            "drift_term_power_rel": abs(drift_power) / drift_scale,
            "gns_lhs": norm(g, p=2) ** 2,
            "gns_rhs": gns_rhs,
            "gns_ok": bool(norm(g, p=2) ** 2 <= gns_rhs * (1 + 1e-12)),
        })
    return out


def moser_checks(rows: list[dict]) -> dict:
    """Verdicts of moser_gns_check's rows: the k = 1 identity to 1e-6
    relative, and on every row not skipped the drift cancellation to 1e-8
    and the GNS bound."""
    k1 = next(row for row in rows if row.get("k") == 1)
    ok_rows = [row for row in rows if row.get("status") == "ok"]
    return {
        "k1_identity": k1["identity_defect_rel"] <= 1e-6,
        "drift_cancellation": all(row["drift_term_power_rel"] <= 1e-8 for row in ok_rows),
        "gns_bound": all(row["gns_ok"] for row in ok_rows),
    }


# ---------------------------------------------------------------------------
# mollifier commutator functional

@functools.cache
def _bump_normalisation(d: int, fine: int = 321) -> float:
    """1 / int_{B_1} exp(-1/(1-|z|^2)) dz by tensor quadrature, summed in
    slabs of fixed z_1 so that no fine^d temporary is allocated."""
    z = np.linspace(-1.0, 1.0, fine)
    rest = np.meshgrid(*([z] * (d - 1)), indexing="ij", sparse=True)
    total = sum(float(_bump(sum((c ** 2 for c in rest), z1 ** 2)).sum()) for z1 in z)
    return 1.0 / float(total * (z[1] - z[0]) ** d)


def _zgrid(d: int, m: int) -> tuple[list[np.ndarray], float]:
    z = np.linspace(-1.0, 1.0, m)
    h = z[1] - z[0]
    coords = np.meshgrid(*([z] * d), indexing="ij")
    return [c.ravel() for c in coords], h ** d


def _grad_rho(d: int, coords: list[np.ndarray]) -> list[np.ndarray]:
    """Analytic gradient of the normalised standard bump rho at the nodes."""
    r2 = sum(ci ** 2 for ci in coords)
    rho = _bump_normalisation(d) * _bump(r2)
    inside = r2 < 1.0
    fac = np.zeros_like(r2)
    fac[inside] = -2.0 / (1.0 - r2[inside]) ** 2
    return [rho * fac * ci for ci in coords]


def mollifier_moment_matrix(d: int) -> np.ndarray:
    """int z_j d_i rho(z) dz by quadrature with the analytic gradient of the
    normalised standard bump, summed in slabs of fixed z_1 (no fine^d
    temporaries); integration by parts predicts -delta_ij."""
    fine = 201
    rest, w = _zgrid(d - 1, fine)
    z = np.linspace(-1.0, 1.0, fine)
    mom = np.zeros((d, d))
    for z1 in z:
        coords = [np.full_like(rest[0], z1)] + rest
        grad_rho = _grad_rho(d, coords)
        mom += [[(coords[j] * grad_rho[i]).sum() for j in range(d)] for i in range(d)]
    return mom * (w * (z[1] - z[0]))


def commutator_check(
    b: VectorField,
    u: ScalarField,
    v: ScalarField,
    eps_list: list[float],
    z_per_axis: int = 21,
) -> dict:
    """Difference-quotient commutator functional

        I(eps) = int int u(x - z eps) [(b(x) - b(x - z eps))/eps] . grad_rho(z)
                 v(x) dz dx

    by tensor quadrature (spectral shifts in x, uniform nodes in z), rho the
    normalised standard bump on the unit ball.  For a drift with grid-scale
    W^{1,1} regularity the values must decay to zero; rho's moment matrix
    int z_j d_i rho, which integration by parts makes -delta_ij, is reported
    alongside.
    """
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be decreasing")
    grid = b.grid
    d = grid.dim
    coords, w = _zgrid(d, z_per_axis)
    grad_rho = _grad_rho(d, coords)

    uc = u.coeffs
    bc = [comp.coeffs for comp in b.components]
    bvals = [comp.values for comp in b.components]
    vvals = v.values

    values = []
    for eps in eps_list:
        total = 0.0
        for iz in range(len(coords[0])):
            g = np.array([grad_rho[i][iz] for i in range(d)])
            if not np.any(g):
                continue
            s = np.array([coords[i][iz] for i in range(d)]) * eps
            u_sh = _shift_values(grid, uc, s)
            acc = 0.0
            for i in range(d):
                if g[i] == 0.0:
                    continue
                b_sh = _shift_values(grid, bc[i], s)
                acc += g[i] * float((u_sh * (bvals[i] - b_sh) * vvals).mean())
            total += acc * w / eps
        values.append(total)

    mags = [abs(x) for x in values]
    rate = fit_loglog(eps_list, mags) if len(eps_list) >= 3 else math.nan
    return {
        "eps": list(eps_list),
        "value": values,
        "magnitude": mags,
        "fitted_rate": rate,
        "decayed": mags[-1] <= 0.1 * mags[0] if mags[0] > 0 else True,
        "monotone_trend": all(b2 <= a2 * 1.05 for a2, b2 in zip(mags, mags[1:])),
        "moment_matrix": mollifier_moment_matrix(d).tolist(),
    }


def commutator_verdict(table: dict) -> dict:
    """The checks of a commutator_check table, with the sign and the error
    of its moment matrix against +-identity: I(eps) decays at a fitted rate
    >= 0.8 and by tenfold over the sweep, and the moment error is <= 1e-6."""
    mom = np.array(table["moment_matrix"])
    sign = -1.0 if mom.trace() < 0 else 1.0
    err = float(np.abs(mom - sign * np.eye(len(mom))).max())
    return {
        "moment_sign": sign,
        "moment_error": err,
        "checks": {
            "decay_rate": table["fitted_rate"] >= 0.8,
            "decayed": bool(table["decayed"]),
            "moment_matrix": err <= 1e-6,
        },
    }


def uniqueness_probe(
    b: VectorField,
    f: ScalarField,
    sched_a: TruncationSchedule,
    sched_b: TruncationSchedule,
    cfg: SolveConfig = SolveConfig(),
) -> dict:
    """Distance in H1 between approximation solutions built under two
    different truncation schedules; small distance certifies schedule
    independence (uniqueness) at grid scale."""
    ua, diag_a = approximation_solution(b, f, sched_a, cfg)
    ub, diag_b = approximation_solution(b, f, sched_b, cfg)
    diff = ua - ub
    dist = _mode_norm("H1", None, diff.values, grad_magnitude(diff))
    ref = max(_mode_norm("H1", None, ua.values, grad_magnitude(ua)), 1e-300)
    return {
        "distance_h1": dist,
        "relative": dist / ref,
        "schedule_a": diag_a,
        "schedule_b": diag_b,
    }
