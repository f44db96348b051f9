"""Reference checkers for the benchmark, written against numpy alone.

Nothing here imports the program.  Each check restates a property that
the program's outputs must have, from the documented formats and the
mathematics, so that a fault in a shared helper cannot hide itself.

Spectral conventions (those the program documents in its torus module):
the torus is [-1/2, 1/2)^d sampled on an n^d grid, coefficients are
normalised so that c_0 is the grid mean, and odd-order derivatives zero
the unpaired Nyquist mode so that first derivatives of real fields stay
real.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

TFLD_MAGIC = b"TFLD"
TFLD_VERSION = 1
TFLD_HEADER = struct.Struct("<4sIIII")


# ---------------------------------------------------------------------------
# field container

def read_tfld(path: str | Path) -> list[np.ndarray]:
    """Read a TFLD container: magic, u32 LE (version, d, n, rank), then
    row-major LE float64 payload.  Returns one array for rank 0 and d
    arrays for rank 1; raises ValueError on any malformed file."""
    data = Path(path).read_bytes()
    if len(data) < TFLD_HEADER.size:
        raise ValueError(f"{path}: shorter than a TFLD header")
    magic, version, d, n, rank = TFLD_HEADER.unpack_from(data)
    if magic != TFLD_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != TFLD_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if rank not in (0, 1):
        raise ValueError(f"{path}: unsupported rank {rank}")
    count = n ** d
    arrays = 1 if rank == 0 else d
    if len(data) != TFLD_HEADER.size + 8 * count * arrays:
        raise ValueError(f"{path}: payload of {len(data) - TFLD_HEADER.size} bytes "
                         f"does not hold {arrays} arrays of {n}^{d}")
    payload = np.frombuffer(data, dtype="<f8", offset=TFLD_HEADER.size)
    return [payload[i * count:(i + 1) * count].reshape((n,) * d).astype(np.float64)
            for i in range(arrays)]


# ---------------------------------------------------------------------------
# spectral calculus

def _freqs(n: int, nyquist: bool) -> np.ndarray:
    k = np.fft.fftfreq(n, 1.0 / n)
    if not nyquist:
        k[n // 2] = 0.0
    return k


def _axis_symbol(n: int, d: int, axis: int, nyquist: bool = False) -> np.ndarray:
    shape = [1] * d
    shape[axis] = n
    return (2j * np.pi * _freqs(n, nyquist)).reshape(shape)


def spectral_divergence(comps: list[np.ndarray]) -> np.ndarray:
    """Coefficients of div v (grid-mean normalisation)."""
    d = len(comps)
    n = comps[0].shape[0]
    acc = np.zeros(comps[0].shape, dtype=np.complex128)
    for ax, c in enumerate(comps):
        acc += _axis_symbol(n, d, ax) * np.fft.fftn(c)
    return acc / n ** d


def relative_divergence(comps: list[np.ndarray]) -> float:
    """||div v||_2 / ||grad v||_2 (Frobenius), both spectral."""
    d = len(comps)
    n = comps[0].shape[0]
    num = np.sqrt(np.sum(np.abs(spectral_divergence(comps)) ** 2))
    den_sq = 0.0
    for c in comps:
        ch = np.fft.fftn(c) / n ** d
        for ax in range(d):
            den_sq += float(np.sum(np.abs(_axis_symbol(n, d, ax) * ch) ** 2))
    return float(num / np.sqrt(den_sq)) if den_sq > 0.0 else 0.0


def relative_mean(u: np.ndarray) -> float:
    """|mean u| against max(1, max |u|)."""
    return abs(float(u.mean())) / max(1.0, float(np.abs(u).max()))


def flux_residual(b: list[np.ndarray], u: np.ndarray, f: list[np.ndarray]) -> float:
    """H^-1 size of div(grad u + b u + f) with the product sampled on the
    grid, over the L2 size of f.  A flux-form triple built on this grid
    makes it vanish to roundoff."""
    d = len(b)
    n = u.shape[0]
    uh = np.fft.fftn(u)
    flux = [np.fft.ifftn(_axis_symbol(n, d, ax) * uh).real + b[ax] * u + f[ax]
            for ax in range(d)]
    div_hat = spectral_divergence(flux)
    k2 = np.zeros(u.shape)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        k2 = k2 + (_freqs(n, True) ** 2).reshape(shape)
    k2.flat[0] = 1.0
    weighted = np.abs(div_hat) ** 2 / (4.0 * np.pi ** 2 * k2)
    weighted.flat[0] = 0.0
    f_l2 = np.sqrt(sum(float(np.mean(c * c)) for c in f))
    return float(np.sqrt(weighted.sum())) / max(f_l2, 1e-300)


# ---------------------------------------------------------------------------
# manufactured drift-diffusion problems

def _band_limited(rng: np.random.Generator, n: int, d: int, band: int) -> np.ndarray:
    """Real mean-free field whose spectrum lies in the cube |k_i| <= band,
    with unit-modulus coefficients of random phase."""
    coeffs = np.zeros((n,) * d, dtype=np.complex128)
    idx = np.ix_(*([np.arange(-band, band + 1) % n] * d))
    size = (2 * band + 1,) * d
    coeffs[idx] = np.exp(2j * np.pi * rng.random(size))
    vals = np.fft.ifftn(coeffs).real
    return vals - vals.mean()


def manufactured_problem(rng: np.random.Generator, n: int, d: int, scale: float,
                         band: int = 3):
    """(b, u*, f): a band-limited solenoidal drift with RMS |b| = scale, a
    band-limited mean-free u* with unit L2 norm, and f = -div(grad u* + b u*).
    All products stay below the grid's Nyquist band, so f is exact."""
    if 4 * band >= n:
        raise ValueError(f"band {band} aliases on an {n}-point grid")
    raw = [np.fft.fftn(_band_limited(rng, n, d, band)) for _ in range(d)]
    ks = [_axis_symbol(n, d, ax, nyquist=True) for ax in range(d)]
    k2 = sum(np.abs(k) ** 2 for k in ks)
    k2.flat[0] = 1.0
    kdot = sum(k.conj() * r for k, r in zip(ks, raw)) / k2
    b = [np.fft.ifftn(r - k * kdot).real for k, r in zip(ks, raw)]
    rms = np.sqrt(sum(float(np.mean(c * c)) for c in b))
    b = [c * (scale / rms) for c in b]
    u = _band_limited(rng, n, d, band)
    u /= np.sqrt(np.mean(u * u))
    uh = np.fft.fftn(u)
    flux = [np.fft.ifftn(k * uh).real + bc * u for k, bc in zip(ks, b)]
    div_hat = sum(k * np.fft.fftn(c) for k, c in zip(ks, flux))
    f = -np.fft.ifftn(div_hat).real
    return b, u, f


def dirichlet_energy(u: np.ndarray) -> float:
    """Grid integral of |grad u|^2, spectral."""
    d = u.ndim
    n = u.shape[0]
    uh = np.fft.fftn(u) / n ** d
    k2 = sum(np.abs(_axis_symbol(n, d, ax, nyquist=True)) ** 2 for ax in range(d))
    return float(np.sum(k2 * np.abs(uh) ** 2))


def check_drift_solution(u: np.ndarray, u_star: np.ndarray, f: np.ndarray,
                         tol: float = 1e-8) -> dict:
    """Recovery of the manufactured solution and the energy identity
    int |grad u|^2 = int f u (div b = 0 makes the drift term vanish)."""
    err = float(np.sqrt(np.mean((u - u_star) ** 2) / np.mean(u_star ** 2)))
    energy = dirichlet_energy(u)
    pairing = float(np.mean(f * u))
    defect = abs(energy - pairing) / max(abs(energy), abs(pairing), 1e-300)
    return {"recovery": err <= tol, "energy_identity": defect <= tol,
            "recovery_error": err, "energy_defect": defect}


# ---------------------------------------------------------------------------
# Mikado families

def check_family(densities: list[np.ndarray], fields: list[list[np.ndarray]],
                 product_tol: float = 1e-8, mean_tol: float = 1e-9) -> dict:
    """The cancellation identities of a pipe family: theta_j and w_j are
    constant along axis j and w_j points along e_j; the grid mean of
    theta_j w_j,i is delta_ij; theta_j w_i vanishes identically for i != j;
    theta_j and w_j are mean-free.  Also returns the per-axis errors of the
    product means and the sum over j of the grid mean of |theta_j w_j,j|."""
    d = len(densities)
    constant = True
    along = True
    for j in range(d):
        theta, w = densities[j], fields[j][j]
        for a in (theta, w):
            constant &= bool(np.array_equal(a, np.broadcast_to(
                np.take(a, [0], axis=j), a.shape)))
        along &= all(not np.any(fields[j][i]) for i in range(d) if i != j)
    if not (constant and along):
        # the reductions below rely on both properties
        return {"constant_along_axis": constant, "points_along_axis": along,
                "product_mean": False, "disjoint": False, "mean_free": False}

    # theta_j and w_j are functions of the coordinates other than j
    t_slice = [np.take(densities[j], 0, axis=j) for j in range(d)]
    w_slice = [np.take(fields[j][j], 0, axis=j) for j in range(d)]
    product_errs = [abs(float(np.mean(t_slice[j] * w_slice[j])) - 1.0) for j in range(d)]
    product_l1 = sum(float(np.mean(np.abs(t_slice[j] * w_slice[j]))) for j in range(d))
    # theta_j(x) w_i(x) = 0 for every x, i != j: at each value s of the
    # coordinates other than i and j the product is theta_j(x_i, s) w_i(x_j, s),
    # so one of the two factors must vanish on the whole line it varies along
    disjoint = True
    for j in range(d):
        for i in range(d):
            if i == j:
                continue
            t_on = np.any(t_slice[j] != 0.0, axis=i if i < j else i - 1)
            w_on = np.any(w_slice[i] != 0.0, axis=j if j < i else j - 1)
            disjoint &= not bool(np.any(t_on & w_on))
    mean_free = all(
        abs(float(a.mean())) <= mean_tol * max(float(np.abs(a).mean()), 1e-300)
        for a in t_slice + w_slice)
    return {"constant_along_axis": True, "points_along_axis": True,
            "product_mean": max(product_errs) <= product_tol, "disjoint": disjoint,
            "mean_free": mean_free, "product_mean_errors": product_errs,
            "product_l1_sum": product_l1}


# ---------------------------------------------------------------------------
# the Nash-iteration law of criterion 5 (docs/criterion5.md)

def check_iteration_report(report: dict, decline: float = 4.0) -> dict:
    """Read a ci-run report: step 1 shrinks ||f||_1 by `decline`, every step
    whose lambda reaches lam_needed does too, every other step needs a
    lambda beyond the grid's reach, and the remaining clauses hold."""
    hist = report["f_history"]
    steps = report["steps"]
    ratios = [b / a for a, b in zip(hist, hist[1:])]
    ok_ratio = 1.0 / decline * (1.0 + 1e-9)
    law = len(steps) == len(ratios) and all(
        (ratio <= ok_ratio) if s["lambda"] >= s["lam_needed"]
        else (s["lam_needed"] > s["lam_grid_max"])
        for s, ratio in zip(steps, ratios))
    checks = report["checks"]
    return {
        "first_step_declines": bool(ratios) and ratios[0] <= ok_ratio,
        "decline_law": law,
        **{k: bool(checks.get(k)) for k in (
            "completed_all_steps", "increment_bound_each_step",
            "drift_distance", "u_mode_lower_bound")},
    }
