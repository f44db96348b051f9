"""Each reference checker accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from mikado_forge import cli, fieldio, mikado  # noqa: E402
from mikado_forge.torus import TorusGrid  # noqa: E402


@pytest.fixture(scope="module")
def ci_step_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ci-step")
    cfg = {"d": 3, "N": 32, "lambda": 1, "mu": 7, "resolution_factor": 2,
           "flux_shift": 1536, "write_fields": True}
    code, _ = cli.run_experiment("ci-step", cfg, out, seed=0)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def built_family():
    return mikado.build_family(3, 1.5, 8.0, TorusGrid(dim=3, n=64))


@pytest.fixture(scope="module")
def family(built_family):
    fam = built_family
    return ([t.values.copy() for t in fam.densities],
            [[c.values.copy() for c in w.components] for w in fam.fields])


def test_tfld_reader(ci_step_dir, tmp_path):
    b = ref.read_tfld(ci_step_dir / "b.bin")
    field = fieldio.read_field(ci_step_dir / "b.bin")
    assert len(b) == 3
    assert all(np.array_equal(b[i], field[i].values) for i in range(3))

    data = (ci_step_dir / "u.bin").read_bytes()
    (tmp_path / "magic.bin").write_bytes(b"TFLX" + data[4:])
    (tmp_path / "short.bin").write_bytes(data[:-8])
    for name in ("magic.bin", "short.bin"):
        with pytest.raises(ValueError):
            ref.read_tfld(tmp_path / name)


def test_divergence_and_flux_residual(ci_step_dir):
    b = ref.read_tfld(ci_step_dir / "b.bin")
    (u,) = ref.read_tfld(ci_step_dir / "u.bin")
    f = ref.read_tfld(ci_step_dir / "f.bin")
    assert ref.relative_divergence(b) <= 1e-9
    assert ref.flux_residual(b, u, f) <= 1e-10

    bumped = [c.copy() for c in b]
    bumped[0][3, 5, 7] += 1e-3 * np.abs(b[0]).max()
    assert ref.relative_divergence(bumped) > 1e-9
    f_bad = [c.copy() for c in f]
    f_bad[1][4, 4, 4] += 1e-6 * np.abs(f[1]).max()
    assert ref.flux_residual(b, u, f_bad) > 1e-10


def test_relative_mean():
    u = np.cos(2 * np.pi * np.arange(16) / 16)[:, None, None] * np.ones((16, 16, 16))
    assert ref.relative_mean(u) <= 1e-10
    assert ref.relative_mean(u + 1e-8) > 1e-10


def test_manufactured_problem_and_drift_check():
    rng = np.random.default_rng(5)
    b, u_star, f = ref.manufactured_problem(rng, 16, 3, 10.0)
    assert ref.relative_divergence(b) <= 1e-12
    rms = np.sqrt(sum(np.mean(c * c) for c in b))
    assert rms == pytest.approx(10.0, rel=1e-12)
    assert abs(f.mean()) <= 1e-12 * np.abs(f).max()
    good = ref.check_drift_solution(u_star, u_star, f)
    assert good["recovery"] and good["energy_identity"]

    off = u_star + 1e-6 * np.sin(2 * np.pi * np.arange(16) / 16)[:, None, None]
    assert not ref.check_drift_solution(off, u_star, f)["recovery"]
    f_bad = f + 1e-6 * np.abs(f).max() * u_star
    assert not ref.check_drift_solution(u_star, u_star, f_bad)["energy_identity"]


def test_family_check(family):
    dens, fields = family
    good = ref.check_family(dens, fields)
    assert all(v for v in good.values() if isinstance(v, bool))

    bent = [d.copy() for d in dens]
    bent[0][5, 0, 0] += 1.0
    assert not ref.check_family(bent, fields)["constant_along_axis"]

    scaled = [d.copy() for d in dens]
    scaled[1] *= 1.001
    assert not ref.check_family(scaled, fields)["product_mean"]

    # pipe 0 copied onto pipe 1's tube (constant along axis 0 stays true)
    crossing = [d.copy() for d in dens]
    crossing[0] = crossing[0] + np.moveaxis(dens[1], 1, 0)
    res = ref.check_family(crossing, fields)
    assert res["constant_along_axis"] and not res["disjoint"]

    shifted = [[c.copy() for c in w] for w in fields]
    shifted[2][2] += 1e-3
    assert not ref.check_family(dens, shifted)["mean_free"]

    tilted = [[c.copy() for c in w] for w in fields]
    tilted[0][1] = tilted[0][0].copy()
    assert not ref.check_family(dens, tilted)["points_along_axis"]


def test_verify_family_report_check(built_family, family):
    dens, fields = family
    rep = mikado.verify_family(built_family)
    assert rep.passed and workloads.report_agrees(rep, ref.check_family(dens, fields))

    # a report whose product integral is off by 1e-6 on one axis
    skewed = dataclasses.replace(rep, product_integral_err=[
        e + (1e-6 if j == 1 else 0.0) for j, e in enumerate(rep.product_integral_err)])
    assert not workloads.report_agrees(skewed, ref.check_family(dens, fields))

    # a family whose densities grew: verify_family's L1 sum no longer matches
    scaled = [d * 1.001 for d in dens]
    assert not workloads.report_agrees(rep, ref.check_family(scaled, fields))


def _report(ratios, lam_needed, lam=(1, 2, 2), grid_max=2):
    hist = [100.0]
    for r in ratios:
        hist.append(hist[-1] * r)
    steps = [{"lambda": l, "lam_needed": n, "lam_grid_max": grid_max}
             for l, n in zip(lam, lam_needed)]
    checks = {"completed_all_steps": True, "increment_bound_each_step": True,
              "drift_distance": True, "u_mode_lower_bound": True, "f_decrease": False}
    return {"f_history": hist, "steps": steps, "checks": checks}


def test_iteration_report_check():
    good = ref.check_iteration_report(_report([0.04, 13.0, 8.0], [0.0, 84.0, 62.0]))
    assert all(good.values())

    # a step whose lambda reaches lam_needed but does not decline
    bad = ref.check_iteration_report(_report([0.04, 0.5, 8.0], [0.0, 1.5, 62.0]))
    assert not bad["decline_law"]
    # a missed premise that the grid could have met
    near = ref.check_iteration_report(_report([0.04, 13.0, 8.0], [0.0, 84.0, 1.9],
                                              lam=(1, 2, 1)))
    assert not near["decline_law"]
    slow = ref.check_iteration_report(_report([0.3, 13.0, 8.0], [0.0, 84.0, 62.0]))
    assert not slow["first_step_declines"]
