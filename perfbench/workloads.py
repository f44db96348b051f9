"""The benchmark's workloads.

Each workload drives the program through its public entry points only.
`setup` makes the inputs (imports, configuration, generated fields),
`operations` lists the timed calls of one round, and `check` verifies
their outputs with the numpy-only checkers of `reference`, outside the
timed span.  Every round attempts the same operations, so the share of
failed operations does not depend on the seed or the run length.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import reference as ref

DIV_TOL = 1e-9          # relative spectral divergence of a drift
MEAN_TOL = 1e-10        # relative mean of a profile
FLUX_RESIDUAL_TOL = 1e-10
REFINEMENT_FACTOR = 4.0
REPORT_TOL = 1e-10      # a verify_family figure against the reference's


class _Experiment:
    """One cli experiment per round, driven through run_experiment.  Exit
    codes other than 0 or 1 (configuration error, exhausted budget) make
    the operation fail; exit code 1, one of the experiment's own checks
    failing, is left to each workload's `check`."""

    experiment: str
    config: dict

    def setup(self, seed: int, out: Path) -> None:
        from mikado_forge import cli
        self.cli, self.seed, self.out = cli, seed, out

    def _run(self):
        code, report = self.cli.run_experiment(self.experiment, dict(self.config),
                                               self.out, self.seed)
        if code not in (0, 1):
            raise RuntimeError(f"{self.experiment} exited {code}: {report.get('error')}")
        return code, report

    def operations(self):
        return [(self.experiment, self._run)]


class NashIteration(_Experiment):
    """ci-run: three Nash steps on the cascade seed at 128^3 (criterion 5)."""

    name = "nash-iteration"
    experiment = "ci-run"
    config = {"seed_kind": "cascade", "d": 3, "N": 128, "K": 3,
              "lam_schedule": [1, 2, 2], "mu_schedule": [7, 7, 7],
              "write_fields": True}

    def check(self, results: dict) -> tuple[dict, dict]:
        if self.experiment not in results:
            return {}, {}
        code, report = results[self.experiment]
        b = ref.read_tfld(self.out / "b_final.bin")
        (u,) = ref.read_tfld(self.out / "u_final.bin")
        checks = {
            "div_b_final": ref.relative_divergence(b) <= DIV_TOL,
            "mean_u_final": ref.relative_mean(u) <= MEAN_TOL,
            **ref.check_iteration_report(report),
        }
        # the literal fourfold clause fails at every grid this program
        # holds (docs/criterion5.md) and makes run_experiment return 1:
        # recorded as it stands, not counted as a failed operation
        verdict = {"exit_code": code, "f_decrease": report["checks"]["f_decrease"]}
        return checks, verdict


class StepRefine(_Experiment):
    """ci-step: one step on the shifted-cosine seed, N = 64 refined to 128."""

    name = "step-refine"
    experiment = "ci-step"
    config = {"seed_kind": "shifted-cosine", "d": 3, "N": 64, "refine_N": 128,
              "lambda": 1, "mu": 8, "write_fields": True}

    def check(self, results: dict) -> tuple[dict, dict]:
        if self.experiment not in results:
            return {}, {}
        code, report = results[self.experiment]
        b = ref.read_tfld(self.out / "b.bin")
        (u,) = ref.read_tfld(self.out / "u.bin")
        f = ref.read_tfld(self.out / "f.bin")
        checks = {
            "residual_refinement": report["refinement"]["factor"] >= REFINEMENT_FACTOR,
            "div_b1": ref.relative_divergence(b) <= DIV_TOL,
            "flux_form_equation": ref.flux_residual(b, u, f) <= FLUX_RESIDUAL_TOL,
            # a valid step passes every check ci-step makes of it
            # (increment bound, smallness, cutoff budget, mean of u_1)
            "exit_code_0": code == 0,
        }
        return checks, {"exit_code": code}


class DriftSolve:
    """driftdiff.solve at 32^3 on manufactured problems at drift scales
    3, 10 and 30, generated from the benchmark seed."""

    name = "drift-solve"
    n, d = 32, 3
    scales = (3, 10, 30)

    def setup(self, seed: int, out: Path) -> None:
        from mikado_forge import driftdiff
        from mikado_forge.torus import ScalarField, TorusGrid, VectorField
        rng = np.random.default_rng(seed)
        grid = TorusGrid(dim=self.d, n=self.n)
        self.driftdiff = driftdiff
        self.problems = {}
        for scale in self.scales:
            b, u_star, f = ref.manufactured_problem(rng, self.n, self.d, scale)
            self.problems[f"solve.b{scale}"] = (
                VectorField.from_arrays(grid, b), ScalarField(grid, f), u_star, f)

    def operations(self):
        return [(label, lambda p=p: self.driftdiff.solve(p[0], p[1]))
                for label, p in self.problems.items()]

    def check(self, results: dict) -> tuple[dict, dict]:
        checks = {}
        for label, u in results.items():
            _, _, u_star, f = self.problems[label]
            c = ref.check_drift_solution(u.values, u_star, f)
            checks[f"{label}.recovery"] = c["recovery"]
            checks[f"{label}.energy_identity"] = c["energy_identity"]
        return checks, {}


class FamilyVerify:
    """build_family + verify_family at 256^3, p = 1.5 (criterion 1)."""

    name = "family-verify"
    n, d, p = 256, 3, 1.5
    mus = (8, 16, 32)

    def setup(self, seed: int, out: Path) -> None:
        from mikado_forge import mikado
        from mikado_forge.torus import TorusGrid
        self.mikado = mikado
        self.grid = TorusGrid(dim=self.d, n=self.n)

    def _build_and_verify(self, mu: float):
        fam = self.mikado.build_family(self.d, self.p, mu, self.grid)
        return fam, self.mikado.verify_family(fam)

    def operations(self):
        return [(f"family.mu{mu}", lambda mu=mu: self._build_and_verify(mu))
                for mu in self.mus]

    def check(self, results: dict) -> tuple[dict, dict]:
        checks = {}
        for label, (fam, rep) in results.items():
            c = ref.check_family([t.values for t in fam.densities],
                                 [[c.values for c in w.components] for w in fam.fields])
            for key in ("constant_along_axis", "points_along_axis", "product_mean",
                        "disjoint", "mean_free"):
                checks[f"{label}.{key}"] = c[key]
            # a family with these identities must pass verify_family, and
            # its report must measure what the reference measures
            checks[f"{label}.verify_family_passed"] = rep.passed
            checks[f"{label}.verify_family_agrees"] = report_agrees(rep, c)
        return checks, {}


def report_agrees(rep, c: dict) -> bool:
    """verify_family's product errors, product L1 sum and cross overlap
    against those of ref.check_family on the same family."""
    return "product_mean_errors" in c and bool(
        np.allclose(rep.product_integral_err, c["product_mean_errors"],
                    rtol=0.0, atol=REPORT_TOL)
        and abs(rep.product_l1_sum - c["product_l1_sum"]) <= REPORT_TOL * c["product_l1_sum"]
        and rep.cross_disjointness == 0.0)


WORKLOADS = {w.name: w for w in (NashIteration, StepRefine, DriftSolve, FamilyVerify)}
