"""Run the parity configs of the experiment runner and keep every output.

Usage: python tools/parity.py <source tree> <workers> <out dir>

Imports `mikado_forge` from `<source tree>/src`, sets the worker count
with `set_fft_workers(<workers>)`, and runs each config below through
`cli.run_experiment` at seed 1, writing its files into `<out dir>/<name>`
and its exit code into `<out dir>/exit_codes.txt`.  Two trees give
byte-identical outputs when `diff -r` of their two out dirs is empty:

    python tools/parity.py ../parent 2 /tmp/parent-2
    python tools/parity.py . 2 /tmp/change-2
    diff -r /tmp/parent-2 /tmp/change-2

The configs cover every experiment, the two benchmark experiments
(nash-iteration and step-refine), a parameter search and a d = 4 step.
A run takes about a minute on two cores, and under 1 GB.
"""

from __future__ import annotations

import sys
from pathlib import Path

SEED = 1

# name: (experiment, raw config)
CONFIGS = {
    "counterexample": ("counterexample", {}),
    "commutator": ("commutator", {"d": 2, "N": 32, "z_per_axis": 11}),
    "commutator-rough": ("commutator", {"d": 2, "N": 32, "z_per_axis": 11,
                                        "rough_contrast": True}),
    "osc-verify": ("osc-verify", {"d": 2, "N": 256, "cases": 3, "lambda": [4, 8, 16]}),
    "solve-d2": ("solve", {"d": 2, "N": 32}),
    "solve": ("solve", {}),
    "moser-d2": ("moser", {"d": 2, "N": 32}),
    "moser": ("moser", {}),
    "uniqueness-d2": ("uniqueness", {"d": 2, "N": 32}),
    "uniqueness": ("uniqueness", {}),
    "maxprinc": ("maxprinc", {"d": 2, "N": 32, "drifts": 8, "scale_span": 10.0}),
    "mikado-verify": ("mikado-verify", {"scaling_mu_list": [8.0, 16.0, 32.0],
                                        "scaling_N": 256}),
    # the step-refine workload
    "ci-step": ("ci-step", {"d": 3, "N": 64, "refine_N": 128, "lambda": 1, "mu": 8.0,
                            "resolution_factor": 4.0, "write_fields": True}),
    # the nash-iteration workload; exits 1 by design (docs/criterion5.md)
    "ci-run-nash": ("ci-run", {"seed_kind": "cascade", "d": 3, "N": 128, "K": 3,
                               "lam_schedule": [1, 2, 2], "mu_schedule": [7.0, 7.0, 7.0],
                               "write_fields": True}),
    # the parameter search; exits 1
    "ci-run-search": ("ci-run", {"d": 3, "N": 32, "K": 1, "flux_shift": 64.0,
                                 "resolution_factor": 2.0}),
    "ci-step-d4-h1": ("ci-step", {"d": 4, "N": 32, "mode": "H1", "p": 8 / 7, "mu": 9.0,
                                  "resolution_factor": 3.5, "lambda": 1,
                                  "flux_shift": 512.0}),
}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, workers, out = Path(argv[0]).resolve(), int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(tree / "src"))
    from mikado_forge import cli, torus

    if not Path(torus.__file__).resolve().is_relative_to(tree):
        raise SystemExit(f"mikado_forge was imported from {torus.__file__}, not {tree}")
    torus.set_fft_workers(workers)
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, (experiment, raw) in CONFIGS.items():
        code, _ = cli.run_experiment(experiment, dict(raw), out / name, SEED)
        codes.append(f"{name} {code}")
        print(codes[-1], flush=True)
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
