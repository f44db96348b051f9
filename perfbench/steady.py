"""Steadiness check: run each workload repeatedly on one commit.

    python3 perfbench/steady.py [--workload NAME ...]

Runs the command of BENCHMARK.json once per seed 1..10 for each workload
(or each one named), with --trace 0 and the file's run_seconds, and
prints for each end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound.  A spread above a third of its bound is marked; the share
of failed operations must be the same in every run.  Exits 1 when a run
fails, is not correct, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()

    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(lines[-1])
            ok &= res["correct"]
            shares.add(Fraction(res["failed"], res["attempted"]))
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}, correct {res['correct']}",
                flush=True)
        print(f"{workload}: failed share {sorted(str(s) for s in shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS"))
        ok &= len(shares) == 1
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = ("steady" if spread <= m["bound"] / 3
                    else "within bound" if spread <= m["bound"] else "OVER BOUND")
            print(f"  {m['name']:<12} median {med:.4f} {m['unit']}, q1 {q1:.4f}, "
                  f"q3 {q3:.4f}, spread {spread:.4f} vs bound {m['bound']}: {mark}")
            ok &= spread <= m["bound"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
