"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each in a fresh process (child.py),
until S seconds have passed, then prints one JSON object as the last line
of standard output: `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones (medians over rounds); with
--trace 1 untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced rounds plus the tracing overhead.  Run it
from the root of a checkout of the repository; program outputs and spans
go to .perfbench-out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# the program runs with its default thread settings whatever the caller's
# environment says: one FFT worker, the BLAS library's default pool
THREAD_VARIABLES = ("MF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# set-ups measured per untraced run: a run of fewer rounds starts that many
# more children that stop once their inputs are ready
SETUP_SAMPLES = 3
DEADLINE_S = 170.0      # a run must end within 180 s, whatever its children do

# metric names and units, as the benchmark declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, out: Path, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--out", str(out),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mikado_forge" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    # a terminated run raises here, and subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out = OUT / args.workload
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def run_child(kind: str, **kw) -> dict:
        return child(args.workload, args.seed, out / kind, deadline, **kw)

    try:
        plain, traced = [], []
        while True:
            if args.trace:
                # alternate so that both kinds of round see the same machine
                plain.append(run_child("plain"))
                traced.append(run_child("traced", trace=True))
            else:
                plain.append(run_child("plain"))
            if time.monotonic() - start >= args.seconds:
                break
        setups = [r["setup_s"] for r in plain] + [
            run_child("setup", setup_only=True)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - len(plain))]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    rounds = plain + traced
    for i, r in enumerate(rounds):
        kind = "traced" if i >= len(plain) else "plain"
        print(f"{args.workload} {kind} round {i}: setup {r['setup_s']:.3f} s, "
              f"run {r['run_s']:.3f} s, peak {r['peak_rss_mb']:.1f} MB, "
              f"failed {r['failed']}/{r['attempted']}, correct {r['correct']}, "
              f"verdict {r['verdict']}")
        for label, err in r["errors"].items():
            print(f"  {label} failed:\n{err}")
        for name, ok in r["checks"].items():
            if not ok:
                print(f"  check failed: {name}")

    def median(key: str, rs: list[dict]) -> float:
        return statistics.median(r[key] for r in rs)

    if args.trace:
        undeclared = set().union(*(r["layers"] for r in traced)) - set(LAYER_UNITS)
        if undeclared:
            print(f"layer metrics missing from BENCHMARK.json: {sorted(undeclared)}",
                  file=sys.stderr)
            return 1
        # a layer the workload does not call reads 0
        metrics = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
                   for name in LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median("run_s", traced) - median("run_s", plain)
        units = LAYER_UNITS
        summary = traced[-1]["summary"]
        print(f"{'span':<34} {'calls':>7} {'inclusive s':>12} {'self s':>10}")
        for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["inclusive_s"]):
            print(f"{name:<34} {row['calls']:>7} {row['inclusive_s']:>12.4f} "
                  f"{row['self_s']:>10.4f}")
        (out / "layers.json").write_text(json.dumps(
            {"metrics": metrics, "summary": summary}, indent=1))
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "run_s": median("run_s", plain),
                   "peak_rss_mb": median("peak_rss_mb", plain)}
        units = END_TO_END_UNITS

    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
