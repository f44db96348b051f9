"""One round of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --t0 T --out DIR
                               [--trace 0|1] [--setup-only]

T is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, imports and input generation.  The
last line of standard output is one JSON object describing the round;
with --setup-only the child stops once its inputs are ready and reports
setup_s alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, args.out)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    ops = wl.operations()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, errors = {}, {}
    start = time.monotonic()
    for label, op in ops:
        try:
            if tracer is not None:
                results[label] = tracer.span(f"op.{label}", op)
            else:
                results[label] = op()
        except Exception:
            errors[label] = traceback.format_exc(limit=3)
    run_s = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
           "attempted": len(ops), "failed": len(errors), "errors": errors}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.out / "spans.jsonl")
        out["layers"] = tracer.layer_metrics()
        out["summary"] = tracer.summary()
    checks, verdict = wl.check(results)
    out["checks"] = {k: bool(v) for k, v in checks.items()}
    out["verdict"] = verdict
    out["correct"] = all(out["checks"].values())
    print(json.dumps(out, default=lambda v: v.item()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
