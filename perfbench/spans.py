"""Span recording at the program's module boundaries, from outside it.

`Tracer.install` replaces every public function of the traced modules, in
every namespace of the package that holds it, and the complex and real
transforms of `scipy.fft`, with wrappers that record a span (name, start,
end, parent) per call.  Spans stay in memory until `write` is called at
the end of a round.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "mikado_forge"
TRACED_MODULES = ("torus", "seeds", "convexint", "mikado", "driftdiff", "fieldio")
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        # span: [id, name, parent, start, end, extra]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, *args, extra=None, **kwargs):
        sid = len(self.spans)
        rec = [sid, name, self._stack[-1], time.perf_counter(), None, extra]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra: dict = {}
            try:
                return tracer.span(name, fn, *args, extra=extra, **kwargs)
            finally:
                extra["peak_mb"] = _peak_mb()
                if name == "fieldio.write_field":
                    path = args[0] if args else kwargs["path"]
                    extra["bytes"] = Path(path).stat().st_size

        return traced

    def _wrap_fft(self, name: str, fn):
        tracer = self
        workers_pos = list(inspect.signature(fn).parameters).index("workers")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            x = args[0] if args else kwargs["x"]
            extra = {"workers": kwargs.get("workers") is not None or len(args) > workers_pos}
            out = tracer.span(name, fn, *args, extra=extra, **kwargs)
            extra["bytes"] = np.asarray(x).nbytes + out.nbytes
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import scipy.fft

        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap_function(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for fname in FFT_FUNCTIONS:
            self._patch(scipy.fft, fname, self._wrap_fft(f"fft.{fname}",
                                                         getattr(scipy.fft, fname)))

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, start, end, extra in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, **(extra or {})}) + "\n")

    def summary(self) -> dict[str, dict]:
        """Calls, inclusive and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for sid, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, _, start, end, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one round (see the benchmark README)."""
        fft = [s for s in self.spans if s[1].startswith("fft.")]
        m: dict[str, float] = {
            "fft.calls": len(fft),
            "fft.s": sum(s[4] - s[3] for s in fft),
            "fft.gb": sum(s[5].get("bytes", 0) for s in fft) / 1e9,
            "fft.calls_without_workers": sum(not s[5]["workers"] for s in fft),
        }

        def total(name: str) -> float:
            return sum(s[4] - s[3] for s in self.spans if s[1] == name)

        def peak(name: str) -> float:
            return max((s[5]["peak_mb"] for s in self.spans if s[1] == name), default=0.0)

        for name in ("seeds.cascade_seed", "seeds.shifted_cosine_seed",
                     "convexint.run_iteration", "convexint.assemble_step",
                     "convexint.equation_residual", "convexint.sampled_residual",
                     "mikado.build_family", "mikado.verify_family",
                     "torus.axis_derivative_norm", "torus.norm", "fieldio.write_field"):
            m[name + "_s"] = total(name)
        m["convexint.assemble_step.peak_mb"] = peak("convexint.assemble_step")
        m["convexint.equation_residual.peak_mb"] = peak("convexint.equation_residual")
        m["fieldio.mb"] = sum(s[5].get("bytes", 0) for s in self.spans
                              if s[1] == "fieldio.write_field") / 1e6

        # an operation span named op.solve.<tag> (drift-solve names its
        # operations after their drift scale) gives the metrics of <tag>
        ancestor_op = [None] * len(self.spans)
        for sid, name, parent, *_ in self.spans:
            if name.startswith("op.solve."):
                ancestor_op[sid] = name.removeprefix("op.solve.")
            elif parent >= 0:
                ancestor_op[sid] = ancestor_op[parent]
        for tag in dict.fromkeys(t for t in ancestor_op if t is not None):
            solves = [s for s in self.spans
                      if s[1] == "driftdiff.solve" and ancestor_op[s[0]] == tag]
            ffts = sum(1 for s in fft if ancestor_op[s[0]] == tag)
            m[f"driftdiff.solve_s.{tag}"] = (
                statistics.median(s[4] - s[3] for s in solves) if solves else 0.0)
            m[f"driftdiff.fft_per_solve.{tag}"] = ffts / len(solves) if solves else 0.0
        return m
