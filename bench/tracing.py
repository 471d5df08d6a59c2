"""Span tracing of the public calls into each bifrb module layer.

The library imports its functions by name (``from .nlsolve import newton``),
so a traced call has to replace the binding in every ``bifrb`` module that
holds it, not only in the defining module.  ``Tracer.patched()`` does that for
``TRACED_FUNCTIONS`` and ``TRACED_METHODS`` and restores every binding on exit.

Spans are kept in memory as ``[span_id, parent_id, name, start, end,
child_time]`` lists; the self time of a span is its duration minus the time
its (strictly nested, single-threaded) child spans cover.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import bifrb  # noqa: F401  (the package imports every layer)
from metrics import GREEDY, LAYERS, SOLVERS, SWEEPS

# layer -> public functions traced in that module.
TRACED_FUNCTIONS = {
    "nlsolve": ("newton", "deflated_newton", "discover_solutions"),
    "rom": ("reduced_residual", "reduced_jacobian", "reduced_newton",
            "reduced_deflated_newton"),
    "estimators": ("inf_sup", "nonlinear_estimate", "estimator_sweep",
                   "deflated_estimator_sweep", "beta_sweep",
                   "discover_reduced_solutions"),
    "greedy": ("vanilla_greedy", "adaptive_greedy", "deflated_greedy",
               "deflated_snapshots"),
    "analysis": ("solution_ensemble",),
}
# layer -> (class name, traced methods).
TRACED_METHODS = {
    "model": ("ParametricModel", ("residual", "jacobian")),
    "rom": ("BasisMatrix", ("enrich",)),
}


def bifrb_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bifrb" or name.startswith("bifrb."))]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: defaultdict = defaultdict(Counter)
        self._stack: list[list] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[4] = end
                stack.pop()
                if stack:
                    stack[-1][5] += end - span[3]
                self.calls[name] += 1
                self.self_s[name] += end - span[3] - span[5]
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result):
        c = self.counts[name]
        if name in SOLVERS:
            c["iters"] += result.iterations
            if result.converged:
                c["iters_converged"] += result.iterations
            else:
                c["iters_failed"] += result.iterations
            layer = name.split(".")[0]
            self.counts[f"{layer}.runs"][result.cause or "converged"] += 1
        elif name == "rom.enrich":
            c["accepted"] += int(result.enriched)
        elif name in SWEEPS:
            mus = kwargs["mus"] if "mus" in kwargs else args[2]
            c["points"] += len(mus)
        elif name in GREEDY:
            _, report = result
            c["iterations"] += report.n_iterations
            c["train_points"] += len(report.train_final)

    @contextmanager
    def patched(self):
        """Route every traced binding through a span; restore all on exit."""
        undo = []
        try:
            for layer, names in TRACED_FUNCTIONS.items():
                module = sys.modules[f"bifrb.{layer}"]
                for fname in names:
                    orig = getattr(module, fname)
                    wrapped = self.wrap(f"{layer}.{fname}", orig)
                    for mod in bifrb_modules():
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                undo.append((mod, attr, orig))
                                setattr(mod, attr, wrapped)
            for layer, (cls_name, methods) in TRACED_METHODS.items():
                cls = getattr(sys.modules[f"bifrb.{layer}"], cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- summaries ----------------------------------------------------------

    def root_time(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(s[4] - s[3] for s in self.spans if s[1] == -1)

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_s.items():
            out[name.split(".")[0]] += t
        return out

    def write_csv(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s,self_s\n")
            for sid, parent, name, start, end, child in self.spans:
                fh.write(f"{self.run_id},{sid},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f},{end - start - child:.9f}\n")
