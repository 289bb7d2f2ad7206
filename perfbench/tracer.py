"""Out-of-library instrumentation: rebinding, coarse phase timers and spans.

Nothing under ``src/`` is edited.  ``rebind`` swaps a function for a wrapper
in every ``mcassort`` namespace that holds it -- the defining module, the
package namespace and every module that did ``from .x import f`` -- and puts
the originals back on exit, so a call is caught whichever name it goes
through.

``Recorder`` is what a workload pass always gets: coarse per-phase timers
(plan, policy preparation, simulation) and operation markers that cost
nothing.  ``Tracer`` extends it for the traced run: one span per call of each
function in ``LAYERS`` (name, start, end, parent span, operation id), kept in
memory for the caller to write out at the end, plus computed work sizes.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

from mcassort import attenuate, blackbox, colgen, lpcore, mcdlp, model, norepeat, rounding, simlab


def _namespaces():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mcassort" or name.startswith("mcassort."))
    ]


@contextlib.contextmanager
def rebind(targets):
    """Replace ``getattr(module, attr)`` by ``make(current)`` everywhere it is bound.

    ``targets`` is a sequence of ``(module, attr, make)``.  Whatever object the
    attribute holds on entry is wrapped, so rebinds nest; on exit every
    replaced binding gets its previous value back, last replaced first.
    """
    saved = []
    try:
        for mod, attr, make in targets:
            current = getattr(mod, attr)
            wrapper = make(current)
            for ns in _namespaces():
                for key, val in list(vars(ns).items()):
                    if val is current:
                        saved.append((ns, key, val))
                        setattr(ns, key, wrapper)
        yield
    finally:
        for ns, key, val in reversed(saved):
            setattr(ns, key, val)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def replica_steps(fn, args, kwargs) -> int:
    """Replica-steps of a simulator call: replicas times the horizon T."""
    a = _bound(fn, args, kwargs)
    return int(a["replicas"]) * int(a["inst"].T)


class Recorder:
    """Coarse phase timers plus no-op operation markers (the untraced run)."""

    def __init__(self):
        self.phase_s: dict[str, float] = defaultdict(float)
        self.steps: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def phase(self, name: str, steps: int = 0):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] += time.perf_counter() - start
            self.steps[name] += steps

    def op(self, op_id: str):
        return contextlib.nullcontext()

    def timed(self, mod, attr: str, phase: str, steps=None):
        """Rebind target whose every call is charged to ``phase``; ``steps``
        maps (fn, args, kwargs) to the replica-steps of the call."""
        def make(fn):
            @functools.wraps(fn)
            def timed_call(*args, **kwargs):
                n = steps(fn, args, kwargs) if steps else 0
                with self.phase(phase, n):
                    return fn(*args, **kwargs)
            return timed_call
        return (mod, attr, make)


# --- computed sizes, from arguments and results --------------------------------

def _lp_size(fn, args, kwargs, res):
    m = _bound(fn, args, kwargs)["model"]
    rows, cols = len(m.rows), len(m.objective)
    return {"lpcore.solve.tableau_cells": rows * (cols + rows),
            "lpcore.solve.failed": int(res.status != "optimal")}


def _build_size(fn, args, kwargs, res):
    return {"mcdlp.build.columns": len(res.objective)}


def _cells(key, arg):
    def size(fn, args, kwargs, res):
        B, N = _bound(fn, args, kwargs)[arg].shape
        return {key: B * N}
    return size


def _colgen_size(fn, args, kwargs, res):
    return {"colgen.iterations": res.iterations, "colgen.columns_added": len(res.added)}


def _factors_size(fn, args, kwargs, res):
    return {"attenuate.factor_clamps": len(res.diagnostics)}


def _alg6_size(fn, args, kwargs, res):
    return {"attenuate.replica_steps": replica_steps(fn, args, kwargs),
            "attenuate.factor_clamps": len(res[1].diagnostics)}


def _steps_into(key):
    def size(fn, args, kwargs, res):
        return {key: replica_steps(fn, args, kwargs)}
    return size


def _sweep_size(fn, args, kwargs, res):
    a = _bound(fn, args, kwargs)
    spec = a["spec"]
    cells = len(spec.loading_factors) * len(spec.patiences) * len(spec.caps) * len(spec.scale_factors)
    return {"simlab.skipped_cells": cells - len(res) // len(a["policies"])}


# (module, attribute, span name, size function).  Span names are the layer
# metric prefixes.  ``trace`` samplers run inside simlab/norepeat spans and
# ``cli`` is formatting around these same calls, so neither is a layer.
LAYERS = (
    (lpcore, "solve", "lpcore.solve", _lp_size),
    (mcdlp, "build", "mcdlp.build", _build_size),
    (mcdlp, "solve_variant", "mcdlp.solve_variant", None),
    (colgen, "column_generate", "colgen.column_generate", _colgen_size),
    (colgen, "subproblem_mnl_fptas", "colgen.subproblem_mnl_fptas", None),
    (colgen, "subproblem_bruteforce", "colgen.subproblem_bruteforce", None),
    (rounding, "gkps_round_batch", "rounding.gkps_round_batch", _cells("rounding.gkps_round_batch.cells", "z_rows")),
    (blackbox, "batch_flip", "blackbox.batch_flip", _cells("blackbox.batch_flip.cells", "x_rows")),
    (attenuate, "compute_attenuation_factors", "attenuate.compute_attenuation_factors", _factors_size),
    (attenuate, "run_algorithm1", "attenuate.run_algorithm1", _steps_into("attenuate.replica_steps")),
    (attenuate, "run_algorithm6", "attenuate.run_algorithm6", _alg6_size),
    (norepeat, "run_algorithm3", "norepeat.run_algorithm3", _steps_into("norepeat.replica_steps")),
    (simlab, "run_benchmark", "simlab.run_benchmark", _steps_into("simlab.replica_steps")),
    (simlab, "run_sweep", "simlab.run_sweep", _sweep_size),
)

# Called hundreds of thousands of times per pass: counted, never timed.
COUNTED = ((model, "choice_prob", "model.choice_prob"),)


class Tracer(Recorder):
    """Recorder that also keeps a span per traced call and computed sizes."""

    def __init__(self):
        super().__init__()
        self.spans: list[tuple | None] = []   # (name, start, end, parent, op)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = ""

    def _span(self, name: str, fn, args, kwargs, size):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)
            self.counts[name + ".calls"] += 1
        if size is not None:
            for key, val in size(fn, args, kwargs, res).items():
                self.counts[key] += val
        return res

    @contextlib.contextmanager
    def op(self, op_id: str):
        prev, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = prev

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        def spanned(name, size):
            def make(fn):
                @functools.wraps(fn)
                def traced_call(*args, **kwargs):
                    return self._span(name, fn, args, kwargs, size)
                return traced_call
            return make

        def counted(name):
            key = name + ".calls"

            def make(fn):
                @functools.wraps(fn)
                def counted_call(*args, **kwargs):
                    self.counts[key] += 1
                    return fn(*args, **kwargs)
                return counted_call
            return make

        targets = [(mod, attr, spanned(name, size)) for mod, attr, name, size in LAYERS]
        targets += [(mod, attr, counted(name)) for mod, attr, name in COUNTED]
        with rebind(targets):
            yield self

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out


def layer_metrics(tracers: list[Tracer], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one or more traced passes of identical work:
    counts from the last pass, self times as the median over passes."""
    last = tracers[-1]
    c = last.counts
    selfs = [t.self_times() for t in tracers]

    def self_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs), "s"

    def count(key):
        return c.get(key, 0), "count"

    pricing_calls = c.get("colgen.subproblem_mnl_fptas.calls", 0) + c.get("colgen.subproblem_bruteforce.calls", 0)
    added = c.get("colgen.columns_added", 0)
    return {
        "lpcore.solve.calls": count("lpcore.solve.calls"),
        "lpcore.solve.self_s": self_s("lpcore.solve"),
        "lpcore.solve.tableau_cells": count("lpcore.solve.tableau_cells"),
        "lpcore.solve.failed": count("lpcore.solve.failed"),
        "mcdlp.build.calls": count("mcdlp.build.calls"),
        "mcdlp.build.self_s": self_s("mcdlp.build"),
        "mcdlp.build.columns": count("mcdlp.build.columns"),
        "mcdlp.solve_variant.self_s": self_s("mcdlp.solve_variant"),
        "colgen.column_generate.self_s": self_s("colgen.column_generate"),
        "colgen.subproblem_mnl_fptas.calls": count("colgen.subproblem_mnl_fptas.calls"),
        "colgen.subproblem_mnl_fptas.self_s": self_s("colgen.subproblem_mnl_fptas"),
        "colgen.subproblem_bruteforce.calls": count("colgen.subproblem_bruteforce.calls"),
        "colgen.subproblem_bruteforce.self_s": self_s("colgen.subproblem_bruteforce"),
        "colgen.iterations": count("colgen.iterations"),
        "colgen.columns_added": count("colgen.columns_added"),
        "colgen.columns_per_pricing": (added / pricing_calls if pricing_calls else 0.0, "ratio"),
        "rounding.gkps_round_batch.calls": count("rounding.gkps_round_batch.calls"),
        "rounding.gkps_round_batch.self_s": self_s("rounding.gkps_round_batch"),
        "rounding.gkps_round_batch.cells": count("rounding.gkps_round_batch.cells"),
        "blackbox.batch_flip.calls": count("blackbox.batch_flip.calls"),
        "blackbox.batch_flip.self_s": self_s("blackbox.batch_flip"),
        "blackbox.batch_flip.cells": count("blackbox.batch_flip.cells"),
        "attenuate.compute_attenuation_factors.self_s": self_s("attenuate.compute_attenuation_factors"),
        "attenuate.run_algorithm1.self_s": self_s("attenuate.run_algorithm1"),
        "attenuate.run_algorithm6.self_s": self_s("attenuate.run_algorithm6"),
        "attenuate.factor_clamps": count("attenuate.factor_clamps"),
        "attenuate.replica_steps": count("attenuate.replica_steps"),
        "norepeat.run_algorithm3.calls": count("norepeat.run_algorithm3.calls"),
        "norepeat.run_algorithm3.self_s": self_s("norepeat.run_algorithm3"),
        "norepeat.replica_steps": count("norepeat.replica_steps"),
        "simlab.run_benchmark.calls": count("simlab.run_benchmark.calls"),
        "simlab.run_benchmark.self_s": self_s("simlab.run_benchmark"),
        "simlab.replica_steps": count("simlab.replica_steps"),
        "simlab.run_sweep.self_s": self_s("simlab.run_sweep"),
        "simlab.skipped_cells": count("simlab.skipped_cells"),
        "model.choice_prob.calls": count("model.choice_prob.calls"),
        "bench.trace_overhead_s": (overhead_s, "s"),
    }
