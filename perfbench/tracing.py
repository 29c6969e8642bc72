"""Traced pass: spans and counters around the public functions of kboundary.

The library is not changed.  ``Tracer.install`` replaces each traced
function with a wrapper on every namespace that holds it (a module that
imported a copy, the package's re-exports, a tuple such as
``selfcheck.ALL_CHECKS``), and ``uninstall`` puts the originals back.

A span records (name, start, end, parent span, job id).  Hot scalar
evaluators get call counters only, so that tracing stays cheap.  Calls into
``numpy.linalg`` are counted against the module of the innermost span.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter

import jsonschema
import numpy.linalg

# module -> functions that get a span named "<module>.<function>"
SPANS = {
    "cli": ("parse_config", "run", "emit"),
    "kernels": ("assemble_gram", "check_positive_definite"),
    "rkhs": ("parseval_factorize", "verify_parseval", "tightness_test"),
    "factorization": ("verify_factorization", "apply_W", "apply_V", "minimality_test",
                      "check_isometry", "range_projection", "projection_spectrum",
                      "schwarz_bound_check", "check_morphism"),
    "gaussian": ("realize", "sample", "empirical_covariance", "consistency_check"),
    "clark": ("build_kb_factorization", "build_szego_factorization", "inner_modulus_check",
              "renormalize", "polydisk_density_test", "herglotz_poisson_check"),
}
# module -> hot evaluators that get a call counter "<module>.<function>.calls"
COUNTED = {"clark": ("b_eval", "kb_eval", "cauchy_transform")}
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "matrix_rank", "solve")
DECOMPOSITION_MODULES = ("kernels", "rkhs", "factorization", "gaussian", "clark")
SPAN_CALLS = ("kernels.assemble_gram", "kernels.FiniteKernel.init",
              "factorization.verify_factorization", "factorization.apply_W",
              "factorization.apply_V", "clark.herglotz_poisson_check")

# Metrics a traced pass reports, in order: (name, unit).
SELF_TIME_SPANS = (
    "cli.parse_config", "cli.schema_validate", "cli.run", "cli.emit",
    "kernels.assemble_gram", "kernels.FiniteKernel.init", "kernels.check_positive_definite",
    *(f"{m}.{f}" for m in ("rkhs", "factorization", "gaussian", "clark") for f in SPANS[m]),
)


def layer_metric_names(check_names) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, for the given selfcheck functions."""
    names = [(f"{s}.self_s", "s") for s in SELF_TIME_SPANS]
    names += [(f"{s}.calls", "count") for s in SPAN_CALLS]
    names += [(f"clark.{f}.calls", "count") for f in COUNTED["clark"]]
    names += [("kernels.pair_evals", "count"), ("gaussian.sample.values", "count"),
              ("gaussian.sample.bytes", "computed_bytes"),
              ("gaussian.stat_check_failures", "count"),
              ("cli.config_bytes", "bytes"), ("cli.report_bytes", "bytes"),
              ("cli.exit0", "count"), ("cli.exit1", "count"), ("cli.exit2", "count")]
    names += [(f"{m}.decompositions", "count") for m in DECOMPOSITION_MODULES]
    names += [(f"selfcheck.{c}.total_s", "s") for c in check_names]
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    """Spans and counters for one process; install before the traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _decomposition(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            module = spans[stack[-1]][0].split(".", 1)[0] if stack else "none"
            counts[f"{module}.decompositions"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def job_runner(self, main):
        """``main`` wrapped in a root span "job" that tags every span with its job."""
        return self._span("job", main)

    # -- install / uninstall --------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"kboundary.{name}") for name in
                   ("cli", "kernels", "rkhs", "factorization", "gaussian", "clark", "selfcheck")}
        kernels, selfcheck = modules["kernels"], modules["selfcheck"]
        wrapped = {}
        for mod, functions in SPANS.items():
            for fn_name in functions:
                fn = getattr(modules[mod], fn_name)
                wrapped[fn] = self._span(f"{mod}.{fn_name}", fn, self._on_result(mod, fn_name))
        for mod, functions in COUNTED.items():
            for fn_name in functions:
                fn = getattr(modules[mod], fn_name)
                wrapped[fn] = self._counter(f"{mod}.{fn_name}.calls", fn)
        for check in selfcheck.ALL_CHECKS:
            wrapped[check] = self._span(f"selfcheck.{check.__name__}", check)
        pair_callable = kernels._kernel_callable
        wrapped[pair_callable] = lambda spec: self._counter(
            "kernels.pair_evals", pair_callable(spec))

        # Every namespace that holds a traced function gets the wrapper.
        for name, module in list(sys.modules.items()):
            if name != "kboundary" and not name.startswith("kboundary."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, tuple) and any(_is_function(v) and v in wrapped for v in value):
                    self._set(module, attr, tuple(wrapped.get(v, v) if _is_function(v) else v
                                                  for v in value))
                elif _is_function(value) and value in wrapped:
                    self._set(module, attr, wrapped[value])

        self._set(kernels.FiniteKernel, "__post_init__", self._span(
            "kernels.FiniteKernel.init", kernels.FiniteKernel.__post_init__))
        self._set(jsonschema, "validate", self._span("cli.schema_validate", jsonschema.validate))
        for fn_name in DECOMPOSITIONS:
            self._set(numpy.linalg, fn_name, self._decomposition(getattr(numpy.linalg, fn_name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _on_result(self, mod, fn_name):
        counts = self.counts
        if (mod, fn_name) == ("gaussian", "sample"):
            def on_sample(batch):
                counts["gaussian.sample.values"] += batch.draws.size
                counts["gaussian.sample.bytes"] += batch.draws.nbytes
            return on_sample
        if (mod, fn_name) == ("cli", "emit"):
            def on_emit(blob):
                counts["cli.report_bytes"] += len(blob)
            return on_emit
        return None

    # -- reduction -------------------------------------------------------
    def mark(self) -> tuple[int, Counter]:
        """Position to measure a pass from: (span count, counter snapshot)."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Self times, total times, call counts and counters since ``since``."""
        first, counts_before = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
            if parent >= first:
                child[parent - first] += end - start
        self_s, total_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _parent, _job) in enumerate(spans):
            total_s[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return {"self_s": self_s, "total_s": total_s, "calls": calls, "counts": counts}


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType)
