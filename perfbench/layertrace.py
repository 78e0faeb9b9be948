"""Per-layer tracing of ``csfkit`` from outside the package.

The traced run calls ``csfkit.cli.main(argv)`` in this process after
``instrument`` has replaced the public functions of every layer, and the
methods listed in ``METHODS``, with wrappers that record a span around each
call.  ``verify``, ``cli`` and ``graphs`` import names with
``from .x import y``, so each wrapper is bound in every ``csfkit`` module
namespace that binds the original.

Spans are aggregated in memory by (parent span name, span name): a sweep
makes millions of calls, too many to keep one record each.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("compositions", "coefficients", "graphs", "symfunc", "verify", "cli")

# class methods traced besides the module-level public functions
METHODS = {
    "compositions": {
        # sigma_plus/sigma_minus are left out: the theta methods cover them
        "Composition": ("__init__", "reversed", "rho", "weight", "theta_plus",
                        "theta_minus"),
    },
    "graphs": {"EExpansion": ("add_term", "grouped_by_rho")},
    "symfunc": {"BasisVector": ("add", "scale", "subtract", "equals")},
}

CLOSED_FORM = ("graphs.closed_form_", "graphs.expansion_closed_form",
               "graphs.EExpansion.add_term")
CONVERSION = ("symfunc.evector_to_p", "symfunc.e_partition_to_p")
VECTOR_OPS = ("symfunc.BasisVector.", "symfunc.first_difference")
ROOT_SPAN = ""


class Tracer:
    """Nested spans aggregated by (parent name, name), plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open spans as [name, start, time in direct children], above a root
        self.stack = [[ROOT_SPAN, 0.0, 0.0]]
        self.spans = {}  # (parent name, name) -> [self time, calls]
        self.counts = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, children = self.stack.pop()
        parent = self.stack[-1]
        duration = end - start
        parent[2] += duration
        key = (parent[0], name)
        cell = self.spans.get(key)
        if cell is None:
            cell = self.spans[key] = [0.0, 0]
        cell[0] += duration - children
        cell[1] += 1

    def self_time(self, *prefixes: str, under=None, outside=None) -> float:
        """Self time of the spans whose name starts with one of ``prefixes``,
        optionally only those whose parent's name starts (``under``) or does
        not start (``outside``) with one of the given prefixes."""
        return sum(
            self_s for (parent, name), (self_s, _) in self.spans.items()
            if name.startswith(prefixes)
            and (under is None or parent.startswith(under))
            and (outside is None or not parent.startswith(outside))
        )

    def calls(self, *prefixes: str, exact: bool = False) -> int:
        """Calls of the spans whose name starts with one of ``prefixes``, or
        with ``exact``, equals one of them."""
        return sum(
            calls for (_, name), (_, calls) in self.spans.items()
            if (name in prefixes if exact else name.startswith(prefixes))
        )

    def total_self(self) -> float:
        return sum(self_s for self_s, _ in self.spans.values())


def _wrap(tracer: Tracer, name: str, fn, after=None):
    enter, exit_, counts = tracer.enter, tracer.exit, tracer.counts
    if inspect.isgeneratorfunction(fn):
        # only compositions has generator functions: count what they yield
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    exit_()
                counts["compositions.items"] += 1
                yield item
        return traced_gen

    if after is not None:
        @functools.wraps(fn)
        def traced_after(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            after(counts, args, result)
            return result
        return traced_after

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
    return traced


def _after_csf_pbasis(counts, args, result):
    edges = args[0].edge_count
    counts["graphs.csf_pbasis.subsets"] += 2 ** edges
    counts["graphs.csf_pbasis.max_edges"] = max(counts["graphs.csf_pbasis.max_edges"], edges)


def _after_add_term(counts, args, result):  # args: (expansion, I, coeff)
    counts["graphs.closed_form.kept"] += bool(args[2])


def _after_grouped(counts, args, result):
    counts["graphs.grouped_by_rho.partitions"] += len(result.terms)


def _after_evector_to_p(counts, args, result):
    counts["symfunc.evector_to_p.e_terms"] += len(args[0].terms)
    counts["symfunc.evector_to_p.p_terms"] += len(result.terms)


def _after_run_suite(counts, args, result):
    counts["verify.checked"] += result.checked


AFTER = {
    "graphs.csf_pbasis": _after_csf_pbasis,
    "graphs.EExpansion.add_term": _after_add_term,
    "graphs.EExpansion.grouped_by_rho": _after_grouped,
    "symfunc.evector_to_p": _after_evector_to_p,
    "verify.run_suite": _after_run_suite,
}


@contextmanager
def instrument(tracer: Tracer):
    """Trace every layer while the block runs; restore the originals after."""
    modules = [importlib.import_module(f"csfkit.{layer}") for layer in LAYERS]
    wrappers = {}  # id(original function) -> wrapper
    restore = []
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = _wrap(tracer, name, obj, AFTER.get(name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                original = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{method}"
                if isinstance(original, property):
                    patched = property(_wrap(tracer, name, original.fget))
                else:
                    patched = _wrap(tracer, name, original, AFTER.get(name))
                restore.append((cls, method, original))
                setattr(cls, method, patched)
    for module in [m for key, m in sys.modules.items()
                   if key == "csfkit" or key.startswith("csfkit.")]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                restore.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def clear_caches() -> None:
    """Empty every function cache in ``csfkit``, so that each traced command
    starts cold as it does in a fresh process."""
    for key, module in list(sys.modules.items()):
        if key == "csfkit" or key.startswith("csfkit."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    t, c = tracer, tracer.counts
    items = c["compositions.items"]
    coeff_calls = t.calls("coefficients.")
    evaluated = t.calls("graphs.EExpansion.add_term")
    pbasis_s = t.self_time("graphs.csf_pbasis")
    metrics = {
        "compositions.items": (items, "count"),
        "compositions.constructed": (t.calls("compositions.Composition.__init__"), "count"),
        "compositions.self_s": (t.self_time("compositions."), "s"),
        "coefficients.calls": (coeff_calls, "count"),
        "coefficients.self_s": (t.self_time("coefficients."), "s"),
        "coefficients.calls_per_item": (coeff_calls / items if items else 0.0, "ratio"),
    }
    for fn in ("coeff_D", "classify", "solve_psqt", "phi"):
        metrics[f"coefficients.{fn}.calls"] = (t.calls(f"coefficients.{fn}", exact=True), "count")
    metrics.update({
        "graphs.closed_form.self_s": (t.self_time(*CLOSED_FORM), "s"),
        "graphs.closed_form.kept_ratio": (
            c["graphs.closed_form.kept"] / evaluated if evaluated else 0.0, "ratio"),
        "graphs.grouped_by_rho.self_s": (t.self_time("graphs.EExpansion.grouped_by_rho"), "s"),
        "graphs.grouped_by_rho.partitions": (c["graphs.grouped_by_rho.partitions"], "count"),
        "graphs.csf_pbasis.calls": (t.calls("graphs.csf_pbasis", exact=True), "count"),
        "graphs.csf_pbasis.self_s": (pbasis_s, "s"),
        "graphs.csf_pbasis.subsets": (c["graphs.csf_pbasis.subsets"], "count"),
        "graphs.csf_pbasis.max_edges": (c["graphs.csf_pbasis.max_edges"], "count"),
        "graphs.csf_pbasis.subsets_per_s": (
            c["graphs.csf_pbasis.subsets"] / pbasis_s if pbasis_s else 0.0, "1/s"),
        "symfunc.evector_to_p.calls": (t.calls("symfunc.evector_to_p", exact=True), "count"),
        # conversion includes the vector arithmetic it does itself
        "symfunc.evector_to_p.self_s": (
            t.self_time(*CONVERSION)
            + t.self_time(*VECTOR_OPS, under=CONVERSION), "s"),
        "symfunc.evector_to_p.e_terms": (c["symfunc.evector_to_p.e_terms"], "count"),
        "symfunc.evector_to_p.p_terms": (c["symfunc.evector_to_p.p_terms"], "count"),
        "symfunc.vector_ops.self_s": (
            t.self_time(*VECTOR_OPS, outside=CONVERSION), "s"),
        "verify.self_s": (t.self_time("verify."), "s"),
        "verify.checked": (c["verify.checked"], "count"),
        "cli.self_s": (t.self_time("cli."), "s"),
    })
    return metrics
