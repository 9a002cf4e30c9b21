"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each layer's public module-level functions, and
the public methods of the classes in ``CLASS_METHODS``, with timing wrappers
at every name that binds them inside the ``graphspace`` package: a function
imported by name into another module (``kernels.gather``,
``geometry.min_sq_over_group``) is a separate binding and is patched too.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Spans are kept in memory.  Each thread keeps its own parent stack, because
``graphspace gram`` runs a thread pool; a span opened on a worker thread with
an empty stack takes as parent the span open on the op thread.

Self time is a span's duration minus the time its children cover.  With
several threads inside spans at once, each instant is split evenly between
the innermost spans of the threads that run, and the op thread does not run
while a worker holds a span (it waits on the pool), so the self times of all
layers add up to the wall time that any span covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

PACKAGE = "graphspace"
LAYERS = ("graphs", "orbits", "kernels", "geometry", "alignment", "cli")
CLASS_METHODS = {"alignment": ("Alignment",)}

# Names the per-layer metrics read; a name absent after a refactor is listed
# as missing and its metrics read 0.
GATHER = "orbits.gather"
PERMUTATION_ARRAY = "orbits.permutation_array"
SCAN = "orbits.iter_permutation_blocks"  # one call starts one scan over n! permutations
KERNEL_FNS = ("edit_kernel", "general_ged", "induced_metric", "mcs_kernel")
GRAM = "cli.cmd_gram"
SAMPLE_MEAN = "geometry.sample_mean"
LOAD_GRAPH = "graphs.load_graph"
ALIGNMENT_FNS = ("__init__", "rho_star", "align", "expansion_check")
EXPECTED = (GATHER, PERMUTATION_ARRAY, SCAN, GRAM, SAMPLE_MEAN, LOAD_GRAPH,
            *(f"kernels.{f}" for f in KERNEL_FNS),
            *(f"alignment.Alignment.{f}" for f in ALIGNMENT_FNS))

PER_LAYER = [
    *((f"{layer}.{what}", unit) for layer in LAYERS
      for what, unit in (("calls", "calls/op"), ("self_s", "s/op"), ("share", "ratio"))),
    ("orbits.gather.calls", "calls/op"),
    ("orbits.gather.self_s", "s/op"),
    ("orbits.gather.bytes_computed", "B/op"),
    ("orbits.permutation_array.self_s", "s/op"),
    ("orbits.permutation_array.setup_self_s", "s"),
    *((f"kernels.{f}.p50_ms", "ms") for f in KERNEL_FNS),
    ("kernels.scans", "scans/op"),
    ("kernels.perms_computed", "perms/op"),
    ("cli.gram.self_s", "s/op"),
    ("cli.gram.useful_scan_ratio", "ratio"),
    ("geometry.sample_mean.iters", "iters/call"),
    ("geometry.sample_mean.scans_per_iter", "scans/iter"),
    *((f"alignment.Alignment.{f}.self_s", "s/op") for f in ALIGNMENT_FNS),
    ("graphs.load_graph.self_s", "s/op"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _gather_extra(args, kwargs):
    cells, perms = args[0], args[1]
    rows, n = perms.shape[0], perms.shape[1]
    return rows, rows * n * n * cells.shape[2] * 8


def _mean_iterations(result):
    # A converged run also spent one round on the rejected candidate.
    return len(result.trace) - 1 + int(result.converged)


PRE_HOOKS = {GATHER: _gather_extra}
POST_HOOKS = {SAMPLE_MEAN: _mean_iterations}


def _is_function(obj) -> bool:
    """A plain function, or one wrapped by a decorator such as lru_cache."""
    return inspect.isfunction(obj) or inspect.isfunction(getattr(obj, "__wrapped__", None))


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Span:
    __slots__ = ("key", "layer", "parent", "tid", "t0", "t1", "extra")

    def __init__(self, key, layer, parent, tid, t0):
        self.key, self.layer, self.parent, self.tid, self.t0 = key, layer, parent, tid, t0
        self.t1 = t0
        self.extra = None

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


class Tracer:
    """Records spans while installed; one instance per group of traced ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_tid = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {}
        self._installed: list[tuple[object, str, object]] | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.found: set[str] = set()

    def _wrap(self, key: str, layer: str, fn):
        spans, stacks, op_tid = self.spans, self._stacks, self.op_tid
        pre, post = PRE_HOOKS.get(key), POST_HOOKS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                owner = stacks.get(op_tid) if tid != op_tid else None
                parent = owner[-1] if owner else None
            span = Span(key, layer, parent, tid, perf_counter())
            if pre is not None:
                span.extra = pre(args, kwargs)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
            if post is not None:
                span.extra = post(result)
            return result

        return traced

    def _targets(self):
        """(key, layer, owner, attribute, original) for everything to wrap."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _is_function(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    yield f"{layer}.{name}", layer, mod, name, obj
            for cls_name in CLASS_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    continue
                for name, obj in list(vars(cls).items()):
                    if name.startswith("_") and name != "__init__":
                        continue
                    if isinstance(obj, functools.cached_property):
                        yield f"{layer}.{cls_name}.{name}", layer, obj, "func", obj.func
                    elif inspect.isfunction(obj):
                        yield f"{layer}.{cls_name}.{name}", layer, cls, name, obj

    def _plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding to patch."""
        plan, wrappers = [], {}
        for key, layer, owner, attr, original in self._targets():
            wrapper = self._wrap(key, layer, original)
            self.found.add(key)
            if isinstance(owner, types.ModuleType):
                wrappers[id(original)] = wrapper
            else:
                plan.append((owner, attr, wrapper))
        # Module-level functions: the defining module's name, every other name
        # in the package that binds the same function, and the values of
        # module-level dispatch tables (cli's command table).
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    plan.append((mod, attr, wrappers[id(obj)]))
                elif isinstance(obj, dict):
                    plan += [(obj, k, wrappers[id(v)]) for k, v in obj.items() if id(v) in wrappers]
        return plan

    def install(self) -> None:
        if self._installed is None:
            self._installed = self._plan()
        for owner, attr, wrapper in self._installed:
            self._saved.append((owner, attr, _get(owner, attr)))
            _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)

    def missing(self) -> list[str]:
        return [key for key in EXPECTED if key not in self.found]


def self_times(spans: list[Span], op_tid: int) -> dict[Span, float]:
    """Self seconds of every span, splitting concurrent time between threads."""
    events = []
    for seq, span in enumerate(spans):
        events.append((span.t0, 1, seq, span))
        events.append((span.t1, 0, -seq, span))
    events.sort(key=lambda e: e[:3])
    stacks: dict[int, list[Span]] = defaultdict(list)
    own: dict[Span, float] = defaultdict(float)
    prev = None
    for t, kind, _, span in events:
        if prev is not None and t > prev:
            running = [s[-1] for tid, s in stacks.items() if s]
            if len(running) > 1:
                running = [s for s in running if s.tid != op_tid] or running
            for s in running:
                own[s] += (t - prev) / len(running)
        prev = t
        if kind == 1:
            stacks[span.tid].append(span)
        else:
            stacks[span.tid].remove(span)
    return own


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer_metrics(tracer: Tracer, op_seconds: list[float], untraced_seconds: list[float],
                      setup: Tracer) -> dict[str, float]:
    """Every ``PER_LAYER`` metric, averaged per traced op."""
    ops = max(1, len(op_seconds))
    traced_total = sum(op_seconds)
    own = self_times(tracer.spans, tracer.op_tid)
    by_key = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for span in tracer.spans:
        by_key[span.key] += own.get(span, 0.0)
        calls[span.key] += 1
        durations[span.key].append(span.t1 - span.t0)
    m: dict[str, float] = {}
    for layer in LAYERS:
        keys = [k for k in by_key if k.split(".", 1)[0] == layer]
        layer_self = sum(by_key[k] for k in keys)
        m[f"{layer}.calls"] = sum(calls[k] for k in keys) / ops
        m[f"{layer}.self_s"] = layer_self / ops
        m[f"{layer}.share"] = layer_self / traced_total if traced_total else 0.0

    gathers = [s for s in tracer.spans if s.key == GATHER]
    m["orbits.gather.calls"] = calls[GATHER] / ops
    m["orbits.gather.self_s"] = by_key[GATHER] / ops
    m["orbits.gather.bytes_computed"] = sum(s.extra[1] for s in gathers) / ops
    m["orbits.permutation_array.self_s"] = by_key[PERMUTATION_ARRAY] / ops
    setup_own = self_times(setup.spans, setup.op_tid)
    m["orbits.permutation_array.setup_self_s"] = sum(
        v for s, v in setup_own.items() if s.key == PERMUTATION_ARRAY)

    for f in KERNEL_FNS:
        m[f"kernels.{f}.p50_ms"] = _median_ms(durations[f"kernels.{f}"])
    scans = [s for s in tracer.spans if s.key == SCAN]
    m["kernels.scans"] = sum(1 for s in scans if any(a.layer == "kernels" for a in s.ancestors())) / ops
    m["kernels.perms_computed"] = sum(
        s.extra[0] for s in gathers if any(a.layer == "kernels" for a in s.ancestors())) / ops

    m["cli.gram.self_s"] = by_key[GRAM] / ops
    grams = {s for s in tracer.spans if s.key == GRAM}
    gram_scans = sum(1 for s in scans if any(a in grams for a in s.ancestors()))
    useful = 0
    for g in grams:
        k = sum(1 for s in tracer.spans if s.key == LOAD_GRAPH and g in s.ancestors())
        useful += k * (k + 1) // 2
    m["cli.gram.useful_scan_ratio"] = useful / gram_scans if gram_scans else 0.0

    means = [s for s in tracer.spans if s.key == SAMPLE_MEAN]
    iters = sum(s.extra for s in means)
    mean_scans = sum(1 for s in scans if any(a.key == SAMPLE_MEAN for a in s.ancestors()))
    m["geometry.sample_mean.iters"] = iters / len(means) if means else 0.0
    m["geometry.sample_mean.scans_per_iter"] = mean_scans / iters if iters else 0.0

    for f in ALIGNMENT_FNS:
        m[f"alignment.Alignment.{f}.self_s"] = by_key[f"alignment.Alignment.{f}"] / ops
    m["graphs.load_graph.self_s"] = by_key[LOAD_GRAPH] / ops

    m["trace.attributed_share"] = sum(by_key.values()) / traced_total if traced_total else 0.0
    untraced_total = sum(untraced_seconds)
    m["trace.overhead_ratio"] = traced_total / untraced_total if untraced_total else math.nan
    return m
