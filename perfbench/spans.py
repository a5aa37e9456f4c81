"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (listed in
:data:`LAYERS`) with a span recorder, runs the workload, and turns the
spans into the per-layer metrics of :data:`PER_LAYER`.  Nothing under
``src/`` knows about this: wrappers replace module attributes and class
methods for the duration of the traced pass and are removed afterwards.

A span's parent is the span open in the same context (a
:class:`contextvars.ContextVar`), so spans nest correctly per asyncio
task and across ``asyncio.to_thread``.  A layer's self time is the sum
of its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span timestamps: CLOCK_MONOTONIC, comparable across processes.
clock = time.monotonic


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end,
                self.counts]

    @classmethod
    def from_list(cls, item: Sequence) -> "Span":
        return cls(item[0], item[1], item[2], item[3], item[4], dict(item[5]))


class Recorder:
    """In-memory span store; appends are atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def enter(self, name: str) -> Tuple[Span, contextvars.Token]:
        span = Span(next(self._ids), self._current.get(), name, clock())
        return span, self._current.set(span.id)

    def exit(self, span: Span, token: contextvars.Token) -> None:
        span.end = clock()
        self._current.reset(token)
        self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.to_list() for span in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span.from_list(item) for item in json.load(handle)]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def in_window(spans: Sequence[Span], window: Tuple[float, float]
              ) -> List[Span]:
    """Spans that started inside ``window``."""
    start, end = window
    return [span for span in spans if start <= span.start < end]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus direct children's."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.duration
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.duration - child_time.get(span.id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def covered_seconds(spans: Sequence[Span], window: Tuple[float, float]
                    ) -> float:
    """Length of the union of span intervals, clipped to ``window``."""
    lo, hi = window
    intervals = sorted(
        (max(span.start, lo), min(span.end, hi)) for span in spans
        if span.end > lo and span.start < hi
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


# ---------------------------------------------------------------------------
# the layers and their entry points
# ---------------------------------------------------------------------------

CountFn = Callable[[Dict[str, float], object, tuple, object], None]


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module:Qual.name`` → span ``span``.

    ``before(args)`` runs ahead of the call; ``count(counts, result,
    args, before)`` adds exact counts to the span once the call
    returned.
    """

    span: str
    target: str
    count: Optional[CountFn] = None
    before: Optional[Callable[[tuple], object]] = None


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _file_bytes(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_traced_run(counts, trace, args, before):
    _add(counts, "branches", trace.summary.branches)


def _count_batched(counts, run, args, before):
    _add(counts, "rows", len(run.traces))


def _count_written(counts, stored, args, before):
    """Bytes a ``put(key, ...)`` left at ``path_of(key)``."""
    if stored:
        owner, key = args[0], args[1]
        _add(counts, "bytes", _file_bytes(owner.path_of(key)))


def _count_consume(counts, result, args, before):
    _add(counts, "records", args[0].raw_detections - before)


def _count_plan(counts, plan, args, before):
    _add(counts, "packages", len(plan.packages))
    _add(counts, "static_insts",
         sum(package.static_size() for package in plan.packages))


def _count_fold(counts, folded, args, before):
    if folded:
        _add(counts, "folds", 1)
    _add(counts, "duplicates", args[0].duplicates - before)


def _count_store_get(counts, payload, args, before):
    _add(counts, "lookups", 1)
    if payload is not None:
        _add(counts, "hits", 1)


def _count_pack_fleet(counts, result, args, before):
    _add(counts, "packed", result.packed_shards)
    _add(counts, "cached", result.cached_shards)


def _count_calls(key: str) -> CountFn:
    def count(counts, result, args, before):
        _add(counts, key, 1)

    return count


LAYERS: Tuple[Layer, ...] = (
    Layer("engine.traced_run", "repro.engine.trace_cache:traced_run",
          _count_traced_run),
    Layer("engine.batched_run",
          "repro.engine.batched:BatchedExecutor.run_traced", _count_batched),
    Layer("engine.trace_cache_put", "repro.engine.trace_cache:TraceCache.put",
          _count_written),
    Layer("hsd.consume", "repro.engine.listeners:HSDListener.consume_trace",
          _count_consume, before=lambda args: args[0].raw_detections),
    Layer("regions.identify", "repro.regions.identify:identify_region",
          _count_calls("regions")),
    Layer("packages.construct",
          "repro.packages.construct:construct_packages"),
    Layer("packages.link", "repro.packages.construct:assemble_plan",
          _count_plan),
    Layer("optimize.package", "repro.optimize.passes:optimize_package"),
    Layer("postlink.rewrite", "repro.postlink.rewriter:rewrite_program"),
    Layer("postlink.validate", "repro.postlink.validate:validate_plan"),
    Layer("postlink.validate", "repro.postlink.validate:validate_packed"),
    Layer("postlink.coverage", "repro.postlink.coverage:measure_coverage"),
    Layer("service.clients.simulate", "repro.service.clients:simulate_fleet"),
    Layer("service.aggregate.fold",
          "repro.service.aggregate:IncrementalAggregator.ingest_text",
          _count_fold, before=lambda args: args[0].duplicates),
    Layer("service.aggregate.snapshot",
          "repro.service.aggregate:IncrementalAggregator.snapshot"),
    Layer("service.aggregate.to_state",
          "repro.service.aggregate:IncrementalAggregator.to_state"),
    Layer("service.artifacts.put",
          "repro.service.artifacts:ArtifactStore.put", _count_written),
    Layer("service.artifacts.get",
          "repro.service.artifacts:ArtifactStore.get", _count_store_get),
    Layer("service.farm.pack_fleet", "repro.service.farm:pack_fleet",
          _count_pack_fleet),
    Layer("server.route", "repro.server.app:ProfileDaemon.route_text"),
    Layer("server.checkpoint",
          "repro.server.app:ProfileDaemon.checkpoint_tenant"),
    Layer("server.request", "repro.server.routes:dispatch",
          _count_calls("requests")),
)


def _wrap(recorder: Recorder, layer: Layer, original: Callable) -> Callable:
    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            before = layer.before(args) if layer.before else None
            span, token = recorder.enter(layer.span)
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.exit(span, token)
            if layer.count is not None:
                layer.count(span.counts, result, args, before)
            return result

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before = layer.before(args) if layer.before else None
        span, token = recorder.enter(layer.span)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.exit(span, token)
        if layer.count is not None:
            layer.count(span.counts, result, args, before)
        return result

    return wrapper


class Instrumentation:
    """Installs the layer wrappers; :meth:`remove` puts everything back.

    A module-level function is replaced in its defining module and in
    every loaded ``repro`` module that imported it by name, so callers
    that did ``from x import f`` see the wrapper too.
    """

    def __init__(self, recorder: Recorder,
                 layers: Sequence[Layer] = LAYERS):
        self._undo: List[Tuple[object, str, object]] = []
        for layer in layers:
            module_name, _, qualname = layer.target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, _wrap(recorder, layer, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(recorder, layer, original)
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "") or ""
                if not name.startswith("repro"):
                    continue
                if getattr(loaded, attr, None) is original:
                    self._set(loaded, attr, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


#: Modules to import before installing, so every ``from x import f``
#: copy of a wrapped function already exists when the wrappers go in.
PRELOAD = (
    "repro.postlink.vacuum",
    "repro.postlink.validate",
    "repro.optimize.passes",
    "repro.hsd.native",
    "repro.service",
    "repro.service.farm",
    "repro.server",
    "repro.server.routes",
    "repro.cli",
)


def instrument(recorder: Recorder) -> Instrumentation:
    for module in PRELOAD:
        importlib.import_module(module)
    return Instrumentation(recorder)


def traced(fn: Callable, *args) -> Tuple[object, Recorder]:
    """``fn(*args)`` with every layer wrapped; its result and spans."""
    recorder = Recorder()
    instrumentation = instrument(recorder)
    try:
        return fn(*args), recorder
    finally:
        instrumentation.remove()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, span, count key): a ``None`` count key means the
#: span's self time; the ``trace.*`` and ratio rows are derived.
PER_LAYER: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("engine.traced_run_s", "s", "engine.traced_run", None),
    ("engine.branches", "count", "engine.traced_run", "branches"),
    ("engine.batched_run_s", "s", "engine.batched_run", None),
    ("engine.batched_rows", "count", "engine.batched_run", "rows"),
    ("engine.trace_cache_put_s", "s", "engine.trace_cache_put", None),
    ("engine.trace_cache_bytes", "bytes", "engine.trace_cache_put", "bytes"),
    ("hsd.consume_s", "s", "hsd.consume", None),
    ("hsd.records", "count", "hsd.consume", "records"),
    ("regions.identify_s", "s", "regions.identify", None),
    ("regions.regions", "count", "regions.identify", "regions"),
    ("packages.construct_s", "s", "packages.construct", None),
    ("packages.link_s", "s", "packages.link", None),
    ("packages.packages", "count", "packages.link", "packages"),
    ("packages.static_insts", "count", "packages.link", "static_insts"),
    ("optimize.package_s", "s", "optimize.package", None),
    ("postlink.rewrite_s", "s", "postlink.rewrite", None),
    ("postlink.validate_s", "s", "postlink.validate", None),
    ("postlink.coverage_s", "s", "postlink.coverage", None),
    ("service.clients.simulate_s", "s", "service.clients.simulate", None),
    ("service.aggregate.fold_s", "s", "service.aggregate.fold", None),
    ("service.aggregate.folds", "count", "service.aggregate.fold", "folds"),
    ("service.aggregate.duplicates", "count", "service.aggregate.fold",
     "duplicates"),
    ("service.aggregate.snapshot_s", "s", "service.aggregate.snapshot", None),
    ("service.aggregate.to_state_s", "s", "service.aggregate.to_state", None),
    ("service.artifacts.put_s", "s", "service.artifacts.put", None),
    ("service.artifacts.put_bytes", "bytes", "service.artifacts.put",
     "bytes"),
    ("service.artifacts.hit_ratio", "ratio", None, None),
    ("service.farm.pack_fleet_s", "s", "service.farm.pack_fleet", None),
    ("service.farm.shards_packed", "count", "service.farm.pack_fleet",
     "packed"),
    ("service.farm.shards_cached", "count", "service.farm.pack_fleet",
     "cached"),
    ("server.request_s", "s", "server.request", None),
    ("server.route_s", "s", "server.route", None),
    ("server.checkpoint_s", "s", "server.checkpoint", None),
    ("server.requests", "count", "server.request", "requests"),
    ("server.wait_ms", "ms", None, None),
    ("trace.unattributed_pct", "%", None, None),
    ("trace.overhead_pct", "%", None, None),
)


def layer_metrics(
    spans: Sequence[Span],
    window: Tuple[float, float],
    overhead_pct: float,
    client_latency_s: Sequence[float] = (),
) -> Dict[str, Dict[str, object]]:
    """Every :data:`PER_LAYER` metric from the spans inside ``window``.

    Layers that did no work report 0.  ``client_latency_s`` (the
    daemon workload's request latencies as the client saw them) makes
    ``server.wait_ms`` the mean client latency minus the mean time the
    daemon spent inside the request handler.
    """
    spans = in_window(spans, window)
    own = self_times(spans)
    sums: Dict[Tuple[str, str], float] = {}
    for span in spans:
        for key, value in span.counts.items():
            sums[(span.name, key)] = sums.get((span.name, key), 0) + value

    wall = window[1] - window[0]
    lookups = sums.get(("service.artifacts.get", "lookups"), 0)
    requests = [span for span in spans if span.name == "server.request"]
    wait_ms = 0.0
    if client_latency_s and requests:
        handler = sum(span.duration for span in requests) / len(requests)
        client = sum(client_latency_s) / len(client_latency_s)
        wait_ms = 1000.0 * (client - handler)
    derived = {
        "service.artifacts.hit_ratio": (
            sums.get(("service.artifacts.get", "hits"), 0) / lookups
            if lookups else 0.0
        ),
        "server.wait_ms": wait_ms,
        "trace.unattributed_pct": (
            100.0 * (1.0 - covered_seconds(spans, window) / wall)
            if wall > 0 else 0.0
        ),
        "trace.overhead_pct": overhead_pct,
    }
    metrics: Dict[str, Dict[str, object]] = {}
    for name, unit, span_name, key in PER_LAYER:
        if span_name is None:
            value = derived[name]
        elif key is None:
            value = own.get(span_name, 0.0)
        else:
            value = sums.get((span_name, key), 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
