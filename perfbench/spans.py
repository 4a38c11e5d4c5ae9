"""Span recording for the traced run.

:func:`install` wraps public calls of each layer of the program, from
outside: every call becomes a span with a name, its layer, start, end,
parent span (the enclosing wrapped call on the same thread) and the run
id.  Spans are kept in memory and written once, at the end, as Chrome
Trace Event JSON (open it in ``chrome://tracing`` or Perfetto).

A layer's time is the *self time* of its spans: a span's duration minus
the part its child spans cover (``HotspotClassifier.update`` calls
``fit``; ``fit`` is counted once, under ``fit``).  Generators (tile
clip iteration, streaming extraction) get one span per item produced,
so the consumer's work between items is not charged to them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from harness import metric


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (span id, parent id, layer, name, thread id, start, end)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: layer -> durations (s) of its outermost spans, for medians
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.planes: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.time() - time.perf_counter()

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def nested(self, layer: str) -> bool:
        """Whether a span of ``layer`` is already open on this thread."""
        return any(entry[1] == layer for entry in self._stack())

    def begin(self, layer: str, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span_id = next(self._ids)
        stack.append((span_id, layer))
        return span_id, parent, layer, name, time.perf_counter()

    def end(self, token: tuple) -> float:
        span_id, parent, layer, name, start = token
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(
                (span_id, parent, layer, name, threading.get_ident(),
                 start, end)
            )
        return end - start

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def record(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.durations[layer].append(seconds)

    # -- summaries -----------------------------------------------------
    def summary(self, spans: list[tuple], self_s: dict[int, float]) -> dict:
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span[2]] += self_s[span[0]]
        for plane in self.planes.values():
            stats = plane.cache_stats  # a property
            self.count("dataplane.cache_hits", stats["hits"])
            self.count("dataplane.cache_lookups",
                       stats["hits"] + stats["misses"])
        self.planes.clear()
        return {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "self_s": dict(totals),
            "counters": dict(self.counters),
            "medians_s": {
                layer: statistics.median(values)
                for layer, values in self.durations.items() if values
            },
        }

    def write(self, path: Path) -> dict:
        """Write the Chrome trace (summary under ``otherData``)."""
        with self._lock:
            spans = list(self.spans)
        self_s = self_times(spans)
        summary = self.summary(spans, self_s)
        pid = os.getpid()
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": pid,
                "tid": tid,
                "ts": round((self._epoch + start) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {
                    "span_id": span_id, "parent_id": parent,
                    "run_id": self.run_id,
                    "self_us": round(self_s[span_id] * 1e6, 3),
                },
            }
            for span_id, parent, layer, name, tid, start, end in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": summary}, handle)
        os.replace(tmp, path)
        return summary


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> self time in seconds: duration minus the part its
    child spans cover."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    return {span_id: max(0.0, (end - start) - child_time[span_id])
            for span_id, _, _, _, _, start, end in spans}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _rows(args, kwargs, name: str = "x") -> int:
    value = kwargs.get(name, args[1] if len(args) > 1 else None)
    try:
        return len(value)
    except TypeError:
        return 0


def wrap(tracer: Tracer, owner, attr: str, layer: str,
         before=None, after=None, keep_durations: bool = False) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``before(args, kwargs, nested)`` runs ahead of the call and its
    return value is passed to ``after(state, args, kwargs, result,
    nested)``; ``nested`` tells whether a span of the same layer was
    already open on this thread (so counts are taken once).
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_static = isinstance(raw, staticmethod)
    func = raw.__func__ if is_static else raw
    name = f"{getattr(owner, '__name__', owner)}.{attr}"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        nested = tracer.nested(layer)
        state = before(args, kwargs, nested) if before else None
        token = tracer.begin(layer, name)
        try:
            result = func(*args, **kwargs)
        finally:
            seconds = tracer.end(token)
        if keep_durations and not nested:
            tracer.record(layer, seconds)
        if after:
            after(state, args, kwargs, result, nested)
        return result

    setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)


def wrap_generator(tracer: Tracer, owner, attr: str, layer: str,
                   on_item=None, before=None) -> None:
    """Like :func:`wrap` for a generator method: one span per item."""
    func = owner.__dict__[attr]
    name = f"{owner.__name__}.{attr}"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if before:
            before(args, kwargs)
        gen = func(*args, **kwargs)
        while True:
            token = tracer.begin(layer, name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.end(token)
                return
            except BaseException:
                tracer.end(token)
                raise
            tracer.end(token)
            if on_item:
                on_item(item)
            yield item

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports on (see the README)."""
    from repro.calibration.temperature import TemperatureScaler
    from repro.core import framework
    from repro.dataplane.extract import BatchFeatureExtractor
    from repro.dataplane.stream import TileVerdictStore
    from repro.engine.checkpoint import checkpoint_paths
    from repro.layout.tiles import TileGrid
    from repro.litho.labeler import LithoLabeler
    from repro.model.classifier import HotspotClassifier
    from repro.serve.server import DetectionServer
    from repro.serve.transport import frames
    from repro.stats.gmm import GaussianMixture
    from repro.stats.pca import PCA

    # litho: clips simulated = growth of the labeler's query meter
    wrap(tracer, LithoLabeler, "label_batch", "litho.label",
         before=lambda a, k, n: a[0].query_count,
         after=lambda s, a, k, r, n: tracer.count(
             "litho.clips_simulated", a[0].query_count - s))

    # data plane: clips in, counted at the outermost extraction call;
    # every plane seen is asked for its cache counters at the end
    def plane_seen(args, kwargs, nested):
        tracer.planes.setdefault(id(args[0]), args[0])
        if not nested:
            tracer.count("dataplane.clips_encoded",
                         _rows(args, kwargs, "clips"))

    for attr in ("extract", "encode_batch"):
        wrap(tracer, BatchFeatureExtractor, attr, "dataplane.extract",
             before=plane_seen)
    wrap_generator(
        tracer, BatchFeatureExtractor, "iter_extract", "dataplane.extract",
        before=lambda a, k: tracer.planes.setdefault(id(a[0]), a[0]),
        on_item=lambda item: tracer.count(
            "dataplane.clips_encoded", len(item[0])),
    )

    # model: training rows x epochs at each fit (update calls fit);
    # forward rows at the outermost prediction call
    def train_rows(state, args, kwargs, result, nested):
        epochs = kwargs.get("epochs", args[3] if len(args) > 3 else None)
        if epochs is None:
            epochs = args[0].epochs
        tracer.count("model.train_rows", _rows(args, kwargs) * epochs)

    wrap(tracer, HotspotClassifier, "fit", "model.train", after=train_rows)
    wrap(tracer, HotspotClassifier, "update", "model.train")

    def forward_rows(state, args, kwargs, result, nested):
        if not nested:
            tracer.count("model.forward_rows", _rows(args, kwargs))

    for attr in ("predict_full", "predict_logits", "predict_proba"):
        wrap(tracer, HotspotClassifier, attr, "model.forward",
             after=forward_rows)

    wrap(tracer, PCA, "fit_transform", "stats.posterior")
    wrap(tracer, GaussianMixture, "fit", "stats.posterior")
    wrap(tracer, GaussianMixture, "posterior", "stats.posterior")
    wrap(tracer, TemperatureScaler, "fit", "calibration.fit")

    # the selector and checkpoint writer as the framework calls them
    wrap(tracer, framework, "entropy_sampling", "core.select")

    def checkpoint_bytes(state, args, kwargs, result, nested):
        npz, manifest = checkpoint_paths(args[1])
        tracer.count("engine.checkpoint_bytes",
                     npz.stat().st_size + manifest.stat().st_size)

    wrap(tracer, framework, "save_checkpoint", "engine.checkpoint",
         after=checkpoint_bytes)

    # streaming scan: verdict store, tile clip cutting and digests
    wrap(tracer, TileVerdictStore, "save", "stream.store_save")
    wrap(tracer, TileVerdictStore, "load", "stream.store_load")
    wrap_generator(tracer, TileGrid, "iter_clips", "layout.tile_digest")
    for attr in ("digest_clips", "tile_digest", "manifest"):
        wrap(tracer, TileGrid, attr, "layout.tile_digest")

    # serving: in-daemon submit latency
    wrap(tracer, DetectionServer, "submit", "serve.submit",
         keep_durations=True)
    install_codec(tracer, frames)


def install_codec(tracer: Tracer, frames=None) -> None:
    """Wrap the transport's payload codecs (both client and daemon
    call them through the ``frames`` module)."""
    if frames is None:
        from repro.serve.transport import frames

    def payload_bytes(key):
        def after(state, args, kwargs, result, nested):
            tracer.count(key, len(result))
            tracer.count(key + "_n", 1)
        return after

    wrap(tracer, frames, "encode_clips", "transport.codec",
         after=payload_bytes("transport.request_bytes"))
    wrap(tracer, frames, "encode_result", "transport.codec",
         after=payload_bytes("transport.response_bytes"))
    wrap(tracer, frames, "decode_clips", "transport.codec")
    wrap(tracer, frames, "decode_result", "transport.codec")


def merge(*summaries: dict) -> dict:
    """Sum the self times and counters of several processes."""
    merged = {"self_s": defaultdict(float), "counters": defaultdict(float),
              "medians_s": {}}
    for summary in summaries:
        for key, value in summary["self_s"].items():
            merged["self_s"][key] += value
        for key, value in summary["counters"].items():
            merged["counters"][key] += value
        merged["medians_s"].update(summary["medians_s"])
    return merged


def layer_metrics(summary: dict, untraced_cps: float, traced_cps: float,
                  extra: dict | None = None) -> dict:
    """Every per-layer metric from a merged trace summary (a layer that
    did not run reads 0), the figures in ``extra`` (serving counters and
    the untraced pass's wall-clock and quality figures), plus the traced
    pass's clips per CPU-second and its overhead against the untraced
    pass of the same run."""
    s = summary["self_s"]
    c = summary["counters"]
    metrics = {}
    for name in ("litho.label", "dataplane.extract", "model.train",
                 "model.forward", "stats.posterior", "calibration.fit",
                 "core.select", "engine.checkpoint", "stream.store_save",
                 "stream.store_load", "layout.tile_digest"):
        metrics[name + "_s"] = metric(s.get(name, 0.0), "s")
    for name, unit in (("litho.clips_simulated", "count"),
                       ("dataplane.clips_encoded", "count"),
                       ("dataplane.cache_hits", "count"),
                       ("dataplane.cache_lookups", "count"),
                       ("model.train_rows", "count"),
                       ("model.forward_rows", "count"),
                       ("engine.checkpoint_bytes", "bytes"),
                       ("stream.tiles_scored", "count"),
                       ("stream.tiles_replayed", "count")):
        metrics[name] = metric(c.get(name, 0), unit)
    extra = extra or {}
    for name, unit in (("serve.submit_ms", "ms"),
                       ("serve.batches", "count"),
                       ("serve.mean_batch_clips", "clips"),
                       ("transport.codec_ms", "ms"),
                       ("transport.request_bytes", "bytes"),
                       ("transport.response_bytes", "bytes"),
                       ("transport.retries", "count"),
                       ("clips_per_s", "clips/s"),
                       ("request_p50_ms", "ms"),
                       ("request_p99_ms", "ms"),
                       ("rescan_p50_ms", "ms"),
                       ("litho_clips", "clips"),
                       ("hotspots_found", "clips")):
        metrics[name] = metric(extra.get(name, 0), unit)
    metrics["trace.clips_per_cpu_s"] = metric(traced_cps, "clips/cpu_s")
    metrics["trace.overhead_pct"] = metric(
        100.0 * (untraced_cps - traced_cps) / untraced_cps, "%")
    return metrics
