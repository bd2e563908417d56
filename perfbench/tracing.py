"""The traced run: spans around each layer's public calls, from outside.

:func:`instrumented` patches the listed public methods (and the
``write_snapshot`` binding in :mod:`repro.durable.runner`) with wrappers
that record one :class:`repro.obs.Tracer` span per call, then restores
them.  Nothing inside the program records spans for the benchmark; the
program's own tracer stays off.  :func:`layer_metrics` reduces the spans,
the attention counters and the pools to the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import pathlib
import statistics
from typing import Dict, List

from repro.core.hybrid import LongSightAttention
from repro.durable import DurableRun
from repro.durable import runner as durable_runner
from repro.durable.wal import WriteAheadLog
from repro.fleet import FleetRouter
from repro.llm.model import Transformer
from repro.obs import Tracer, default_obs
from repro.serve import ContinuousBatchScheduler, EngineRun
from repro.serve.paged_kv import PagedKVCache, PagedLayerKV

import reducers

#: (owner, attribute, span name) of every wrapped call.
METHODS = (
    (FleetRouter, "run", "FleetRouter.run"),
    (DurableRun, "step", "DurableRun.step"),
    (EngineRun, "step", "EngineRun.step"),
    (ContinuousBatchScheduler, "admit", "ContinuousBatchScheduler.admit"),
    (ContinuousBatchScheduler, "assemble",
     "ContinuousBatchScheduler.assemble"),
    (Transformer, "prefill", "Transformer.prefill"),
    (Transformer, "decode_step_batch", "Transformer.decode_step_batch"),
    (LongSightAttention, "forward_cached",
     "LongSightAttention.forward_cached"),
    (LongSightAttention, "forward_cached_batch",
     "LongSightAttention.forward_cached_batch"),
    (PagedKVCache, "append", "PagedKVCache.append"),
    (PagedKVCache, "attach_prefix", "PagedKVCache.attach_prefix"),
    (PagedKVCache, "publish_prefix", "PagedKVCache.publish_prefix"),
    (WriteAheadLog, "append", "WriteAheadLog.append"),
    (WriteAheadLog, "sync", "WriteAheadLog.sync"),
)
PROPERTIES = (
    (PagedLayerKV, "keys", "PagedLayerKV.keys"),
    (PagedLayerKV, "values", "PagedLayerKV.values"),
)
#: Spans that are one engine step; coverage is measured against them.
STEP_SPANS = ("DurableRun.step", "EngineRun.step")
#: Attention counters the filter and byte metrics are computed from.
COUNTERS = ("attention.dense.accesses", "attention.sparse.candidates",
            "attention.sparse.passed", "attention.sparse.selected")


def _note_result(name: str, span, args, result) -> None:
    """Keep what a metric needs from a call's arguments or result."""
    if name == "Transformer.prefill":
        span.args["tokens"] = len(args[1])
    elif name == "Transformer.decode_step_batch":
        span.args["tokens"] = len(args[1])
    elif name == "ContinuousBatchScheduler.assemble":
        span.args["decodes"] = len(result.decodes)
    elif name == "PagedKVCache.attach_prefix":
        span.args["attached"] = int(result)
    elif name in ("PagedLayerKV.keys", "PagedLayerKV.values"):
        span.args["bytes"] = int(result.nbytes)
    elif name == "write_snapshot":
        span.args["bytes"] = pathlib.Path(args[0]).stat().st_size


def _wrap(fn, name: str, tracer: Tracer):
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            if name == "WriteAheadLog.sync":
                before = args[0].syncs
            result = fn(*args, **kwargs)
            if name == "WriteAheadLog.sync":
                # sync() returns early on an empty buffer; count fsyncs.
                span.args["fsyncs"] = args[0].syncs - before
            _note_result(name, span, args, result)
        return result
    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every listed call with a span for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in METHODS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(fn, name, tracer))
        for owner, attr, name in PROPERTIES:
            prop = owner.__dict__[attr]
            saved.append((owner, attr, prop))
            setattr(owner, attr, property(_wrap(prop.fget, name, tracer)))
        fn = durable_runner.write_snapshot
        saved.append((durable_runner, "write_snapshot", fn))
        durable_runner.write_snapshot = _wrap(fn, "write_snapshot", tracer)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def attention_counters() -> Dict[str, float]:
    metrics = default_obs().metrics
    return {name: metrics.counter(name).value for name in COUNTERS}


class SpanIndex:
    """Spans grouped by name, with each span's self time."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        children: Dict[int, List] = {}
        for span in spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        self.by_name: Dict[str, List] = {}
        self.self_s: Dict[int, float] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
            kids = children.get(span.index, ())
            self.self_s[span.index] = reducers.self_time(
                span.start_s, span.end_s,
                [(k.start_s, k.end_s) for k in kids])
        self._spans = spans

    def spans(self, name: str) -> List:
        return self.by_name.get(name, [])

    def busy(self, name: str) -> float:
        return sum(s.duration_s for s in self.spans(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_s[s.index] for s in self.spans(name))

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def arg_total(self, name: str, key: str) -> float:
        return sum(s.args.get(key, 0) for s in self.spans(name))

    def under(self, span, ancestor: str) -> bool:
        while span.parent >= 0:
            span = self._spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    def step_coverage(self) -> float:
        """Share of engine-step wall time covered by layer spans."""
        outer = [s for s in self._spans if s.name in STEP_SPANS
                 and not any(self.under(s, o) for o in STEP_SPANS)]
        wall = sum(s.duration_s for s in outer)
        own = sum(self.self_total(name) for name in STEP_SPANS)
        return 1.0 - own / wall if wall else 0.0


def layer_metrics(index: SpanIndex, counters: Dict[str, float],
                  scale: float, head_dim: int, kv_itemsize: int) -> dict:
    """Per-layer metrics of the traced run (times scaled by ``scale``,
    the run's reference-over-median probe ratio)."""
    attn_prefill = attn_decode = 0.0
    for name in ("LongSightAttention.forward_cached",
                 "LongSightAttention.forward_cached_batch"):
        for span in index.spans(name):
            if index.under(span, "Transformer.decode_step_batch"):
                attn_decode += span.duration_s
            else:
                attn_prefill += span.duration_s
    candidates = counters["attention.sparse.candidates"]
    passed = counters["attention.sparse.passed"]
    # Computed bytes, not measured: every dense access reads a key and a
    # value, every passing key is read to be scored, and every selected
    # key's value is read.
    kv_bytes = (2 * counters["attention.dense.accesses"] + passed
                + counters["attention.sparse.selected"]) \
        * head_dim * kv_itemsize
    batches = [s.args["decodes"] for s in
               index.spans("ContinuousBatchScheduler.assemble")
               if s.args.get("decodes")]
    steps = index.spans("EngineRun.step")
    attach = index.spans("PagedKVCache.attach_prefix")
    return {
        "core.attention.prefill_busy_s": attn_prefill * scale,
        "core.attention.decode_busy_s": attn_decode * scale,
        "core.attention.filter_pass_frac":
            passed / candidates if candidates else 0.0,
        "core.attention.kv_bytes_read": kv_bytes,
        "llm.prefill.busy_s": index.busy("Transformer.prefill") * scale,
        "llm.prefill.tokens": index.arg_total("Transformer.prefill",
                                              "tokens"),
        "llm.decode.busy_s":
            index.busy("Transformer.decode_step_batch") * scale,
        "llm.decode.tokens": index.arg_total(
            "Transformer.decode_step_batch", "tokens"),
        "serve.paged_kv.gather_busy_s":
            (index.busy("PagedLayerKV.keys")
             + index.busy("PagedLayerKV.values")) * scale,
        "serve.paged_kv.gather_bytes":
            index.arg_total("PagedLayerKV.keys", "bytes")
            + index.arg_total("PagedLayerKV.values", "bytes"),
        "serve.paged_kv.append_busy_s":
            index.busy("PagedKVCache.append") * scale,
        "serve.paged_kv.prefix_hit_frac":
            sum(1 for s in attach if s.args["attached"] > 0) / len(attach)
            if attach else 0.0,
        "serve.scheduler.decode_batch_mean":
            statistics.fmean(batches) if batches else 0.0,
        "serve.scheduler.busy_s":
            (index.busy("ContinuousBatchScheduler.admit")
             + index.busy("ContinuousBatchScheduler.assemble")) * scale,
        "serve.engine.steps": len(steps),
        "serve.engine.step_p50_s":
            statistics.median(s.duration_s for s in steps) * scale
            if steps else 0.0,
        "serve.engine.self_s": index.self_total("EngineRun.step") * scale,
        "durable.wal.append_busy_s":
            index.busy("WriteAheadLog.append") * scale,
        "durable.wal.records": index.count("WriteAheadLog.append"),
        "durable.wal.sync_busy_s": index.busy("WriteAheadLog.sync") * scale,
        "durable.wal.syncs": index.arg_total("WriteAheadLog.sync",
                                             "fsyncs"),
        "durable.snapshot.busy_s": index.busy("write_snapshot") * scale,
        "durable.snapshot.bytes": index.arg_total("write_snapshot",
                                                  "bytes"),
        "fleet.router.self_s": index.self_total("FleetRouter.run") * scale,
        "trace.step_coverage_frac": index.step_coverage(),
    }
