"""The traced run: per-layer metrics, tracing overhead and coverage.

A traced run makes four passes of one workload, each on fresh inputs
drawn from the same seed:

1. an untraced ``fixed`` pass (the overhead baseline),
2. a traced ``fixed`` pass with every layer shim installed,
3. and 4. two ``counted`` passes (``repro.obs`` on, call counter
   installed, one thread) whose counts must agree exactly.

Times come from pass 2, counts from pass 3.  ``repro.obs`` is never on
in passes 1 and 2, because turning it on switches the engine to its
instrumented kernels.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import probes

from perfbench import SPEC
from perfbench.shims import CallCounter, SpanSummary, Tracer, optional_percentile
from perfbench.workloads import Outcome, Pass, Scale, run_pass

#: Per-layer metric name -> unit, as ``BENCHMARK.json`` lists them.
#: Every traced run reports all of them; a layer a workload does not
#: reach reports 0.
LAYER_METRICS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_ENGINE = "store.engine:DurablePHTree."
_SHARDED = "parallel.sharded:ShardedPHTree."
_FROZEN = "core.frozen:FrozenPHTree."
_ARENA = "core:ArenaPHTree."


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timed_layer_metrics(s: SpanSummary) -> Dict[str, float]:
    """Span-derived metrics.  ``*_s`` and ``*_us`` are means per call of
    the named calls, inclusive of their child spans unless the name says
    ``self``; ``encoding.encode_s`` is the encoding layer's total self
    time over the pass."""
    m: Dict[str, float] = {}
    m["encoding.encode_s"] = s.layer_self.get("encoding", 0.0)
    m["tool.build_self_s"] = s.mean_self("tool:cmd_build")
    per_call = {
        "store.put_all_s": (_ENGINE + "put_all",),
        "store.flush_s": (_ENGINE + "flush",),
        "store.compact_s": (_ENGINE + "compact",),
        "store.wal.append_s": ("store.wal:WriteAheadLog.append",),
        "store.wal.scan_s": ("store.wal:scan_frames",),
        "store.wal.decode_s": ("store.wal:RecordCodec.decode",),
        "store.io.fsync_s": ("store.io:fsync", "store.io:fsync_dir"),
        "store.segment.write_s": (
            "store.segment:write_segment_file",
            "store.segment:write_tombstone_file",
        ),
        "store.segment.attach_s": ("store.segment:Segment.open",),
        "store.manifest.commit_s": ("store.manifest:write_manifest",),
        "core.bulk.load_s": ("core.bulk:bulk_load_sorted",),
        "core.frozen.freeze_s": ("core.frozen:freeze",),
        "learned.fit_s": ("learned:LearnedZIndex.fit",),
        "core.serialize.save_s": ("core.serialize:serialize_tree",),
        "core.serialize.load_s": ("core.serialize:deserialize_tree",),
    }
    for metric, names in per_call.items():
        m[metric] = s.mean_total(*names)
    for op, method in (("get", "get"), ("window", "query"), ("knn", "knn")):
        m[f"core.frozen.{op}_self_us"] = s.mean_self(_FROZEN + method) * 1e6
        m[f"parallel.sharded.{op}_self_us"] = s.mean_self(_SHARDED + method) * 1e6
        m[f"core.{op}_self_us"] = s.mean_self(_ARENA + method) * 1e6
    for mode in ("read", "write"):
        waits = s.durations.get(f"core.concurrent:ReadWriteLock.acquire_{mode}", [])
        m[f"core.concurrent.{mode}_wait_p50_us"] = (
            statistics.median(waits) * 1e6 if waits else 0.0
        )
        p99 = optional_percentile(waits, 99)
        m[f"core.concurrent.{mode}_wait_p99_us"] = p99 * 1e6 if p99 else 0.0
    m["core.concurrent.wait_share"] = _ratio(
        s.total_of(
            "core.concurrent:ReadWriteLock.acquire_read",
            "core.concurrent:ReadWriteLock.acquire_write",
        ),
        s.wall(),
    )
    covered = [s.coverage(op) for op in s.request_wall]
    m["trace.coverage_min"] = min(covered) if covered else 0.0
    return m


def counted_layer_metrics(out: Outcome, counter: CallCounter) -> Dict[str, float]:
    """Count-derived metrics; every input is a count, so two passes over
    the same op stream give identical values."""
    tally = counter.tally
    writes = out.counts.get("user_writes", 0)
    user_bytes = out.counts.get("user_bytes", 0)
    fsyncs = sum(v for k, v in tally.items() if k.startswith("io.fsyncs."))
    m: Dict[str, float] = {}
    m["encoding.calls"] = counter.count("encoding:")
    m["store.flushes"] = counter.calls.get(_ENGINE + "flush", 0)
    m["store.wal.bytes_per_write"] = _ratio(tally.get("io.bytes.wal", 0), writes)
    m["store.io.fsyncs_per_write"] = _ratio(fsyncs, writes)
    for scope in ("wal", "flush", "compact"):
        m[f"store.io.bytes_per_user_byte.{scope}"] = _ratio(
            tally.get(f"io.bytes.{scope}", 0), user_bytes
        )
    m["core.bulk.entries"] = tally.get("bulk.entries", 0)
    m["learned.segments"] = tally.get("learned.segments", 0)
    m["learned.trailer_bytes_per_entry"] = _ratio(
        tally.get("learned.trailer_bytes", 0), tally.get("learned.entries", 0)
    )
    lookups = probes.learned_lookups_point.value + probes.learned_lookups_window.value
    fallbacks = (
        probes.learned_fallbacks_point.value + probes.learned_fallbacks_window.value
    )
    m["learned.fallback_ratio"] = _ratio(fallbacks, lookups)
    m["parallel.shards_per_window"] = _ratio(
        tally.get("router.shards", 0),
        counter.calls.get("parallel.router:ZShardRouter.shards_for_box", 0),
    )
    m["parallel.router.imbalance"] = out.counts.get("router.imbalance", 0.0)
    m["core.nodes_per_get"] = _ratio(
        tally.get("probe.get.nodes", 0), tally.get("ops.get", 0)
    )
    m["core.slots_per_window_result"] = _ratio(
        tally.get("probe.window.slots", 0),
        tally.get("probe.window.entries", 0),
    )
    m["core.knn.heap_pushes_per_query"] = _ratio(
        tally.get("probe.knn.heap_pushes", 0), tally.get("ops.knn", 0)
    )
    m["core.arena.bytes_per_entry"] = out.counts.get("arena.bytes_per_entry", 0.0)
    return m


def overhead(plain: Outcome, traced: Outcome) -> List[Tuple[str, float, float, float]]:
    """(metric, untraced, traced, relative change) per end-to-end metric,
    the printed-only ones included."""
    before = {**plain.metrics, **plain.printed}
    after = {**traced.metrics, **traced.printed}
    rows = []
    for name, (value, _unit) in before.items():
        if name in after:
            other = after[name][0]
            rows.append((name, value, other, _ratio(other - value, value)))
    return rows


@dataclass
class TracedRun:
    """Result of :func:`traced_run`: the per-layer metrics, the traced
    pass's spans, the tracing overhead per end-to-end metric, whether the
    two counted passes agreed, and the outcome of every pass."""

    metrics: Dict[str, float]
    tracer: Tracer
    summary: SpanSummary
    overhead: List[Tuple[str, float, float, float]]
    repeatable: bool
    outcomes: List[Outcome]


def traced_run(name: str, seed: int, scale: Scale, workdir: str) -> TracedRun:
    plain = run_pass(name, seed, Pass("fixed", 0.0, scale, workdir))
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(name, seed, Pass("fixed", 0.0, scale, workdir, tracer=tracer))
    counted = []
    for _ in range(2):
        counter = CallCounter()
        with counter.installed():
            out = run_pass(name, seed, Pass("counted", 0.0, scale, workdir, counter=counter))
        counted.append((out, counter, counted_layer_metrics(out, counter)))
    (out_a, counter_a, metrics_a), (out_b, counter_b, metrics_b) = counted
    repeatable = (
        metrics_a == metrics_b
        and counter_a.calls == counter_b.calls
        and counter_a.tally == counter_b.tally
    )
    summary = SpanSummary(tracer.spans)
    changes = overhead(plain, traced)
    metrics = timed_layer_metrics(summary)
    metrics.update(metrics_a)
    p50s = [change for metric, _, _, change in changes if metric.endswith("_p50_us")]
    metrics["trace.overhead_p50"] = statistics.median(p50s) if p50s else 0.0
    return TracedRun(
        metrics, tracer, summary, changes, repeatable, [plain, traced, out_a, out_b]
    )
