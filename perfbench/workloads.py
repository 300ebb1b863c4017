"""The four workloads: inputs from the seed, the timed client loops,
and the oracle checks.

Every workload drives the public API of the ``repro`` package from one
process with at most two threads and no process pool.  Each function
returns an :class:`Outcome`; :mod:`perfbench.run` turns outcomes into
the report.  A *pass* is one execution of a workload body in one of
three modes:

- ``timed``: the workload's cycle (set-up, reopen, a chunk of the
  closed loop) repeats for ``seconds`` of wall time, so
  the samples of every metric are spread over the whole run; a metric
  is the median of its samples, except ``ops_per_s`` and ``reopen_s``,
  which divide the work by the time summed over the cycles;
- ``fixed``: the same body with a fixed op count, so a traced and an
  untraced pass do the same work and can be compared;
- ``counted``: the fixed body on one thread with ``repro.obs`` enabled
  and the call counter installed; its counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro import obs
from repro.core.frozen import FrozenPHTree, freeze
from repro.core.serialize import U64ValueCodec
from repro.datasets import generate_cluster, generate_tiger
from repro.datasets.cluster import CLUSTER_EXTENT, default_n_clusters
from repro.datasets.rng import stable_subseed
from repro.datasets.tiger import TIGER_BBOX
from repro.encoding import ieee
from repro.obs import probes
from repro.store import DurablePHTree
from repro.tool.cli import main as tool_main
from repro.tool.storage import load_index

from perfbench import SPEC
from perfbench.oracle import PointOracle, in_box, sq_dist
from perfbench.shims import CallCounter, Tracer, optional_percentile

Key = Tuple[int, ...]

KNN_K = 10
GET, WINDOW, KNN = 0, 1, 2
OP_NAMES = ("get", "window", "knn")


@dataclass(frozen=True)
class Scale:
    """Input sizes and cadences.  :data:`FULL` is the benchmark;
    :data:`TINY` is for the self-test."""

    ingest_rows: int = 40_000
    ingest_batch: int = 1024
    ingest_flush_rows: int = 8_000
    ingest_starts: int = 2
    preload: int = 70_000
    index_rows: int = 6_000
    op_pool: int = 60_000
    writer_flush_every: int = 500
    writer_writes: int = 2_200
    reopens: int = 2
    read_chunk_s: float = 3.0
    fixed_reads: int = 20_000
    counted_reads: int = 4_000
    counted_write_every: int = 8


FULL = Scale()
TINY = Scale(
    ingest_rows=3_000,
    ingest_flush_rows=1_000,
    ingest_starts=1,
    preload=3_000,
    index_rows=600,
    op_pool=4_000,
    writer_flush_every=100,
    writer_writes=1_250,
    reopens=1,
    read_chunk_s=0.5,
    fixed_reads=1_000,
    counted_reads=300,
)


@dataclass
class Pass:
    """How one pass runs: mode, time budget, optional tracer/counter."""

    mode: str  # "timed" | "fixed" | "counted"
    seconds: float
    scale: Scale
    workdir: str
    tracer: Optional[Tracer] = None
    counter: Optional[CallCounter] = None

    def request(self, op: str) -> Any:
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(op)

    def client_span(self, name: str) -> Any:
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


#: End-to-end metric name -> unit, as ``BENCHMARK.json`` lists them.
#: Every workload reports every one of them.
E2E_UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    # Measured and printed, not reported: per-op-class latencies and the
    # mixed-rw writer's figures.
    printed: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        """Report end-to-end metric ``name`` (in its BENCHMARK.json unit)."""
        self.metrics[name] = (value, E2E_UNITS[name])
        self.samples[name] = samples

    def show(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        """Print ``name`` with the report, without reporting it."""
        self.printed[name] = (value, unit)
        self.samples[name] = samples

    def check(self, label: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        verdict = "ok" if failed == 0 else f"{failed} FAILED"
        self.checks.append(f"{label}: {attempted} checked, {verdict}")

    def op_latency(self, values: List[float]) -> None:
        """``op_p50_us``: the median latency of the workload's requests."""
        self.put("op_p50_us", statistics.median(values) * 1e6, len(values))

    def reopen(self, times: List[float]) -> None:
        """``reopen_s``: the time per reopen over the whole run.  The
        host this was sized on switches between two speeds about 1.3x
        apart every few seconds, so the median of a run's dozen or so
        reopens lands on one speed or the other and varied more from run
        to run (IQR over median 0.21 over ten seeds of index-file) than
        figures that sum the work over the run (ops_per_s: 0.08)."""
        self.put("reopen_s", sum(times) / len(times), len(times))

    def latency(self, prefix: str, values: List[float]) -> None:
        """Printed median and p99 in microseconds; the p99 only when at
        least ten samples lie beyond it."""
        if not values:
            return
        self.show(f"{prefix}_p50_us", statistics.median(values) * 1e6, "us", len(values))
        p99 = optional_percentile(values, 99)
        if p99 is not None:
            self.show(f"{prefix}_p99_us", p99 * 1e6, "us", len(values))


def settle() -> None:
    """Collect garbage before a timed region.  Passes run with the
    cyclic collector off (as :mod:`timeit` does), so a collection of the
    preloaded state never lands inside a timed call; this is where the
    garbage of the previous phase goes instead."""
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def fresh_dir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(stable_subseed(seed, label))


# -- inputs -------------------------------------------------------------------


def write_csv(path: str, points: Sequence[Tuple[float, float]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lon", "lat"])
        writer.writerows((repr(x), repr(y)) for x, y in points)


def tiger_entries(points: Sequence[Tuple[float, float]]) -> Dict[Key, int]:
    """Encoded key -> 1-based CSV row number, as the tool stores them."""
    return {ieee.encode_point(p): row for row, p in enumerate(points, start=1)}


@dataclass
class ReadInputs:
    """A seeded op pool and the reference it is checked against."""

    ops: List[tuple]
    oracle: PointOracle
    miss_keys: set


def cluster_point(rng: random.Random, n_clusters: int) -> Tuple[float, ...]:
    """One CLUSTER point (3-D, offset 0.5), drawn like
    :func:`repro.datasets.generate_cluster` draws them."""
    spacing = 1.0 / (n_clusters - 1) if n_clusters > 1 else 0.0
    x = rng.randrange(n_clusters) * spacing + (rng.random() - 0.5) * CLUSTER_EXTENT
    return (
        x,
        0.5 + (rng.random() - 0.5) * CLUSTER_EXTENT,
        0.5 + (rng.random() - 0.5) * CLUSTER_EXTENT,
    )


def cluster_read_inputs(seed: int, scale: Scale) -> Tuple[Dict[Key, int], ReadInputs]:
    points = generate_cluster(
        scale.preload, 3, offset=0.5, seed=stable_subseed(seed, "preload")
    )
    entries: Dict[Key, int] = {}
    for p in points:
        entries.setdefault(ieee.encode_point(p), len(entries))
    keys = list(entries)
    rng = rng_for(seed, "reads")
    n_clusters = default_n_clusters(scale.preload)
    misses: List[Key] = []
    miss_set = set()
    while len(misses) < max(64, scale.op_pool // 4):
        key = ieee.encode_point(cluster_point(rng, n_clusters))
        if key not in entries and key not in miss_set:
            misses.append(key)
            miss_set.add(key)
    def window() -> Tuple[Key, Key]:
        # Paper section 4.3.3 shape: a cube around a data point, a
        # fraction of its cluster wide.
        centre = points[rng.randrange(len(points))]
        half = rng.uniform(0.25, 0.5) * CLUSTER_EXTENT
        return (
            ieee.encode_point(tuple(c - half for c in centre)),
            ieee.encode_point(tuple(c + half for c in centre)),
        )

    oracle = PointOracle(entries)
    ops = read_ops(rng, scale, keys, misses, window, oracle)
    return entries, ReadInputs(ops, oracle, miss_set)


def read_ops(
    rng: random.Random,
    scale: Scale,
    keys: List[Key],
    misses: List[Key],
    window: Callable[[], Tuple[Key, Key]],
    oracle: PointOracle,
) -> List[tuple]:
    """The seeded op pool: 70% gets (half hits, half misses), 20%
    windows holding 10-100 entries, 10% kNN around missing points."""
    ops: List[tuple] = []
    for _ in range(scale.op_pool):
        draw = rng.random()
        if draw < 0.7:
            key = rng.choice(keys) if rng.random() < 0.5 else rng.choice(misses)
            ops.append((GET, key))
        elif draw < 0.9:
            while True:
                lo, hi = window()
                if 10 <= len(oracle.window(lo, hi)) <= 100:
                    break
            ops.append((WINDOW, lo, hi))
        else:
            ops.append((KNN, rng.choice(misses)))
    return ops


def tiger_read_inputs(
    seed: int, scale: Scale, points: List[Tuple[float, float]], entries: Dict[Key, int]
) -> ReadInputs:
    rng = rng_for(seed, "index-reads")
    keys = list(entries)
    x_min, x_max, y_min, y_max = TIGER_BBOX
    misses: List[Key] = []
    miss_set = set()
    while len(misses) < max(64, scale.op_pool // 4):
        x, y = points[rng.randrange(len(points))]
        jitter = (
            min(max(x + rng.uniform(-0.05, 0.05), x_min), x_max),
            min(max(y + rng.uniform(-0.05, 0.05), y_min), y_max),
        )
        key = ieee.encode_point(jitter)
        if key not in entries and key not in miss_set:
            misses.append(key)
            miss_set.add(key)

    def window() -> Tuple[Key, Key]:
        # The bounding box of a run of consecutive poly-line vertices.
        start = rng.randrange(len(points) - 60)
        run = points[start:start + rng.randint(10, 60)]
        return (
            ieee.encode_point((min(p[0] for p in run), min(p[1] for p in run))),
            ieee.encode_point((max(p[0] for p in run), max(p[1] for p in run))),
        )

    oracle = PointOracle(entries)
    return ReadInputs(read_ops(rng, scale, keys, misses, window, oracle), oracle, miss_set)


# -- closed-loop reader -------------------------------------------------------


#: The reader checks its answers in batches of this many ops, with the
#: clock stopped, so the log of unchecked answers (and with it the peak
#: RSS) stays the same size however fast the run goes.
CHECK_BATCH = 2048


class ReadLog:
    """Per-class latencies, op and failure counts, and the time spent
    checking answers (excluded from ``elapsed``), summed over every
    chunk of the loop a pass runs."""

    def __init__(self) -> None:
        self.latency: Dict[int, List[float]] = {GET: [], WINDOW: [], KNN: []}
        self.ops = 0
        self.failed = 0
        self.elapsed = 0.0


def _reader_call(target: Any, op: tuple) -> Any:
    kind = op[0]
    if kind == GET:
        return target.get(op[1])
    if kind == WINDOW:
        return list(target.query(op[1], op[2]))
    return target.knn(op[1], KNN_K)


#: ``repro.obs`` probes read around each op of a counted pass; their
#: deltas are tallied as ``probe.<op>.<label>``.
COUNTED_PROBES = {
    GET: (("nodes", probes.point_nodes_visited),),
    WINDOW: (
        ("slots", probes.kernel_slots_scanned),
        ("entries", probes.kernel_entries_yielded),
    ),
    KNN: (("heap_pushes", probes.knn_heap_pushes),),
}


def read_loop(
    target: Any,
    ops: List[tuple],
    run: Pass,
    check: Callable[[List[Tuple[int, Any]]], int],
    log: ReadLog,
    seconds: float,
    enough: Callable[[ReadLog], bool] = lambda log: True,
    between: Optional[Callable[[int], None]] = None,
) -> None:
    """One chunk of the closed-loop reader, added to ``log``: the next
    op is issued when the previous one returned.  ``timed`` runs until
    ``seconds`` have passed and ``enough(log)`` holds (capped at four
    times ``seconds``); the other modes issue a fixed number of ops.
    The op stream continues where the previous chunk stopped.
    ``check(answers)`` returns how many of a batch of ``(op index,
    answer)`` pairs are wrong.  ``between(i)`` runs before op ``i`` (the
    single-threaded writer of the counted pass)."""
    clock = time.perf_counter
    n = len(ops)
    if run.mode == "timed":
        limit = None
    elif run.mode == "fixed":
        limit = run.scale.fixed_reads
    else:
        limit = run.scale.counted_reads
    counted = run.mode == "counted"
    deltas = run.counter.tally if counted else None
    answers: List[Tuple[int, Any]] = []
    paused = 0.0
    start = clock()
    first = i = log.ops
    while True:
        if len(answers) >= CHECK_BATCH:
            stopped = clock()
            log.failed += check(answers)
            answers.clear()
            paused += clock() - stopped
        if limit is not None:
            if i - first >= limit:
                break
        elif i % 64 == 0:
            elapsed = clock() - start - paused
            if elapsed >= seconds * 4 or (elapsed >= seconds and enough(log)):
                break
        if between is not None:
            between(i)
        op = ops[i % n]
        kind = op[0]
        if counted:
            before = [p.value for _, p in COUNTED_PROBES[kind]]
        t0 = clock()
        try:
            if run.tracer is None:
                answer = _reader_call(target, op)
            else:
                with run.tracer.request(OP_NAMES[kind]):
                    answer = _reader_call(target, op)
        except Exception as exc:  # counted as a failed op, never fatal
            answer = exc
        t1 = clock()
        if counted:
            name = OP_NAMES[kind]
            deltas["ops." + name] = deltas.get("ops." + name, 0) + 1
            for (label, probe), old in zip(COUNTED_PROBES[kind], before):
                label = f"probe.{name}.{label}"
                deltas[label] = deltas.get(label, 0) + probe.value - old
        log.latency[kind].append(t1 - t0)
        answers.append((i % n, answer))
        i += 1
    log.elapsed += clock() - start - paused
    log.failed += check(answers)
    log.ops = i


def read_metrics(out: Outcome, log: ReadLog) -> None:
    """Reads per second and the median read over the whole mix
    (reported); the median and p99 of each op class (printed)."""
    out.put("ops_per_s", log.ops / log.elapsed, log.ops)
    out.op_latency([t for values in log.latency.values() for t in values])
    for kind, name in enumerate(OP_NAMES):
        out.latency(name, log.latency[kind])


class ExactChecker:
    """Reads of a store nobody writes to: every answer must equal the
    reference exactly (kNN: the same distance multiset, since equal
    distances may come in any order)."""

    label = "reads vs reference"

    def __init__(self, inputs: ReadInputs) -> None:
        self.inputs = inputs

    def expected(self, index: int) -> Any:
        # Recomputed for every answer: a memo would grow with the number
        # of ops run and make the peak RSS depend on the host's speed.
        op = self.inputs.ops[index]
        oracle = self.inputs.oracle
        if op[0] == WINDOW:
            return [(k, oracle.entries[k]) for k in oracle.window(op[1], op[2])]
        if op[0] == KNN:
            return oracle.knn_distances(op[1], KNN_K)
        return oracle.entries.get(op[1])

    def __call__(self, answers: List[Tuple[int, Any]]) -> int:
        entries = self.inputs.oracle.entries
        failed = 0
        for index, answer in answers:
            if isinstance(answer, Exception):
                failed += 1
                continue
            op = self.inputs.ops[index]
            expected = self.expected(index)
            if op[0] == GET:
                ok = answer == expected
            elif op[0] == WINDOW:
                ok = sorted(answer) == expected
            else:
                ok = (
                    [sq_dist(k, op[1]) for k, _ in answer] == expected
                    and all(entries.get(k) == v for k, v in answer)
                )
            failed += not ok
        return failed


class ConcurrentChecker(ExactChecker):
    """Reads taken beside a writer that only adds, removes and moves its
    own keys.  Preloaded keys never change, so: a get returns the
    preloaded value (or None for a key nobody wrote); a window holds
    every preloaded key in the box, and only keys inside the box whose
    values someone wrote; a kNN answer has k entries in non-decreasing
    distance, none farther than the k-th preloaded neighbour.  The
    writer is held between two writes while a batch is checked."""

    label = "reads beside the writer (self-consistency)"

    def __init__(self, inputs: ReadInputs, writer: "Writer") -> None:
        super().__init__(inputs)
        self.writer = writer

    def __call__(self, answers: List[Tuple[int, Any]]) -> int:
        with self.writer.held():
            return self._check(answers)

    def _check(self, answers: List[Tuple[int, Any]]) -> int:
        entries = self.inputs.oracle.entries
        written = self.writer.written

        def valid(key: Key, value: Any) -> bool:
            if key in entries:
                return entries[key] == value
            return value in written.get(key, ())

        failed = 0
        for index, answer in answers:
            if isinstance(answer, Exception):
                failed += 1
                continue
            op = self.inputs.ops[index]
            if op[0] == GET:
                ok = answer == entries.get(op[1])
            elif op[0] == WINDOW:
                keys = [k for k, _ in answer]
                ok = (
                    len(set(keys)) == len(keys)
                    and {k for k, _ in self.expected(index)} <= set(keys)
                    and all(in_box(k, op[1], op[2]) and valid(k, v) for k, v in answer)
                )
            else:
                dists = [sq_dist(k, op[1]) for k, _ in answer]
                ok = (
                    len(answer) == KNN_K
                    and dists == sorted(dists)
                    and dists[-1] <= self.expected(index)[-1]
                    and all(valid(k, v) for k, v in answer)
                )
            failed += not ok
        return failed


# -- store set-up -------------------------------------------------------------


def open_store(path: str, dims: int, learned: bool) -> DurablePHTree:
    return DurablePHTree.open(
        path,
        dims=dims,
        width=64,
        shards=4,
        value_codec=U64ValueCodec,
        learned=learned,
        sync=True,
    )


def preload_store(
    run: Pass, entries: Dict[Key, int], times: List[float], name: str
) -> Tuple[DurablePHTree, str]:
    """Create a store in a fresh directory ``name`` and load ``entries``
    through 1,024-row group commits plus a checkpoint; appends the time
    to ``times`` and returns the store, open, and its directory."""
    items = list(entries.items())
    batch = run.scale.ingest_batch
    path = fresh_dir(run.workdir, name)
    settle()
    with run.request("setup"):
        start = time.perf_counter()
        store = open_store(path, 3, learned=False)
        for i in range(0, len(items), batch):
            store.put_all(items[i:i + batch])
        store.checkpoint()
        times.append(time.perf_counter() - start)
    return store, path


def count_writes(out: Outcome, writes: int, user_bytes: int) -> None:
    """Tally writes the client asked for and their key and value bytes
    (8 per coordinate, 8 per value), the base of per-write ratios."""
    out.counts["user_writes"] = out.counts.get("user_writes", 0) + writes
    out.counts["user_bytes"] = out.counts.get("user_bytes", 0) + user_bytes


def reopen(run: Pass, path: str, times: List[float]) -> DurablePHTree:
    """Open the closed store at ``path``, ``scale.reopens`` times in a
    timed pass (recovery does not change the directory, so each open
    does the same work); appends each time to ``times`` and returns the
    last store, open."""
    repeats = run.scale.reopens if run.mode == "timed" else 1
    for attempt in range(repeats):
        if attempt:
            store.close()
            store = None  # freed first, so the peak RSS counts one tree
        settle()
        start = time.perf_counter()
        with run.request("reopen"):
            store = DurablePHTree.open(path)
        times.append(time.perf_counter() - start)
    return store


def check_state(out: Outcome, label: str, store: Any, state: Dict[Key, int]) -> None:
    """Check that ``store`` holds exactly ``state``."""
    got = dict(store.items())
    wrong = sum(1 for k, v in state.items() if got.get(k) != v)
    wrong += sum(1 for k in got if k not in state)
    out.check(label, len(state), wrong)


def another_cycle(run: Pass, started: float, cycles: int) -> bool:
    """Whether a timed pass starts another cycle after ``cycles`` since
    ``started``: while one more, as long as the mean so far, ends within
    ``run.seconds``.  Other passes run one."""
    elapsed = time.perf_counter() - started
    return run.mode == "timed" and elapsed + elapsed / cycles <= run.seconds


def shard_counts(store: DurablePHTree, out: Outcome) -> None:
    """Router imbalance and arena bytes per entry of the live shards."""
    sizes = list(store.live.shard_sizes().values())
    mean = sum(sizes) / len(sizes)
    out.counts["router.imbalance"] = max(sizes) / mean if mean else 0.0
    capacity = entries = 0
    # The per-shard trees are reachable only through the private list.
    for locked in store.live._shards:
        tree = locked.unsafe_tree
        if hasattr(tree, "space_stats"):
            stats = tree.space_stats()
            capacity += stats["capacity_bytes"]
            entries += stats["n_entries"]
    out.counts["arena.bytes_per_entry"] = capacity / entries if entries else 0.0


# -- workload: ingest ---------------------------------------------------------


def ingest(seed: int, run: Pass) -> Outcome:
    """Cycles on fresh stores: the store verb's start-up (set-up, see
    :func:`start_tool`), then CSV (TIGER substitute) -> encode_point ->
    put_all group commits, a flush every ``ingest_flush_rows`` rows,
    compact, close and reopen."""
    scale = run.scale
    out = Outcome()
    points = generate_tiger(scale.ingest_rows, seed=stable_subseed(seed, "ingest"))
    csv_path = os.path.join(run.workdir, "ingest.csv")
    write_csv(csv_path, points)
    expected = tiger_entries(points)

    starts: List[float] = []
    ingest_time = 0.0
    rows_total = 0
    commits: List[float] = []
    reopens: List[float] = []
    cycle = 0
    started = time.perf_counter()
    while True:
        start_tool(run, out, starts)
        path = fresh_dir(run.workdir, f"ingest-{cycle}")
        settle()
        with run.request("setup"):
            store = open_store(path, 2, learned=True)
        rows, elapsed = _ingest_csv(run, store, csv_path, commits)
        ingest_time += elapsed
        rows_total += rows
        with run.request("close"):
            store.close()
        store = None
        disk = dir_bytes(path)
        store = reopen(run, path, reopens)
        if run.mode == "counted" and cycle == 0:
            shard_counts(store, out)
        check_state(out, f"cycle {cycle}: reopened store == acknowledged rows", store, expected)
        store.close()
        store = None
        count_writes(out, rows, rows * (2 * 8 + 8))
        shutil.rmtree(path)
        cycle += 1
        if not another_cycle(run, started, cycle):
            break
    out.put("setup_s", statistics.median(starts), len(starts))
    out.put("ops_per_s", rows_total / ingest_time, cycle)
    out.op_latency(commits)
    out.reopen(reopens)
    out.put("disk_bytes_per_entry", disk / len(expected), cycle)
    out.put("peak_rss_mb", peak_rss_mb())
    return out


def start_tool(run: Pass, out: Outcome, times: List[float]) -> None:
    """Wall times of ``repro.tool store DIR --ingest`` on a header-only
    CSV, each in a fresh interpreter: start-up, imports and the creation
    of an empty learned store, what a user waits for before the first
    row is read.  ``scale.ingest_starts`` of them in a timed pass, else
    one; each time is appended to ``times`` (the warm-up pass has
    compiled the byte code already).  Timing the create alone
    measured about 1 ms of fsyncs whose median over 50 creates moved
    between 0.6 and 1.8 ms with the host disk's load from one set of
    runs to the next."""
    empty = os.path.join(run.workdir, "header-only.csv")
    with open(empty, "w") as handle:
        handle.write("lon,lat\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    path = os.path.join(run.workdir, "start")
    command = [
        sys.executable, "-m", "repro.tool", "store", path, "--ingest", empty,
        "-c", "lon,lat", "--learned", "--shards", "4",
    ]
    failed = 0
    repeats = run.scale.ingest_starts if run.mode == "timed" else 1
    for _ in range(repeats):
        start = time.perf_counter()
        result = subprocess.run(command, env=env, capture_output=True)
        times.append(time.perf_counter() - start)
        failed += result.returncode != 0
        shutil.rmtree(path, ignore_errors=True)
    out.check("store verb start-ups", repeats, failed)


def _ingest_csv(
    run: Pass, store: DurablePHTree, csv_path: str, commits: List[float]
) -> Tuple[int, float]:
    """The ``repro.tool store --ingest`` loop, plus the flush cadence
    and the final compaction; returns (rows, seconds) and appends the
    latency of each group commit (parse, encode, ``put_all``) to
    ``commits``."""
    scale = run.scale
    rows = 0
    since_flush = 0
    start = time.perf_counter()
    with open(csv_path, newline="") as handle:
        reader = csv.DictReader(handle)
        done = False
        while not done:
            begun = time.perf_counter()
            with run.request("ingest"):
                batch = []
                with run.client_span("client:csv_parse"):
                    for row in reader:
                        point = (float(row["lon"]), float(row["lat"]))
                        batch.append((ieee.encode_point(point), rows + len(batch) + 1))
                        if len(batch) >= scale.ingest_batch:
                            break
                    else:
                        done = True
                if batch:
                    store.put_all(batch)
            if batch:
                commits.append(time.perf_counter() - begun)
            rows += len(batch)
            since_flush += len(batch)
            if since_flush >= scale.ingest_flush_rows:
                since_flush = 0
                with run.request("flush"):
                    store.flush()
    with run.request("compact"):
        store.compact()
    return rows, time.perf_counter() - start


# -- workload: read-mix -------------------------------------------------------


def read_mix(seed: int, run: Pass) -> Outcome:
    """Cycles: preload a fresh CLUSTER store (set-up), close and reopen
    it, then a chunk of the closed-loop reader on the reopened store; no
    writes."""
    scale = run.scale
    out = Outcome()
    entries, inputs = cluster_read_inputs(seed, scale)
    checker = ExactChecker(inputs)
    log = ReadLog()
    setups: List[float] = []
    reopens: List[float] = []
    cycle = 0
    started = time.perf_counter()
    while True:
        store, path = preload_store(run, entries, setups, f"preload-{cycle}")
        with run.request("close"):
            store.close()
        store = None  # freed first, so the peak RSS counts one tree
        disk = dir_bytes(path)
        store = reopen(run, path, reopens)
        check_state(out, f"cycle {cycle}: reopened store == preload", store, entries)
        if run.mode == "counted":
            shard_counts(store, out)
            count_writes(out, len(entries), len(entries) * (3 * 8 + 8))
        settle()
        read_loop(store, inputs.ops, run, checker, log, scale.read_chunk_s)
        store.close()
        store = None
        shutil.rmtree(path)
        cycle += 1
        if not another_cycle(run, started, cycle):
            break
    out.put("setup_s", statistics.median(setups), len(setups))
    read_metrics(out, log)
    out.check(checker.label, log.ops, log.failed)
    out.reopen(reopens)
    out.put("disk_bytes_per_entry", disk / len(entries), cycle)
    out.put("peak_rss_mb", peak_rss_mb())
    return out


# -- workload: mixed-rw -------------------------------------------------------


class Writer:
    """Closed-loop durable writer over keys of its own: 50% new-key
    put, 25% remove, 25% update_key, a flush every ``writer_flush_every``
    writes (its time is charged to the write that triggered it), and
    ``writer_writes`` writes in all.  The fixed count makes the store it
    leaves, and so the work of the reopen after it, the same in every
    run; with a time budget instead, the number of flushed segments and
    the WAL tail followed the writer's rate, which varied 156-564/s."""

    def __init__(
        self,
        store: DurablePHTree,
        seed: int,
        taken: set,
        n_clusters: int,
        run: Pass,
        value_base: int,
    ) -> None:
        self.store = store
        self.rng = rng_for(seed, "writer")
        self.taken = taken
        self.n_clusters = n_clusters
        self.run = run
        self.next_value = value_base
        self.live: List[Key] = []
        # Acknowledged state of the writer's keys, and every value each
        # key has held (what a concurrent reader may legitimately see).
        self.values: Dict[Key, int] = {}
        self.written: Dict[Key, set] = {}
        self.acked = {"put": 0, "remove": 0, "update_key": 0}
        self.latency: List[float] = []
        self.failed = 0
        self.attempted = 0
        self.stop = threading.Event()
        self.gate = threading.Event()
        self.gate.set()
        self.busy = threading.Lock()
        self.elapsed = 0.0
        self.held_s = 0.0

    def _new_key(self) -> Key:
        while True:
            key = ieee.encode_point(cluster_point(self.rng, self.n_clusters))
            if key not in self.taken:
                self.taken.add(key)
                return key

    def step(self) -> None:
        draw = self.rng.random()
        store = self.store
        if draw < 0.5 or not self.live:
            op, key, arg = "put", self._new_key(), self.next_value
            self.next_value += 1
        elif draw < 0.75:
            op, key, arg = "remove", self.live.pop(self.rng.randrange(len(self.live))), None
        else:
            index = self.rng.randrange(len(self.live))
            op, key, arg = "update_key", self.live[index], self._new_key()
            self.live[index] = arg
        self.attempted += 1
        flush = self.attempted % self.run.scale.writer_flush_every == 0
        start = time.perf_counter()
        try:
            with self.run.request("write"):
                if op == "put":
                    store.put(key, arg)
                elif op == "remove":
                    store.remove(key)
                else:
                    store.update_key(key, arg)
                if flush:
                    store.flush()
        except Exception:  # counted as a failed op, never fatal
            self.failed += 1
            return
        finally:
            self.latency.append(time.perf_counter() - start)
        self.acked[op] += 1
        if op == "put":
            self.live.append(key)
            self.values[key] = arg
            self.written.setdefault(key, set()).add(arg)
        elif op == "remove":
            del self.values[key]
        else:
            value = self.values.pop(key)
            self.values[arg] = value
            self.written.setdefault(arg, set()).add(value)

    def loop(self) -> None:
        clock = time.perf_counter
        start = clock()
        while self.attempted < self.run.scale.writer_writes and not self.stop.is_set():
            waited = clock()
            self.gate.wait()
            with self.busy:
                self.held_s += clock() - waited
                self.step()
        self.elapsed = clock() - start

    @contextlib.contextmanager
    def held(self) -> Any:
        """Hold the writer between two writes for the enclosed block."""
        self.gate.clear()
        try:
            with self.busy:
                yield
        finally:
            self.gate.set()


def mixed_rw(seed: int, run: Pass) -> Outcome:
    """The read-mix reader in the main thread beside one durable writer
    thread; then close without a final flush and reopen (WAL replay).
    The writer's rate and latencies are printed, not reported."""
    scale = run.scale
    out = Outcome()
    entries, inputs = cluster_read_inputs(seed, scale)
    setups: List[float] = []
    store, path = preload_store(run, entries, setups, "preload")
    out.put("setup_s", setups[0])
    if run.mode == "counted":
        shard_counts(store, out)
    writer = Writer(
        store,
        seed,
        set(entries) | inputs.miss_keys,
        default_n_clusters(scale.preload),
        run,
        value_base=len(entries),
    )
    checker = ConcurrentChecker(inputs, writer)
    log = ReadLog()
    if run.mode == "counted":
        # One thread, a fixed interleaving: the counts must repeat.
        every = scale.counted_write_every
        read_loop(
            store, inputs.ops, run, checker, log, run.seconds,
            between=lambda i: writer.step() if i % every == 0 else None,
        )
        busy = log.elapsed
    else:
        thread = threading.Thread(target=writer.loop, name="writer")
        settle()
        thread.start()
        enough = lambda log: not thread.is_alive()
        try:
            read_loop(store, inputs.ops, run, checker, log, run.seconds, enough)
        finally:
            writer.stop.set()
            thread.join()
        # Less the time the writer was held while the reader checked answers.
        busy = writer.elapsed - writer.held_s
    read_metrics(out, log)
    out.show("write_ops_per_s", len(writer.latency) / busy, "ops/s", len(writer.latency))
    out.latency("write", writer.latency)
    acked = writer.acked
    count_writes(out, len(entries), len(entries) * (3 * 8 + 8))
    count_writes(
        out,
        sum(acked.values()),
        acked["put"] * (3 * 8 + 8) + acked["remove"] * 3 * 8 + acked["update_key"] * 2 * 3 * 8,
    )
    with run.request("close"):
        store.close()
    store = writer.store = None  # freed first, so the peak RSS counts one tree
    state = {**entries, **writer.values}
    out.put("disk_bytes_per_entry", dir_bytes(path) / len(state))
    out.check("writes (acknowledged)", writer.attempted, writer.failed)
    out.check(checker.label, log.ops, log.failed)
    reopens: List[float] = []
    store = reopen(run, path, reopens)
    out.reopen(reopens)
    check_state(out, "reopened store == preload + acknowledged writes", store, state)
    store.close()
    out.put("peak_rss_mb", peak_rss_mb())
    return out


# -- workload: index-file -----------------------------------------------------


def index_file(seed: int, run: Pass) -> Outcome:
    """Cycles: ``repro.tool build`` (CSV -> PHTree -> save_index, the
    set-up), ``scale.reopens`` times load_index + freeze(learned=True)
    (the reopen), then a chunk of the read mix on the frozen tree."""
    scale = run.scale
    out = Outcome()
    # One fixed dataset, as the paper's TIGER extract is; the seed draws
    # the reads.  With a dataset per seed, the read p50s split into two
    # groups about 1.5x apart from one seed to the next.
    points = generate_tiger(scale.index_rows, seed=stable_subseed(0, "index"))
    csv_path = os.path.join(run.workdir, "index.csv")
    write_csv(csv_path, points)
    entries = tiger_entries(points)
    inputs = tiger_read_inputs(seed, scale, points, entries)
    index_path = os.path.join(run.workdir, "index.pht")
    checker = ExactChecker(inputs)
    log = ReadLog()
    builds: List[float] = []
    loads: List[float] = []
    cycle = 0
    started = time.perf_counter()
    while True:
        settle()
        start = time.perf_counter()
        with run.request("setup"), contextlib.redirect_stdout(io.StringIO()):
            code = tool_main(["build", csv_path, "-c", "lon,lat", "-o", index_path])
        builds.append(time.perf_counter() - start)
        out.check(f"cycle {cycle}: build verb exit status", 1, code != 0)
        for _ in range(scale.reopens if run.mode == "timed" else 1):
            index = frozen = None  # freed first, so the peak RSS counts one tree
            settle()
            start = time.perf_counter()
            with run.request("load"):
                index = load_index(Path(index_path))
                frozen = FrozenPHTree(
                    freeze(index.tree, U64ValueCodec, learned=True), U64ValueCodec
                )
            loads.append(time.perf_counter() - start)
        check_state(out, f"cycle {cycle}: loaded index == CSV rows", index.tree, entries)
        if run.mode == "counted":
            tree = index.tree
            if hasattr(tree, "space_stats"):
                stats = tree.space_stats()
                out.counts["arena.bytes_per_entry"] = stats["capacity_bytes"] / len(tree)
        settle()
        read_loop(frozen, inputs.ops, run, checker, log, scale.read_chunk_s)
        cycle += 1
        if not another_cycle(run, started, cycle):
            break
    out.put("setup_s", statistics.median(builds), len(builds))
    read_metrics(out, log)
    out.check(checker.label, log.ops, log.failed)
    out.reopen(loads)
    out.put("disk_bytes_per_entry", os.path.getsize(index_path) / len(entries))
    out.put("peak_rss_mb", peak_rss_mb())
    return out


WORKLOADS: Dict[str, Callable[[int, Pass], Outcome]] = {
    "ingest": ingest,
    "read-mix": read_mix,
    "mixed-rw": mixed_rw,
    "index-file": index_file,
}


def run_pass(name: str, seed: int, run: Pass) -> Outcome:
    """One pass of workload ``name``; the counted mode turns ``repro.obs``
    on for the pass and off again."""
    body = WORKLOADS[name]
    gc.disable()
    try:
        if run.mode != "counted":
            return body(seed, run)
        obs.reset_all()
        obs.enable()
        try:
            return body(seed, run)
        finally:
            obs.disable()
    finally:
        gc.enable()
