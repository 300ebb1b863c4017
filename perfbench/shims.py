"""Benchmark-side shims around each layer's public functions.

Nothing under ``src/`` is edited: the shims replace attributes of the
already-imported ``repro`` modules and classes for the duration of a
``with`` block and put the originals back on exit.  A module-level
function is replaced in every ``repro`` module that imported it by
name (``from repro.core.frozen import freeze``), so the call sites
inside the engine see the shim too.

Three kinds of shim share that mechanism:

- :class:`Tracer` records one span per call (name, start, end, parent
  span, request id).  Spans stay in memory; :meth:`Tracer.dump` writes
  them out when the run ends.  Each top-level client operation opens a
  request (:meth:`Tracer.request`), so every span carries the id of the
  request that caused it.
- :class:`CallCounter` counts calls and a few argument-derived
  quantities (bytes written per I/O scope, shards per window, entries
  bulk-loaded, learned segments fitted) without taking any timestamp,
  so its counts repeat exactly for a fixed op stream.
- :func:`inject_delay` adds a fixed sleep in front of one function; the
  attribution self-test uses it to check that a slowdown shows up in
  the right layer and end-to-end metrics and nowhere else.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (layer, owner, attribute names).  ``owner`` is a module path or a
# (module path, class name) pair.  Layers are named after their module
# under ``src/repro/``; ``client`` is the benchmark's own CSV parsing in
# the ``ingest`` workload, spanned so that ingest coverage is not
# understated by work the client itself does.
LAYER_TARGETS: Tuple[Tuple[str, Any, Tuple[str, ...]], ...] = (
    ("encoding", "repro.encoding.ieee", ("encode_point",)),
    ("encoding", "repro.encoding.interleave", ("interleave",)),
    ("tool", "repro.tool.cli", ("cmd_build",)),
    (
        "store.engine",
        ("repro.store.engine", "DurablePHTree"),
        (
            "open", "put", "put_all", "remove", "update_key", "flush",
            "compact", "checkpoint", "close", "get", "query", "knn",
        ),
    ),
    ("store.wal", ("repro.store.wal", "WriteAheadLog"), ("append", "open")),
    ("store.wal", "repro.store.wal", ("scan_frames",)),
    ("store.wal", ("repro.store.wal", "RecordCodec"), ("decode",)),
    (
        "store.io",
        "repro.store.io",
        ("write", "fsync", "fsync_dir", "replace", "open_fresh", "unlink"),
    ),
    (
        "store.segment",
        "repro.store.segment",
        ("write_segment_file", "write_tombstone_file"),
    ),
    ("store.segment", ("repro.store.segment", "Segment"), ("open",)),
    (
        "store.manifest",
        "repro.store.manifest",
        ("write_manifest", "load_manifest"),
    ),
    ("core.bulk", "repro.core.bulk", ("bulk_load_sorted",)),
    ("core.frozen", "repro.core.frozen", ("freeze",)),
    (
        "core.frozen",
        ("repro.core.frozen", "FrozenPHTree"),
        ("get", "query", "knn"),
    ),
    ("learned", ("repro.learned.index", "LearnedZIndex"), ("fit",)),
    (
        "core.serialize",
        "repro.core.serialize",
        ("serialize_tree", "deserialize_tree"),
    ),
    (
        "parallel.router",
        ("repro.parallel.router", "ZShardRouter"),
        ("shards_for_box",),
    ),
    (
        "parallel.sharded",
        ("repro.parallel.sharded", "ShardedPHTree"),
        (
            "get", "query", "knn", "put", "remove", "update_key",
            "put_all", "freeze_shards",
        ),
    ),
    (
        "core.concurrent",
        ("repro.core.concurrent", "ReadWriteLock"),
        ("acquire_read", "acquire_write"),
    ),
    (
        "core",
        ("repro.core.arena_tree", "ArenaPHTree"),
        ("get", "contains", "query", "knn", "put", "remove", "update_key"),
    ),
)

#: Calls that return a lazy iterator.  Their shim drains it into a list
#: inside the span, so the span covers the scan rather than just the
#: creation of the generator.  Every caller in the measured paths
#: drains the result at once anyway.
MATERIALIZE = frozenset({"core:ArenaPHTree.query", "core.frozen:FrozenPHTree.query"})


def span_name(layer: str, owner: Any, attr: str) -> str:
    if isinstance(owner, tuple):
        return f"{layer}:{owner[1]}.{attr}"
    return f"{layer}:{attr}"


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


_INHERITED = object()


class Patcher:
    """Replaces attributes and restores them, in reverse order, on
    :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, obj: Any, attr: str, value: Any) -> None:
        self._undo.append((obj, attr, obj.__dict__.get(attr, _INHERITED)))
        setattr(obj, attr, value)

    def wrap(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` by ``make(original)``; for a module
        function, also in every ``repro`` module holding it by name."""
        if isinstance(owner, tuple):
            cls = getattr(importlib.import_module(owner[0]), owner[1])
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        module = importlib.import_module(owner)
        original = module.__dict__[attr]
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)


def _install(make_for: Callable[[str], Callable[[Callable], Callable]]):
    patcher = Patcher()
    for layer, owner, attrs in LAYER_TARGETS:
        for attr in attrs:
            name = span_name(layer, owner, attr)
            patcher.wrap(owner, attr, make_for(name))
    return patcher


class Tracer:
    """In-memory span recorder.

    A span is ``(span_id, parent_id, request_id, name, start, end)``
    with ``perf_counter`` timestamps; parent 0 means a request root.
    The span stack is per thread, so a writer thread's spans never nest
    under the reader's.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.rid = 0
        return stack

    @contextmanager
    def request(self, op: str) -> Iterator[None]:
        """One top-level client operation of class ``op``."""
        stack = self._stack()
        rid = next(self._requests)
        outer_rid = self._local.rid
        self._local.rid = rid
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.rid = outer_rid
            self.spans.append((sid, 0, rid, "request:" + op, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own (client-side) work."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, self._local.rid, name, start, end)
            )

    def _make(self, name: str) -> Callable[[Callable], Callable]:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        local = self._local
        clock = time.perf_counter
        drain = name in MATERIALIZE

        def make(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                stack = stack_of()
                parent = stack[-1] if stack else 0
                sid = next(ids)
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if drain:
                        result = list(result)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, parent, local.rid, name, start, end))

            traced.__wrapped__ = fn
            return traced

        return make

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patcher = _install(self._make)
        try:
            yield self
        finally:
            patcher.restore()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("span", "parent", "request", "name", "start", "end")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _io_scope() -> str:
    from repro.store import io as store_io

    return store_io._state.current or "none"


class CallCounter:
    """Counts calls per span name, plus argument-derived tallies in
    :attr:`tally`: ``io.bytes.<scope>``, ``io.fsyncs.<scope>``,
    ``router.shards`` (summed over ``shards_for_box`` calls),
    ``bulk.entries``, ``learned.segments``, ``learned.entries`` and
    ``learned.trailer_bytes``."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.tally: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _add(self, key: str, amount: int) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        if name == "store.io:write":
            self._add("io.bytes." + _io_scope(), len(args[1]))
        elif name in ("store.io:fsync", "store.io:fsync_dir"):
            self._add("io.fsyncs." + _io_scope(), 1)
        elif name == "parallel.router:ZShardRouter.shards_for_box":
            self._add("router.shards", len(result))
        elif name == "core.bulk:bulk_load_sorted":
            self._add("bulk.entries", len(args[0]))
        elif name == "learned:LearnedZIndex.fit":
            stats = result.stats()
            self._add("learned.segments", stats["segments"])
            self._add("learned.entries", stats["entries"])
            self._add("learned.trailer_bytes", stats["trailer_bytes"])

    def _make(self, name: str) -> Callable[[Callable], Callable]:
        calls = self.calls
        lock = self._lock
        observe = self._observe

        def make(fn: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                with lock:
                    calls[name] = calls.get(name, 0) + 1
                    observe(name, args, result)
                return result

            counted.__wrapped__ = fn
            return counted

        return make

    @contextmanager
    def installed(self) -> Iterator["CallCounter"]:
        patcher = _install(self._make)
        try:
            yield self
        finally:
            patcher.restore()

    def count(self, prefix: str) -> int:
        """Calls of every span name starting with ``prefix``."""
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))


@contextmanager
def inject_delay(name: str, seconds: float) -> Iterator[None]:
    """Sleep ``seconds`` before every call of the shimmed function
    ``name`` (a span name such as ``store.wal:WriteAheadLog.append``)."""
    targets = [
        (owner, attr)
        for layer, owner, attrs in LAYER_TARGETS
        for attr in attrs
        if span_name(layer, owner, attr) == name
    ]
    if not targets:
        raise KeyError(f"no shimmed function named {name!r}")
    owner, attr = targets[0]
    patcher = Patcher()

    def make(fn: Callable) -> Callable:
        def delayed(*args: Any, **kwargs: Any) -> Any:
            time.sleep(seconds)
            return fn(*args, **kwargs)

        return delayed

    patcher.wrap(owner, attr, make)
    try:
        yield
    finally:
        patcher.restore()


# -- span analysis ------------------------------------------------------------


class SpanSummary:
    """Self times, per-name totals and request coverage of a span list.

    A span's self time is its duration minus its direct children's
    durations (children run on the parent's thread, one after another,
    so they never overlap).  Coverage of an op class is the share of
    its requests' wall time that their direct child spans cover.
    """

    def __init__(self, spans: List[Tuple[int, int, int, str, float, float]]):
        child_time: Dict[int, float] = {}
        for sid, parent, _rid, _name, start, end in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.layer_self: Dict[str, float] = {}
        self.request_wall: Dict[str, float] = {}
        self.request_covered: Dict[str, float] = {}
        self.request_count: Dict[str, int] = {}
        for sid, parent, _rid, name, start, end in spans:
            duration = end - start
            covered = child_time.get(sid, 0.0)
            if name.startswith("request:"):
                op = name[len("request:"):]
                self.request_wall[op] = self.request_wall.get(op, 0.0) + duration
                self.request_covered[op] = (
                    self.request_covered.get(op, 0.0) + covered
                )
                self.request_count[op] = self.request_count.get(op, 0) + 1
                continue
            own = duration - covered
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            self.durations.setdefault(name, []).append(duration)
            layer = layer_of(name)
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own

    def coverage(self, op: str) -> float:
        wall = self.request_wall.get(op, 0.0)
        return self.request_covered.get(op, 0.0) / wall if wall else 0.0

    def mean_total(self, *names: str) -> float:
        """Mean inclusive seconds per call over the named spans."""
        calls = sum(self.calls.get(name, 0) for name in names)
        return self.total_of(*names) / calls if calls else 0.0

    def mean_self(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_time.get(name, 0.0) / calls if calls else 0.0

    def total_of(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def wall(self) -> float:
        return sum(self.request_wall.values())


def optional_percentile(values: List[float], q: int) -> Optional[float]:
    """The ``q``-th percentile when at least ten samples lie beyond it,
    else ``None``."""
    if not values or len(values) * (100 - q) < 1000:
        return None
    return statistics.quantiles(values, n=100)[q - 1]
