"""Deterministic model-based differential fuzzer for every tree engine.

One :func:`run_fuzz` call drives a single randomized operation sequence
(put / get / contains / remove / update_key / query / query_approx /
get_many / knn / query_many / contains_many / knn_burst / bulk_load)
simultaneously against

- an object :class:`~repro.core.phtree.PHTree` (``layout="object"``:
  one Python object per node, the unspecialized engine that also serves
  width > 64 and dims > 63),
- an arena :class:`~repro.core.arena_tree.ArenaPHTree`
  (``layout="arena"``: the packed flat-buffer engine with its
  per-(k, width) generated kernels),
- a second arena tree with ``specialize=False`` (the generic arena
  engines the generated kernels are twins of),
- a :class:`~repro.parallel.sharded.ShardedPHTree` (live, lock-per-shard
  engine), and with ``FuzzConfig.learned`` a second sharded tree routed
  by learned equi-mass z-cuts
  (:class:`~repro.learned.router.LearnedZRouter`) instead of fixed
  z-prefix splits,

and a :class:`~repro.check.model.ReferenceModel` (a plain dict + brute
force).  Every op's result -- value, result *order*, or raised exception
type -- is diffed against the model; every ``validate_every`` ops each
tree additionally passes the full structural validator of
:mod:`repro.check.validate` (frozen byte-stream round-trip included).
The sequence alternates the :mod:`repro.obs.runtime` enabled flag so
both dispatches of the generated kernels (plain and instrumented twins)
and both counter states of the generic engines are exercised in the
same run.

Everything is derived from ``FuzzConfig.seed``: the op sequence is
generated *upfront* as concrete tuples, so a failing run shrinks (greedy
delta debugging) to a minimal sequence and prints a paste-able repro
that replays it via :func:`replay`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.model import ReferenceModel
from repro.check.validate import InvariantViolation, validate_tree
from repro.core.bulk import bulk_load
from repro.core.phtree import PHTree
from repro.obs import recorder as _recorder
from repro.obs import runtime as _rt
from repro.parallel.sharded import ShardedPHTree

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "replay", "run_fuzz"]

Key = Tuple[int, ...]
Op = Tuple[Any, ...]

#: Flip the observability flag every this many ops in "alternate" mode
#: (odd on purpose, so the flips drift across the op-kind pattern).
_OBS_FLIP_PERIOD = 97


@dataclass
class FuzzConfig:
    """One fuzz run's shape.  Everything is deterministic in ``seed``."""

    dims: int = 2
    width: int = 16
    ops: int = 2000
    seed: int = 0
    #: Key distribution: "cube" (uniform), "cluster" (Gaussian blobs
    #: around seed-derived centres -- the paper's CLUSTER dataset
    #: shape), or "adversarial" (duplicate-heavy z-streams: most keys
    #: collapse onto one tight blob plus a full-range diagonal, the
    #: worst case for learned z-rank models -- dense packs of nearly
    #: identical z-codes next to huge gaps).
    distribution: str = "cube"
    shards: int = 4
    #: Run the full structural validator every N ops (and at the end).
    validate_every: int = 1000
    #: "alternate" flips obs.runtime every _OBS_FLIP_PERIOD ops;
    #: "on"/"off" pin it.
    obs_mode: str = "alternate"
    #: Soft cap on live model size; beyond it the generator biases
    #: towards removals so the brute-force oracle stays fast.
    max_keys: int = 1000
    shrink: bool = True
    #: Run the learned engines in lockstep too: adds a
    #: ``router="learned"`` sharded subject (equi-mass z-cuts instead
    #: of fixed z-prefix splits; must stay op-for-op identical), on top
    #: of the learned-frozen lockstep every deep validation already
    #: performs.
    learned: bool = False
    #: Add a :class:`~repro.store.engine.DurablePHTree` subject backed
    #: by a temporary directory, and interleave random ``flush()`` /
    #: ``compact()`` / close-and-reopen cycles into the op stream; each
    #: reopen immediately diffs the recovered contents against the
    #: reference model.  With ``learned`` the store also persists
    #: ``PHL1`` trailers in its segment files.
    durable: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.dims <= 16:
            raise ValueError(f"dims must be in [1, 16], got {self.dims}")
        if not 8 <= self.width <= 64:
            raise ValueError(
                f"width must be in [8, 64], got {self.width}"
            )
        if self.distribution not in ("cube", "cluster", "adversarial"):
            raise ValueError(
                f"distribution must be 'cube', 'cluster' or "
                f"'adversarial', got {self.distribution!r}"
            )
        if self.obs_mode not in ("alternate", "on", "off"):
            raise ValueError(
                f"obs_mode must be 'alternate', 'on' or 'off', "
                f"got {self.obs_mode!r}"
            )
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.validate_every < 1:
            raise ValueError(
                f"validate_every must be >= 1, got {self.validate_every}"
            )


@dataclass
class FuzzReport:
    """Statistics from one clean fuzz run."""

    config: FuzzConfig
    ops_run: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    validations: int = 0
    final_size: int = 0


class FuzzFailure(AssertionError):
    """A divergence between an engine and the reference model (or an
    invariant violation), carrying the shrunk repro sequence."""

    def __init__(
        self,
        config: FuzzConfig,
        ops: List[Op],
        index: int,
        subject: str,
        message: str,
        events: Optional[List[Any]] = None,
    ) -> None:
        self.config = config
        self.ops = ops
        self.index = index
        self.subject = subject
        self.reason = message
        #: Flight-recorder tail captured at the moment of divergence.
        self.events = list(events or [])
        tail = (
            f"\n\n{_recorder.render_events(self.events)}"
            if self.events
            else ""
        )
        super().__init__(
            f"[{subject}] op {index} {ops[index] if ops else '?'}: "
            f"{message}\n\nminimal repro "
            f"({len(ops)} op(s)):\n\n{self.repro()}{tail}"
        )

    def repro(self) -> str:
        """A paste-able script replaying the (shrunk) failure."""
        ops_literal = "[\n" + "".join(
            f"    {op!r},\n" for op in self.ops
        ) + "]"
        return (
            "from repro.check.fuzz import FuzzConfig, replay\n"
            f"ops = {ops_literal}\n"
            f"replay(ops, FuzzConfig(dims={self.config.dims}, "
            f"width={self.config.width}, seed={self.config.seed}, "
            f"shards={self.config.shards}, "
            f"distribution={self.config.distribution!r}, "
            f"learned={self.config.learned}, "
            f"durable={self.config.durable}, "
            f"obs_mode={self.config.obs_mode!r}))\n"
        )


class _Divergence(Exception):
    """Internal: one executed sequence failed at ``index``."""

    def __init__(self, index: int, subject: str, message: str) -> None:
        self.index = index
        self.subject = subject
        self.message = message
        #: Black-box tail: what the process was doing just before.
        self.events = _recorder.dump(last=24)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Sequence generation
# ---------------------------------------------------------------------------


def generate_ops(config: FuzzConfig) -> List[Op]:
    """The fully concrete op sequence for ``config`` (pure in seed)."""
    rng = random.Random(config.seed)
    limit = 1 << config.width
    dims = config.dims

    if config.distribution == "cluster":
        centres = [
            tuple(rng.randrange(limit) for _ in range(dims))
            for _ in range(8)
        ]
        spread = max(2, limit >> 6)

        def random_key() -> Key:
            centre = centres[rng.randrange(len(centres))]
            return tuple(
                min(limit - 1, max(0, c + rng.randint(-spread, spread)))
                for c in centre
            )

    elif config.distribution == "adversarial":
        # Duplicate-heavy z-stream: 70% of draws collapse onto one
        # tight blob (long shared z-prefixes, ranks packed solid), 15%
        # sit on the main diagonal (z-codes spanning the full range
        # with huge gaps), the rest are uniform noise.  The blob keeps
        # re-drawing the *same* keys, so the op stream is also heavy
        # with duplicate puts/removes over identical z-codes.
        blob = tuple(rng.randrange(limit) for _ in range(dims))

        def random_key() -> Key:
            draw = rng.random()
            if draw < 0.7:
                return tuple(
                    min(limit - 1, max(0, c + rng.randint(-2, 2)))
                    for c in blob
                )
            if draw < 0.85:
                v = rng.randrange(limit)
                return (v,) * dims
            return tuple(rng.randrange(limit) for _ in range(dims))

    else:

        def random_key() -> Key:
            return tuple(rng.randrange(limit) for _ in range(dims))

    # Scratch model tracking which keys exist at each point of the
    # sequence, so the generator can aim ops at live keys.
    scratch = ReferenceModel(dims, config.width)

    def some_key(bias_present: float) -> Key:
        if scratch.data and rng.random() < bias_present:
            key = scratch.random_present_key(rng)
            assert key is not None
            return key
        return random_key()

    def random_box() -> Tuple[Key, Key]:
        if scratch.data and rng.random() < 0.6:
            # A window around a live key: guaranteed-nonempty-ish.
            anchor = scratch.random_present_key(rng)
            assert anchor is not None
            radius = max(1, limit >> rng.randrange(1, config.width))
            lo = tuple(max(0, a - radius) for a in anchor)
            hi = tuple(min(limit - 1, a + radius) for a in anchor)
            return lo, hi
        a, b = random_key(), random_key()
        if rng.random() < 0.05:
            return a, b  # possibly inverted: the empty-box contract
        return (
            tuple(min(x, y) for x, y in zip(a, b)),
            tuple(max(x, y) for x, y in zip(a, b)),
        )

    kinds = (
        ["put"] * 30
        + ["get"] * 10
        + ["contains"] * 5
        + ["remove"] * 12
        + ["update_key"] * 8
        + ["query"] * 8
        + ["query_approx"] * 4
        + ["get_many"] * 5
        + ["knn"] * 5
        + ["query_many"] * 4
        + ["contains_many"] * 3
        + ["knn_burst"] * 2
        + ["bulk_load"] * 1
    )
    if config.durable:
        # Persistence lifecycle ops: flushes dominate (the common
        # background event), reopens force full recovery mid-stream,
        # compactions exercise the merge path.
        kinds = kinds + ["d_flush"] * 3 + ["d_reopen"] * 2 + ["d_compact"]
    ops: List[Op] = []
    value_counter = 0
    for _ in range(config.ops):
        if len(scratch.data) >= config.max_keys:
            kind = "remove"
        else:
            kind = kinds[rng.randrange(len(kinds))]
        if kind == "put":
            key = some_key(0.15)  # some updates, mostly inserts
            ops.append(("put", key, value_counter))
            scratch.put(key, value_counter)
            value_counter += 1
        elif kind == "get":
            ops.append(("get", some_key(0.6)))
        elif kind == "contains":
            ops.append(("contains", some_key(0.5)))
        elif kind == "remove":
            key = some_key(0.85)  # mostly hits, some KeyError probes
            ops.append(("remove", key))
            scratch.data.pop(key, None)
        elif kind == "update_key":
            old = some_key(0.85)
            new = some_key(0.1)  # occasionally an occupied target
            ops.append(("update_key", old, new))
            try:
                scratch.update_key(old, new)
            except (KeyError, ValueError):
                pass
        elif kind == "query":
            lo, hi = random_box()
            ops.append(("query", lo, hi))
        elif kind == "query_approx":
            lo, hi = random_box()
            ops.append(
                ("query_approx", lo, hi,
                 rng.randrange(0, max(1, config.width // 2)))
            )
        elif kind == "get_many":
            batch = [some_key(0.5) for _ in range(rng.randrange(2, 17))]
            ops.append(("get_many", tuple(batch)))
        elif kind == "knn":
            ops.append(("knn", some_key(0.3), rng.randrange(1, 9)))
        elif kind == "query_many":
            boxes = tuple(random_box() for _ in range(rng.randrange(2, 9)))
            ops.append(("query_many", boxes))
        elif kind == "contains_many":
            batch = [some_key(0.5) for _ in range(rng.randrange(2, 17))]
            ops.append(("contains_many", tuple(batch)))
        elif kind == "knn_burst":
            burst = tuple(
                (some_key(0.3), rng.randrange(1, 9))
                for _ in range(rng.randrange(2, 6))
            )
            ops.append(("knn_burst", burst))
        elif kind in ("d_flush", "d_compact", "d_reopen"):
            ops.append((kind,))
        else:  # bulk_load: rebuild every engine from scratch + a batch
            batch = tuple(
                (random_key(), value_counter + i)
                for i in range(rng.randrange(1, 33))
            )
            value_counter += len(batch)
            ops.append(("bulk_load", batch))
            for key, value in batch:
                scratch.put(key, value)
    return ops


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_RAISED = "raised"
_OK = "ok"


def _outcome(callable_, *args: Any) -> Tuple[str, Any]:
    """Run one op; normalise to (kind, payload) for diffing."""
    try:
        return _OK, callable_(*args)
    except (KeyError, ValueError) as exc:
        return _RAISED, type(exc).__name__


class _DurableEnv:
    """The fuzzer's durable subject: a :class:`DurablePHTree` over a
    temporary directory, with ``bulk_load`` modelled as wipe-and-reload
    into a fresh store and ``reopen()`` as full crash-free recovery.

    Reads and mutations delegate to the current store, so
    :func:`_apply` drives it exactly like every other engine.  Opened
    with ``sync=False``: the fuzzer checks logical parity, not fsync
    discipline (the crash drills in :mod:`repro.check.faults` and
    ``tests/store`` cover that), and skipping the per-op fsync keeps
    lockstep runs fast.
    """

    def __init__(self, config: FuzzConfig) -> None:
        import tempfile

        self._tmp = tempfile.TemporaryDirectory(
            prefix="repro-fuzz-durable-"
        )
        self._config = config
        self._era = 0
        self.store: Any = None
        self.rebuild([])

    def _open(self, path: str) -> Any:
        from repro.core.serialize import U64ValueCodec
        from repro.store.engine import DurablePHTree

        return DurablePHTree.open(
            path,
            dims=self._config.dims,
            width=self._config.width,
            shards=self._config.shards,
            value_codec=U64ValueCodec,
            learned=self._config.learned,
            sync=False,
        )

    def rebuild(self, items: Sequence[Tuple[Key, Any]]) -> None:
        """A fresh store (new directory era) group-loaded with
        ``items`` -- the durable analogue of a bulk build."""
        import os

        if self.store is not None:
            self.store.close()
        self._era += 1
        path = os.path.join(self._tmp.name, f"db-{self._era}")
        self.store = self._open(path)
        if items:
            self.store.put_all(list(items))

    def reopen(self) -> None:
        """Close and recover from disk -- the clean-shutdown drill."""
        path = self.store.path
        self.store.close()
        self.store = self._open(path)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.store, name)

    def __len__(self) -> int:
        return len(self.store)

    def cleanup(self) -> None:
        if self.store is not None and not self.store.closed:
            self.store.close()
        self._tmp.cleanup()


def _build_subjects(
    config: FuzzConfig,
    items: Sequence[Tuple[Key, Any]],
    durable_env: Optional[_DurableEnv] = None,
) -> List[Tuple[str, Any]]:
    """Fresh engines pre-loaded with ``items``.

    The generic arena tree is grown by incremental puts while the object
    tree, the arena tree and the sharded tree go through their bulk
    builders -- layout is a pure function of the key set, so all four
    must then behave identically (that equivalence is part of what the
    run checks).
    """
    obj = bulk_load(
        list(items), config.dims, config.width, layout="object"
    )
    arena = bulk_load(
        list(items), config.dims, config.width, layout="arena"
    )
    generic = PHTree(
        dims=config.dims, width=config.width, specialize=False,
        layout="arena",
    )
    for key, value in items:
        generic.put(key, value)
    sharded = ShardedPHTree.build(
        list(items),
        dims=config.dims,
        width=config.width,
        shards=config.shards,
    )
    subjects = [
        ("object", obj),
        ("arena", arena),
        ("arena-generic", generic),
        ("sharded", sharded),
    ]
    if config.learned:
        subjects.append(
            (
                "sharded-learned",
                ShardedPHTree.build(
                    list(items),
                    dims=config.dims,
                    width=config.width,
                    shards=config.shards,
                    router="learned",
                ),
            )
        )
    if durable_env is not None:
        durable_env.rebuild(items)
        subjects.append(("durable", durable_env))
    return subjects


def _apply(tree: Any, name: str, op: Op) -> Tuple[str, Any]:
    """Execute ``op`` against one engine, normalised for diffing."""
    kind = op[0]
    if kind == "put":
        return _outcome(tree.put, op[1], op[2])
    if kind == "get":
        return _outcome(tree.get, op[1])
    if kind == "contains":
        return _outcome(tree.contains, op[1])
    if kind == "remove":
        return _outcome(tree.remove, op[1])
    if kind == "update_key":
        return _outcome(tree.update_key, op[1], op[2])
    if kind == "query":
        status, result = _outcome(tree.query, op[1], op[2])
        if status == _OK:
            result = list(result)
        return status, result
    if kind == "get_many":
        return _outcome(tree.get_many, list(op[1]))
    if kind == "knn":
        return _outcome(tree.knn, op[1], op[2])
    if kind == "query_many":
        status, result = _outcome(tree.query_many, list(op[1]))
        if status == _OK:
            result = [list(per_box) for per_box in result]
        return status, result
    if kind == "contains_many":
        contains_many = getattr(tree, "contains_many", None)
        if contains_many is not None:
            return _outcome(contains_many, list(op[1]))
        # ShardedPHTree has no batch membership API; the per-key loop
        # must agree with the batch kernels on every other engine.
        return _outcome(
            lambda keys: [tree.contains(key) for key in keys], list(op[1])
        )
    if kind == "knn_burst":
        return _outcome(
            lambda burst: [tree.knn(key, n) for key, n in burst], op[1]
        )
    raise AssertionError(f"unknown op kind for {name}: {kind}")


def _check_query_approx(
    model: ReferenceModel, tree: Any, name: str, op: Op, index: int
) -> None:
    """query_approx contract: a superset of the exact result whose extra
    points lie within ``2**slack - 1`` of the box, values per model."""
    _, lo, hi, slack = op
    approx = list(tree.query_approx(lo, hi, slack))
    exact = model.query(lo, hi)
    approx_keys = {key for key, _ in approx}
    if len(approx_keys) != len(approx):
        raise _Divergence(index, name, "query_approx yielded duplicates")
    missing = [key for key, _ in exact if key not in approx_keys]
    if missing:
        raise _Divergence(
            index,
            name,
            f"query_approx dropped exact hits, e.g. {missing[0]}",
        )
    pad = (1 << slack) - 1
    for key, value in approx:
        if model.get(key, _MISSING) != value:
            raise _Divergence(
                index,
                name,
                f"query_approx value for {key} disagrees with model",
            )
        if any(
            v < max(0, l - pad) or v > h + pad
            for v, l, h in zip(key, lo, hi)
        ):
            raise _Divergence(
                index,
                name,
                f"query_approx point {key} outside the slack box "
                f"(slack={slack})",
            )


_MISSING = object()


def _run_model_op(model: ReferenceModel, op: Op) -> Tuple[str, Any]:
    kind = op[0]
    if kind == "put":
        return _outcome(model.put, op[1], op[2])
    if kind == "get":
        return _outcome(model.get, op[1])
    if kind == "contains":
        return _outcome(model.contains, op[1])
    if kind == "remove":
        return _outcome(model.remove, op[1])
    if kind == "update_key":
        return _outcome(model.update_key, op[1], op[2])
    if kind == "query":
        return _outcome(model.query, op[1], op[2])
    if kind == "get_many":
        return _outcome(model.get_many, list(op[1]))
    if kind == "knn":
        return _outcome(model.knn, op[1], op[2])
    if kind == "query_many":
        return _outcome(model.query_many, list(op[1]))
    if kind == "contains_many":
        return _outcome(
            lambda keys: [model.contains(key) for key in keys], list(op[1])
        )
    if kind == "knn_burst":
        return _outcome(
            lambda burst: [model.knn(key, n) for key, n in burst], op[1]
        )
    raise AssertionError(f"unknown op kind: {kind}")


def _execute(ops: List[Op], config: FuzzConfig) -> FuzzReport:
    """Run ``ops`` against model + all engines; raise _Divergence on the
    first mismatch or invariant violation."""
    model = ReferenceModel(config.dims, config.width)
    durable_env = _DurableEnv(config) if config.durable else None
    subjects = _build_subjects(config, [], durable_env)
    report = FuzzReport(config=config)
    obs_before = _rt.enabled
    if config.obs_mode == "on":
        _rt.enable()
    elif config.obs_mode == "off":
        _rt.disable()
    try:
        for index, op in enumerate(ops):
            if (
                config.obs_mode == "alternate"
                and index % _OBS_FLIP_PERIOD == 0
            ):
                if _rt.enabled:
                    _rt.disable()
                else:
                    _rt.enable()
            kind = op[0]
            report.op_counts[kind] = report.op_counts.get(kind, 0) + 1
            _recorder.record("fuzz_op", index=index, op=kind)
            if kind == "bulk_load":
                for key, value in op[1]:
                    model.put(key, value)
                subjects = _build_subjects(
                    config, model.items(), durable_env
                )
            elif kind in ("d_flush", "d_compact", "d_reopen"):
                assert durable_env is not None
                if kind == "d_flush":
                    durable_env.store.flush()
                elif kind == "d_compact":
                    durable_env.store.compact()
                else:
                    durable_env.reopen()
                    got = dict(durable_env.store.items())
                    want = dict(model.items())
                    if got != want:
                        raise _Divergence(
                            index,
                            "durable",
                            f"reopen parity broke: recovered "
                            f"{len(got)} entries, model holds "
                            f"{len(want)}",
                        )
            elif kind == "query_approx":
                for name, tree in subjects:
                    if name.startswith(("sharded", "durable")):
                        continue  # no approx engine on these subjects
                    _check_query_approx(model, tree, name, op, index)
            else:
                expected = _run_model_op(model, op)
                for name, tree in subjects:
                    actual = _apply(tree, name, op)
                    if actual != expected:
                        raise _Divergence(
                            index,
                            name,
                            f"expected {_render(expected)}, "
                            f"got {_render(actual)}",
                        )
            for name, tree in subjects:
                if len(tree) != len(model):
                    raise _Divergence(
                        index,
                        name,
                        f"size {len(tree)} != model size {len(model)}",
                    )
            report.ops_run += 1
            if (index + 1) % config.validate_every == 0:
                _validate_all(subjects, model, index)
                report.validations += 1
        _validate_all(subjects, model, len(ops) - 1)
        report.validations += 1
        report.final_size = len(model)
        return report
    finally:
        if durable_env is not None:
            durable_env.cleanup()
        if obs_before:
            _rt.enable()
        else:
            _rt.disable()


def _validate_all(
    subjects: List[Tuple[str, Any]], model: ReferenceModel, index: int
) -> None:
    expected_items = model.items()
    for name, tree in subjects:
        try:
            validate_tree(
                tree.store if isinstance(tree, _DurableEnv) else tree
            )
        except InvariantViolation as exc:
            raise _Divergence(
                index, name, f"invariant violation: {exc}"
            ) from exc
        if list(tree.items()) != expected_items:
            raise _Divergence(
                index, name, "items() disagrees with the model"
            )


def _render(outcome: Tuple[str, Any]) -> str:
    status, payload = outcome
    text = repr(payload)
    if len(text) > 200:
        text = text[:200] + "..."
    return f"{status}:{text}"


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _fails(ops: List[Op], config: FuzzConfig) -> Optional[_Divergence]:
    try:
        _execute(ops, config)
        return None
    except _Divergence as div:
        return div


def _shrink(
    ops: List[Op], config: FuzzConfig, budget: int = 256
) -> Tuple[List[Op], _Divergence]:
    """Greedy delta debugging: drop chunks, then single ops, as long as
    *some* divergence persists.  ``budget`` caps re-executions."""
    divergence = _fails(ops, config)
    assert divergence is not None
    current = ops[: divergence.index + 1]
    divergence = _fails(current, config) or divergence
    chunk = max(1, len(current) // 4)
    while chunk >= 1 and budget > 0:
        start = 0
        shrunk = False
        while start < len(current) and budget > 0:
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                break
            budget -= 1
            result = _fails(candidate, config)
            if result is not None:
                current = candidate[: result.index + 1]
                divergence = result
                shrunk = True
            else:
                start += chunk
        if not shrunk or chunk == 1:
            if chunk == 1:
                break
        chunk = max(1, chunk // 2)
    return current, divergence


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run one seeded fuzz campaign; raises :class:`FuzzFailure` (with a
    shrunk, paste-able repro) on any divergence."""
    ops = generate_ops(config)
    try:
        return _execute(ops, config)
    except _Divergence as div:
        if config.shrink:
            ops, div = _shrink(ops, config)
        else:
            ops = ops[: div.index + 1]
        raise FuzzFailure(
            config, ops, div.index, div.subject, div.message,
            events=div.events,
        ) from None


def replay(ops: List[Op], config: FuzzConfig) -> FuzzReport:
    """Re-execute a concrete op sequence (e.g. a printed repro)."""
    try:
        return _execute(list(ops), config)
    except _Divergence as div:
        raise FuzzFailure(
            config, list(ops[: div.index + 1]), div.index, div.subject,
            div.message, events=div.events,
        ) from None
