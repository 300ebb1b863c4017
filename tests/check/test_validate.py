"""The structural invariant validator: accepts every tree the suite
builds, rejects every seeded corruption."""

from __future__ import annotations

import random

import pytest

from repro import PHTree, PHTreeF
from repro.check import InvariantViolation, validate_tree
from repro.core.bulk import bulk_load
from repro.core.concurrent import SynchronizedPHTree
from repro.core.frozen import FrozenPHTree, freeze
from repro.core.serialize import U64ValueCodec
from repro.parallel import ShardedPHTree


def _filled(dims=3, width=16, n=300, seed=7, value=None, layout=None):
    rng = random.Random(seed)
    tree = PHTree(dims=dims, width=width, layout=layout)
    for i in range(n):
        key = tuple(rng.randrange(1 << width) for _ in range(dims))
        tree.put(key, i if value is None else value)
    return tree


# ---------------------------------------------------------------------------
# Acceptance: every construction path the suite uses validates clean.
# ---------------------------------------------------------------------------


def test_accepts_empty_tree():
    report = validate_tree(PHTree(dims=2, width=8))
    assert report.entries == 0
    assert report.nodes == 0


def test_accepts_single_entry():
    tree = PHTree(dims=2, width=8)
    tree.put((3, 5), "x")
    report = validate_tree(tree)
    assert report.entries == 1


def test_accepts_small_tree_fixture(small_tree):
    tree, reference = small_tree
    report = validate_tree(tree)
    assert report.entries == len(reference)
    assert report.engine in ("PHTree", "ArenaPHTree")


def test_accepts_float_facade(small_float_tree):
    tree, reference = small_float_tree
    report = validate_tree(tree)
    assert report.entries == len(reference)


@pytest.mark.parametrize("dims", [1, 2, 6, 14])
def test_accepts_incremental_and_bulk(dims):
    rng = random.Random(dims)
    width = 16
    items = {
        tuple(rng.randrange(1 << width) for _ in range(dims)): i
        for i in range(200)
    }
    incremental = PHTree(dims=dims, width=width)
    for key, value in items.items():
        incremental.put(key, value)
    bulk = bulk_load(list(items.items()), dims, width=width)
    assert validate_tree(incremental).entries == len(items)
    assert validate_tree(bulk).entries == len(items)


@pytest.mark.parametrize("hc_mode", ["hc", "lhc", "auto"])
def test_accepts_forced_container_modes(hc_mode):
    rng = random.Random(11)
    tree = PHTree(dims=2, width=12, hc_mode=hc_mode)
    for i in range(150):
        tree.put((rng.randrange(1 << 12), rng.randrange(1 << 12)), i)
    report = validate_tree(tree)
    if hc_mode == "hc":
        assert report.lhc_nodes == 0
    if hc_mode == "lhc":
        assert report.hc_nodes == 0


def test_accepts_hysteresis_band():
    rng = random.Random(13)
    tree = PHTree(dims=3, width=10, hc_hysteresis=0.5)
    for i in range(200):
        tree.put(
            tuple(rng.randrange(1 << 10) for _ in range(3)), i
        )
    for key in list(dict(tree.items()))[:100]:
        tree.remove(key)
    validate_tree(tree)


def test_accepts_after_heavy_deletes():
    tree = _filled(n=400, seed=3)
    keys = [key for key, _ in tree.items()]
    rng = random.Random(5)
    rng.shuffle(keys)
    for key in keys[:350]:
        tree.remove(key)
        if len(tree) % 50 == 0:
            validate_tree(tree)
    validate_tree(tree)


def test_accepts_frozen_tree():
    tree = _filled(value=None)
    for key, _ in list(tree.items()):
        tree.put(key, None)
    frozen = FrozenPHTree(freeze(tree))
    report = validate_tree(frozen)
    assert report.engine == "FrozenPHTree"
    assert report.entries == len(tree)


def test_accepts_frozen_u64_codec():
    tree = _filled()
    frozen = FrozenPHTree(freeze(tree, U64ValueCodec), U64ValueCodec)
    assert validate_tree(frozen).entries == len(tree)


def test_accepts_synchronized_tree():
    tree = SynchronizedPHTree(_filled())
    report = validate_tree(tree)
    # The inner engine name depends on the layout in use.
    assert report.engine in (
        "Synchronized[PHTree]",
        "Synchronized[ArenaPHTree]",
    )


def test_accepts_sharded_tree():
    rng = random.Random(17)
    items = [
        (tuple(rng.randrange(1 << 16) for _ in range(2)), i)
        for i in range(300)
    ]
    with ShardedPHTree.build(
        items, dims=2, width=16, shards=4
    ) as sharded:
        report = validate_tree(sharded)
    assert report.engine == "ShardedPHTree"
    assert report.entries == len(dict(items))
    assert len(report.sub_reports) == 4


def test_accepts_per_dimension_widths():
    rng = random.Random(19)
    tree = PHTree(dims=3, width=[8, 16, 12])
    for i in range(150):
        tree.put(
            (
                rng.randrange(1 << 8),
                rng.randrange(1 << 16),
                rng.randrange(1 << 12),
            ),
            i,
        )
    validate_tree(tree)


# ---------------------------------------------------------------------------
# Rejection: seeded corruptions must be caught.
# ---------------------------------------------------------------------------


def _first_internal(tree):
    """Some node holding at least one child node, else any node."""
    stack = [tree.root]
    fallback = tree.root
    while stack:
        node = stack.pop()
        for _, slot in node.items():
            if hasattr(slot, "post_len"):
                stack.append(slot)
                return node, slot
    return fallback, None


def test_rejects_corrupt_size():
    tree = _filled()
    tree._size += 1
    with pytest.raises(InvariantViolation, match="size"):
        validate_tree(tree)


def test_rejects_corrupt_prefix():
    # Corrupting live Node objects needs the object engine (the arena
    # engine only hands out disposable shadows); the arena twins below
    # corrupt the slabs instead.
    tree = _filled(layout="object")
    parent, child = _first_internal(tree)
    assert child is not None
    child.prefix = tuple(p ^ 1 for p in child.prefix)
    with pytest.raises(InvariantViolation):
        validate_tree(tree)


def test_rejects_single_child_non_root():
    tree = _filled(n=500, seed=23, layout="object")
    parent, child = _first_internal(tree)
    assert child is not None
    # Strip the child down to one slot behind the tree's back.
    address, slot = next(iter(child.items()))
    for other_address, _ in list(child.items()):
        if other_address != address:
            child.remove_slot(other_address, tree.dims)
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_rejects_wrong_post_len():
    tree = _filled(layout="object")
    parent, child = _first_internal(tree)
    assert child is not None
    child.post_len = parent.post_len  # must be strictly smaller
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_rejects_out_of_range_key_entry():
    tree = PHTree(dims=2, width=8)
    tree.put((3, 5), "a")
    tree.put((200, 17), "b")
    # Narrow the declared widths after the fact: (200, ...) is now out
    # of range for dimension 0.
    tree._widths = (6, 8)
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_violation_carries_path():
    tree = _filled()
    tree._size += 1
    try:
        validate_tree(tree)
    except InvariantViolation as violation:
        assert isinstance(violation.path, tuple)
    else:  # pragma: no cover
        pytest.fail("expected InvariantViolation")


# ---------------------------------------------------------------------------
# Arena-native rejection: corruption planted straight into the slabs.
# ---------------------------------------------------------------------------


def test_arena_accepts_clean_tree():
    report = validate_tree(_filled(layout="arena"))
    assert report.engine == "ArenaPHTree"
    assert report.entries == 300


def test_arena_rejects_corrupt_header_counts():
    tree = _filled(layout="arena")
    # Inflate the root counts word's n_post field (bits 21..41).
    tree._arena.words[tree._root_off + 1] += 1 << 21
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_arena_rejects_corrupt_prefix():
    tree = _filled(layout="arena")
    arena = tree._arena
    # Set a dirty bit below post_len + 1 in some non-root node's prefix.
    for off in arena.iter_nodes(tree._root_off):
        if off != tree._root_off:
            arena.words[off + 2] ^= 1
            break
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_arena_rejects_reachable_freed_block():
    tree = _filled(layout="arena")
    arena = tree._arena
    # Recycle a still-reachable node block behind the tree's back.
    victim = next(
        off
        for off in arena.iter_nodes(tree._root_off)
        if off != tree._root_off
    )
    arena.free_block(victim, arena.block_len(victim))
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_arena_rejects_lost_free_list_marker():
    tree = _filled(layout="arena")
    arena = tree._arena
    # Deletes create free blocks; smash one list head's marker word.
    for key, _ in list(tree.items())[:150]:
        tree.remove(key)
    heads = [head for head in arena.node_free.values() if head]
    assert heads, "delete churn should have freed node blocks"
    arena.words[heads[0]] ^= 1
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)


def test_arena_rejects_accounting_drift():
    tree = _filled(layout="arena")
    tree._arena.live_entries += 1
    with pytest.raises(InvariantViolation):
        validate_tree(tree, frozen_roundtrip=False)
