"""ShardedPHTree vs a single PHTree: exact observational equivalence.

The acceptance bar for the parallel layer: every operation's result --
*order included* -- equals the unsharded tree's, across dimensionalities
and the paper's CUBE/CLUSTER distributions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.phtree import PHTree
from repro.datasets.cluster import generate_cluster
from repro.datasets.cube import generate_cube
from repro.parallel import ShardedPHTree

WIDTH = 16


def _int_keys(points, width=WIDTH):
    scale = 1 << width
    return [
        tuple(max(0, min(int(v * scale), scale - 1)) for v in p)
        for p in points
    ]


def _dataset(name, n, dims, seed):
    if name == "CUBE":
        return _int_keys(generate_cube(n, dims, seed=seed))
    return _int_keys(generate_cluster(n, dims, seed=seed))


def _boxes(rng, dims, n_boxes, extent_shift=1):
    top = (1 << WIDTH) - 1
    extent = 1 << (WIDTH - extent_shift)
    out = []
    for _ in range(n_boxes):
        lo = tuple(rng.randrange(1 << WIDTH) for _ in range(dims))
        out.append((lo, tuple(min(v + extent, top) for v in lo)))
    return out


@pytest.mark.parametrize("dims", [2, 6, 14])
@pytest.mark.parametrize("dataset", ["CUBE", "CLUSTER"])
class TestOracleEquivalence:
    """One scenario per (dims, distribution): mutate both trees in
    lockstep, compare every read exactly."""

    def test_lockstep_oracle(self, dims, dataset):
        rng = random.Random(dims * 31 + len(dataset))
        keys = _dataset(dataset, 600, dims, seed=dims)
        oracle = PHTree(dims=dims, width=WIDTH)
        sharded = ShardedPHTree(dims=dims, width=WIDTH, shards=8)

        # -- put (with duplicates: same replacement semantics) ------------
        for i, key in enumerate(keys):
            assert sharded.put(key, i) == oracle.put(key, i)
        for key in keys[:40]:  # replacement returns the old value
            assert sharded.put(key, "x") == oracle.put(key, "x")
        assert len(sharded) == len(oracle)

        # -- get / contains -----------------------------------------------
        for key in keys[:100]:
            assert sharded.get(key) == oracle.get(key)
            assert (key in sharded) == (key in oracle)
        missing = tuple(0 for _ in range(dims))
        assert sharded.get(missing, "d") == oracle.get(missing, "d")
        batch = keys[:80] + [missing]
        assert sharded.get_many(batch) == oracle.get_many(batch)

        # -- window queries (entries AND order) ----------------------------
        for lo, hi in _boxes(rng, dims, 25):
            assert sharded.query(lo, hi) == list(oracle.query(lo, hi))
        boxes = _boxes(rng, dims, 12) + [
            (tuple(5 for _ in range(dims)), tuple(1 for _ in range(dims)))
        ]  # one empty box rides along
        assert sharded.query_many(boxes) == oracle.query_many(boxes)

        # -- kNN (exact tie order) ----------------------------------------
        for _ in range(15):
            q = tuple(rng.randrange(1 << WIDTH) for _ in range(dims))
            for n in (1, 5, 13):
                assert sharded.knn(q, n) == oracle.knn(q, n)

        # -- iteration (global z-order) ------------------------------------
        assert list(sharded.items()) == list(oracle.items())
        assert list(sharded.keys()) == list(oracle.keys())

        # -- delete ---------------------------------------------------------
        doomed = list(dict.fromkeys(keys))[::3]
        for key in doomed:
            assert sharded.remove(key) == oracle.remove(key)
        with pytest.raises(KeyError):
            sharded.remove(doomed[0])
        assert sharded.remove(doomed[0], "gone") == "gone"
        assert list(sharded.items()) == list(oracle.items())
        for lo, hi in _boxes(rng, dims, 10):
            assert sharded.query(lo, hi) == list(oracle.query(lo, hi))
        sharded.check_invariants()

    def test_bulk_build_equals_incremental(self, dims, dataset):
        keys = _dataset(dataset, 500, dims, seed=dims + 100)
        entries = [(k, i) for i, k in enumerate(keys)]
        built = ShardedPHTree.build(
            entries, dims=dims, width=WIDTH, shards=8
        )
        incremental = ShardedPHTree(dims=dims, width=WIDTH, shards=8)
        for key, value in entries:
            incremental.put(key, value)
        assert list(built.items()) == list(incremental.items())
        assert built.shard_sizes() == incremental.shard_sizes()
        built.check_invariants()


class TestShardTopology:
    def test_shard_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ShardedPHTree(dims=2, width=8, shards=6)

    def test_single_shard_degenerates_gracefully(self):
        tree = ShardedPHTree(dims=2, width=8, shards=1)
        oracle = PHTree(dims=2, width=8)
        rng = random.Random(0)
        for _ in range(100):
            k = (rng.randrange(256), rng.randrange(256))
            tree.put(k, None)
            oracle.put(k, None)
        assert list(tree.items()) == list(oracle.items())

    def test_keys_land_in_routed_shard(self):
        tree = ShardedPHTree(dims=3, width=8, shards=8)
        rng = random.Random(5)
        for _ in range(200):
            tree.put(tuple(rng.randrange(256) for _ in range(3)), None)
        tree.check_invariants()  # includes the routing invariant
        assert sum(tree.shard_sizes().values()) == len(tree)

    def test_invalid_keys_raise_like_phtree(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        for bad in [(1,), (1, 2, 3), (-1, 0), (256, 0)]:
            with pytest.raises(ValueError):
                tree.put(bad, None)
            with pytest.raises(ValueError):
                tree.get(bad)


class TestUpdateKey:
    def test_within_and_across_shards(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        oracle = PHTree(dims=2, width=8)
        for k in [(0, 0), (3, 4), (250, 250)]:
            tree.put(k, str(k))
            oracle.put(k, str(k))
        # Across shards: (3, 4) is in shard 0, (200, 7) in shard 2.
        tree.update_key((3, 4), (200, 7))
        oracle.update_key((3, 4), (200, 7))
        # Within one shard.
        tree.update_key((0, 0), (1, 1))
        oracle.update_key((0, 0), (1, 1))
        assert list(tree.items()) == list(oracle.items())
        with pytest.raises(KeyError):
            tree.update_key((9, 9), (10, 10))
        with pytest.raises(ValueError):
            tree.update_key((1, 1), (250, 250))
        tree.check_invariants()


class TestBatchedReads:
    def test_put_all_and_clear(self):
        tree = ShardedPHTree(dims=2, width=8, shards=4)
        entries = [((i, 255 - i), i) for i in range(100)]
        tree.put_all(entries)
        assert len(tree) == 100
        assert tree.get((10, 245)) == 10
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_count_matches_query(self):
        rng = random.Random(11)
        keys = _dataset("CUBE", 300, 3, seed=1)
        tree = ShardedPHTree.build(
            [(k, None) for k in keys], dims=3, width=WIDTH, shards=8
        )
        for lo, hi in _boxes(rng, 3, 10):
            assert tree.count(lo, hi) == len(tree.query(lo, hi))


class TestLifecycle:
    def test_close_keeps_reads_working(self):
        sharded = ShardedPHTree(dims=2, width=8, shards=2)
        sharded.put((1, 1), None)
        assert sharded.query((0, 0), (255, 255)) == [((1, 1), None)]
        sharded.close()
        sharded.close()  # idempotent
        assert sharded.query((0, 0), (255, 255)) == [((1, 1), None)]
        with ShardedPHTree(dims=2, width=8, shards=2) as scoped:
            scoped.put((2, 2), None)
        assert scoped.get((2, 2)) is None and (2, 2) in scoped

    def test_freeze_shards_round_trips_values(self):
        from repro.core.frozen import FrozenPHTree
        from repro.core.serialize import U64ValueCodec

        keys = _dataset("CUBE", 300, 3, seed=5)
        entries = [(k, i * 7) for i, k in enumerate(keys)]
        oracle = PHTree(dims=3, width=WIDTH)
        for k, v in entries:
            oracle.put(k, v)
        sharded = ShardedPHTree.build(
            entries, dims=3, width=WIDTH, shards=4
        )
        blobs = sharded.freeze_shards(U64ValueCodec)
        assert len(blobs) == sharded.n_shards
        lo = (0,) * 3
        hi = ((1 << WIDTH) - 1,) * 3
        frozen_read = [
            entry
            for blob in blobs
            for entry in FrozenPHTree(blob, U64ValueCodec).query(lo, hi)
        ]
        assert frozen_read == list(oracle.query(lo, hi))
