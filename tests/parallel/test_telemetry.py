"""Shard telemetry: per-shard op counts, lock-wait histograms, and the
arena freeze fast-path probe behind ``freeze_shards``."""

import random

import pytest

from repro import obs
from repro.core.frozen import freeze
from repro.obs import probes
from repro.parallel.sharded import ShardedPHTree

DIMS = 2
WIDTH = 12
DOMAIN = (1 << WIDTH) - 1


@pytest.fixture
def obs_enabled():
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


def _keys(n=200, seed=71):
    rng = random.Random(seed)
    return list(
        {
            (rng.randrange(1 << WIDTH), rng.randrange(1 << WIDTH))
            for _ in range(n)
        }
    )


def _shard_op_counts():
    counts = {}
    family = probes.shard_ops
    for (shard, op), child in family.children():
        if child.value:
            counts[(int(shard), op)] = child.value
    return counts


class TestShardOpCounts:
    def test_writes_and_reads_count_per_shard(self, obs_enabled):
        tree = ShardedPHTree(dims=DIMS, width=WIDTH, shards=4)
        keys = _keys()
        for key in keys:
            tree.put(key, None)
        for key in keys[:40]:
            tree.get(key)
            tree.contains(key)
        tree.remove(keys[0])
        tree.get_many(keys[:40])
        tree.query((0, 0), (DOMAIN, DOMAIN))
        tree.query_many([((0, 0), (DOMAIN, DOMAIN))])
        tree.knn(keys[1], 3)
        counts = _shard_op_counts()
        puts = sum(v for (_, op), v in counts.items() if op == "put")
        assert puts == len(keys)
        assert sum(
            v for (_, op), v in counts.items() if op == "remove"
        ) == 1
        # Every shard saw the full-domain query.
        for shard in range(4):
            assert counts.get((shard, "query"), 0) >= 1
        assert any(op == "get_many" for (_, op) in counts)
        assert any(op == "knn" for (_, op) in counts)

    def test_lock_wait_histograms_observe(self, obs_enabled):
        tree = ShardedPHTree(dims=DIMS, width=WIDTH, shards=2)
        for key in _keys(50):
            tree.put(key, None)
        tree.query((0, 0), (DOMAIN, DOMAIN))
        assert probes.shard_lock_wait_write.count == 50
        assert probes.shard_lock_wait_read.count > 0

    def test_disabled_counts_nothing(self):
        obs.reset()
        tree = ShardedPHTree(dims=DIMS, width=WIDTH, shards=2)
        for key in _keys(30):
            tree.put(key, None)
        tree.query((0, 0), (DOMAIN, DOMAIN))
        assert _shard_op_counts() == {}


class TestArenaRepublishFastPath:
    def test_arena_shards_freeze_straight_from_slabs(
        self, obs_enabled, monkeypatch
    ):
        """With arena-backed shards, every shard snapshot (the store's
        flush/checkpoint path) must take freeze()'s slab fast path (no
        per-node object materialisation) -- the probe counts one tick
        per frozen shard."""
        monkeypatch.setenv("REPRO_PHTREE_LAYOUT", "arena")
        keys = _keys(120, seed=91)
        tree = ShardedPHTree(dims=DIMS, width=WIDTH, shards=4)
        for key in keys:
            tree.put(key, None)
        assert tree._shards[0].unsafe_tree.layout == "arena"
        assert probes.freeze_arena_fast.value == 0
        blobs = tree.freeze_shards()
        assert len(blobs) == 4
        assert probes.freeze_arena_fast.value == 4
        # Freezing one shard directly is again a slab walk.
        freeze(tree._shards[0].unsafe_tree)
        assert probes.freeze_arena_fast.value == 5

    def test_object_shards_never_tick_the_fast_path(self, obs_enabled):
        keys = _keys(60, seed=92)
        tree = ShardedPHTree.build(
            [(key, None) for key in keys],
            dims=DIMS,
            width=WIDTH,
            shards=2,
        )
        if tree._shards[0].unsafe_tree.layout != "object":
            pytest.skip("suite running with arena as session layout")
        assert len(tree.freeze_shards()) == 2
        assert probes.freeze_arena_fast.value == 0
