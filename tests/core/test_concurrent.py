"""ReadWriteLock fairness/re-entrancy regressions and concurrent stress
on the synchronized and sharded trees.

The lock-level tests pin the two ISSUE-2 fixes:

- *bounded writer batching*: sustained write load can no longer starve
  readers -- after ``max_writer_batch`` consecutive writers pass while
  readers wait, the reader cohort gets a turn;
- *re-entrant read acquisition*: a thread already in shared mode may
  re-acquire freely even with a writer queued (previously a deadlock).

The stress tests interleave reader/writer threads over
``SynchronizedPHTree`` and ``ShardedPHTree`` and compare the final
state (and, for snapshots, every intermediate read) against a plain
single-threaded ``PHTree`` oracle.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import PHTree
from repro.core.concurrent import ReadWriteLock, SynchronizedPHTree
from repro.parallel import ShardedPHTree


class TestReaderStarvation:
    def test_readers_progress_under_sustained_write_load(self):
        """With writers queuing back-to-back, a reader must still get
        in after at most ``max_writer_batch`` writer passes."""
        lock = ReadWriteLock(max_writer_batch=4)
        stop = threading.Event()
        writes_before_read = []
        writes_done = [0]

        def writer_loop():
            while not stop.is_set():
                with lock.write():
                    writes_done[0] += 1

        writers = [threading.Thread(target=writer_loop) for _ in range(3)]
        for t in writers:
            t.start()
        try:
            # Let the write storm establish itself.
            deadline = time.time() + 5
            while writes_done[0] < 10 and time.time() < deadline:
                time.sleep(0.001)
            assert writes_done[0] >= 10
            # A sample counts writer passes between snapshotting the
            # counter and being admitted -- but passes landing before
            # the reader even registers as waiting are outside the
            # batching bound, so a noisy sample is re-taken instead of
            # failing outright.  True starvation exceeds the bound on
            # every retry.
            for _ in range(5):
                for attempt in range(4):
                    before = writes_done[0]
                    with lock.read():
                        seen = writes_done[0] - before
                    if seen <= 16:
                        break
                writes_before_read.append(seen)
        finally:
            stop.set()
            for t in writers:
                t.join(timeout=5)
        # The reader was admitted; under the bound it never waited for
        # an unbounded writer stream (generous slack over the batch of 4
        # to absorb scheduling noise).
        assert all(seen <= 16 for seen in writes_before_read), (
            writes_before_read
        )

    def test_writer_preference_still_holds_below_the_bound(self):
        """A single waiting writer still beats newly arriving readers
        (the pre-existing writer-preference contract)."""
        lock = ReadWriteLock()
        order = []
        reader_in = threading.Event()
        release = threading.Event()

        def long_reader():
            with lock.read():
                reader_in.set()
                release.wait(timeout=5)
            order.append("reader1")

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader2")

        threads = [threading.Thread(target=long_reader)]
        threads[0].start()
        assert reader_in.wait(timeout=5)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        time.sleep(0.05)
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert order.index("writer") < order.index("reader2")


class TestReentrantRead:
    def test_nested_read_with_queued_writer_does_not_deadlock(self):
        """The historical deadlock: thread A holds read, writer queues,
        A re-acquires read.  With writer preference alone, A waits for
        the writer which waits for A.  Re-entrancy must break the cycle."""
        lock = ReadWriteLock()
        outcome = []
        reader_in = threading.Event()
        writer_queued = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                assert writer_queued.wait(timeout=5)
                time.sleep(0.05)  # let the writer actually block
                with lock.read():  # re-entrant: must not deadlock
                    outcome.append("nested-read")

        def writer():
            assert reader_in.wait(timeout=5)
            writer_queued.set()
            with lock.write():
                outcome.append("write")

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=writer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "deadlocked"
        assert outcome == ["nested-read", "write"]

    def test_read_depth_counts_releases(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        # Still held once: a writer cannot get in.
        acquired = []

        def writer():
            lock.acquire_write()
            acquired.append(True)
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        assert not acquired
        lock.release_read()
        t.join(timeout=5)
        assert acquired

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            ReadWriteLock().release_read()

    def test_self_deadlocking_upgrades_raise(self):
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                lock.acquire_write()
        with lock.write():
            with pytest.raises(RuntimeError):
                lock.acquire_read()
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_bad_batch_bound_rejected(self):
        with pytest.raises(ValueError):
            ReadWriteLock(max_writer_batch=0)


def _stress(tree, oracle_lock, oracle, dims, width, seconds=1.0, readers=3):
    """Hammer ``tree`` with writer+reader threads; mirror every write
    into ``oracle`` under ``oracle_lock``.  Returns reader errors."""
    stop = threading.Event()
    errors = []
    top = (1 << width) - 1

    def writer(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            key = tuple(rng.randrange(1 << width) for _ in range(dims))
            with oracle_lock:
                if rng.random() < 0.7:
                    tree.put(key, seed)
                    oracle[key] = seed
                elif key in oracle:
                    tree.remove(key, None)
                    oracle.pop(key, None)

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                key = tuple(
                    rng.randrange(1 << width) for _ in range(dims)
                )
                tree.get(key)
                lo = tuple(max(0, k - 50) for k in key)
                hi = tuple(min(top, k + 50) for k in key)
                for found_key, _ in tree.query(lo, hi):
                    if not all(
                        l <= v <= h
                        for v, l, h in zip(found_key, lo, hi)
                    ):
                        errors.append(f"{found_key} outside {lo}..{hi}")
                tree.knn(key, 3)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(2)
    ] + [
        threading.Thread(target=reader, args=(100 + r,))
        for r in range(readers)
    ]
    for t in threads:
        t.start()
    time.sleep(seconds)
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads), "stress deadlock"
    return errors


class TestSynchronizedStress:
    def test_interleaved_readers_writers_consistent(self):
        dims, width = 2, 10
        tree = SynchronizedPHTree(PHTree(dims=dims, width=width))
        oracle = {}
        errors = _stress(tree, threading.Lock(), oracle, dims, width)
        assert errors == []
        # Final state equals the mirrored oracle exactly.
        assert dict(tree.items()) == oracle
        tree.check_invariants()


class TestShardedStress:
    def test_interleaved_readers_writers_consistent(self):
        dims, width = 2, 10
        tree = ShardedPHTree(dims=dims, width=width, shards=4)
        oracle = {}
        errors = _stress(tree, threading.Lock(), oracle, dims, width)
        assert errors == []
        assert dict(tree.items()) == oracle
        tree.check_invariants()
        # And the final state equals an unsharded tree built from the
        # oracle -- the snapshot-vs-live consistency anchor.
        reference = PHTree(dims=dims, width=width)
        for key, value in oracle.items():
            reference.put(key, value)
        assert list(tree.items()) == list(reference.items())

    def test_snapshot_vs_live_consistency_under_writes(self):
        """Alternate write bursts with reads: after every burst the live
        sharded read and a ``freeze_shards`` snapshot of it must both
        equal the unsharded oracle."""
        from repro.core.frozen import FrozenPHTree

        dims, width = 3, 8
        rng = random.Random(13)
        oracle = PHTree(dims=dims, width=width)
        with ShardedPHTree(dims=dims, width=width, shards=4) as tree:
            lo = (0,) * dims
            hi = ((1 << width) - 1,) * dims
            for _ in range(5):
                for _ in range(60):
                    key = tuple(
                        rng.randrange(1 << width) for _ in range(dims)
                    )
                    if rng.random() < 0.8:
                        tree.put(key, None)
                        oracle.put(key, None)
                    elif key in oracle:
                        tree.remove(key)
                        oracle.remove(key)
                expected = list(oracle.query(lo, hi))
                assert tree.query(lo, hi) == expected
                snapshot_read = [
                    entry
                    for blob in tree.freeze_shards()
                    for entry in FrozenPHTree(blob).query(lo, hi)
                ]
                assert snapshot_read == expected
