"""Fault injection for the parallel layer's locks and the fault drill:
every injected fault must raise a clean typed error or recover exactly,
and move its observability counter."""

from __future__ import annotations

import random
import threading

import pytest

from repro import obs
from repro.check.faults import run_fault_drill, slow_reader
from repro.core.concurrent import LockTimeout, ReadWriteLock
from repro.obs import probes
from repro.parallel import ShardedPHTree

DIMS, WIDTH = 2, 16


def _items(n=200, seed=31):
    rng = random.Random(seed)
    seen = {}
    for i in range(n):
        seen[tuple(rng.randrange(1 << WIDTH) for _ in range(DIMS))] = i
    return list(seen.items())


@pytest.fixture
def sharded_tree():
    items = _items()
    with ShardedPHTree.build(
        items, dims=DIMS, width=WIDTH, shards=4
    ) as tree:
        yield tree, dict(items)


@pytest.fixture
def metrics():
    obs.reset()
    obs.enable()
    yield probes
    obs.disable()
    obs.reset()


def test_slow_reader_blocks_writer_with_timeout(sharded_tree, metrics):
    tree, _ = sharded_tree
    before = metrics.lock_timeouts.labels("write").value
    with slow_reader(tree, shard=0):
        with pytest.raises(LockTimeout):
            with tree._shards[0].lock.write(timeout=0.05):
                pass  # pragma: no cover
    assert metrics.lock_timeouts.labels("write").value == before + 1
    # The reader is gone; the write goes through.
    with tree._shards[0].lock.write(timeout=1.0):
        pass


def test_read_timeout_behind_writer(metrics):
    lock = ReadWriteLock()
    lock.acquire_write()
    before = metrics.lock_timeouts.labels("read").value
    failures = []

    def reader():
        try:
            lock.acquire_read(timeout=0.05)
        except LockTimeout as exc:
            failures.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    thread.join(timeout=5.0)
    lock.release_write()
    assert len(failures) == 1
    assert metrics.lock_timeouts.labels("read").value == before + 1
    # The abandoned read didn't wedge the lock.
    with lock.read():
        pass
    with lock.write():
        pass


def test_write_timeout_does_not_wedge_queued_readers():
    lock = ReadWriteLock()
    lock.acquire_read()  # camping reader

    got_read = threading.Event()

    def late_reader():
        # Queued behind the (doomed) writer; must proceed once the
        # writer gives up.
        with lock.read():
            got_read.set()

    def doomed_writer():
        with pytest.raises(LockTimeout):
            lock.acquire_write(timeout=0.1)

    writer = threading.Thread(target=doomed_writer)
    writer.start()
    # Give the writer time to queue, then line a reader up behind it.
    import time

    time.sleep(0.02)
    reader = threading.Thread(target=late_reader)
    reader.start()
    writer.join(timeout=5.0)
    assert got_read.wait(timeout=5.0), (
        "reader stayed wedged behind an abandoned writer"
    )
    reader.join(timeout=5.0)
    lock.release_read()


def test_fault_drill_all_pass():
    outcomes = run_fault_drill(entries=128)
    assert [o.fault for o in outcomes] == [
        "lock-timeout",
        "disk-flush-kill",
        "disk-compact-kill",
        "disk-torn-wal",
    ]
    assert all(o.passed for o in outcomes), [
        f"{o.fault}: {o.detail}" for o in outcomes if not o.passed
    ]


def test_fault_drill_kind_selection():
    outcomes = run_fault_drill(
        entries=64, kinds=["lock-timeout", "disk-torn-wal"]
    )
    assert [o.fault for o in outcomes] == [
        "lock-timeout",
        "disk-torn-wal",
    ]
    assert all(o.passed for o in outcomes), [
        f"{o.fault}: {o.detail}" for o in outcomes if not o.passed
    ]
    with pytest.raises(ValueError, match="unknown fault kind"):
        run_fault_drill(kinds=["no-such-fault"])


def test_disk_kill_drill_recovers_to_oracle():
    """A seeded SIGKILL inside the flush I/O leaves a directory that
    reopens validator-green with exactly the workload's contents."""
    (outcome,) = run_fault_drill(
        entries=96, kinds=["disk-flush-kill"]
    )
    assert outcome.passed, outcome.detail
    assert "child killed=True" in outcome.detail
    assert "contents==oracle=True" in outcome.detail
    # The flight-recorder tail carries the injection record with the
    # seeded offset and the phase's measured I/O volume.
    injected = [
        event
        for event in outcome.events
        if event[2] == "fault_injected"
        and event[3].get("fault") == "disk_flush_kill"
    ]
    assert injected, [event[2] for event in outcome.events]
    detail = injected[-1][3]
    assert 0 <= detail["offset"] < detail["volume"]
    assert detail["returncode"] < 0  # died by signal


def test_fault_drill_outcomes_carry_recorder_dumps():
    """Every drill scenario ships a flight-recorder tail, and the
    lock-timeout scenario's dump includes the injected fault."""
    from repro.obs import recorder as recorder_mod

    recorder_mod.clear()
    outcomes = {o.fault: o for o in run_fault_drill(entries=128)}
    for outcome in outcomes.values():
        assert outcome.events, outcome.fault
    camped = outcomes["lock-timeout"].events
    faults = [
        event
        for event in camped
        if event[2] == "fault_injected"
        and event[3].get("fault") == "slow_reader"
    ]
    assert faults, [event[2] for event in camped]
    assert faults[-1][3]["shard"] == 0
    # The rendered dump names the fault for the operator.
    assert "slow_reader" in recorder_mod.render_events(camped)
    # Disk drills carry their own black box: the torn-WAL outcome's
    # tail names both corruption injections.
    torn_faults = {
        event[3].get("fault")
        for event in outcomes["disk-torn-wal"].events
        if event[2] == "fault_injected"
    }
    assert {"torn_wal_truncate", "torn_wal_bitflip"} <= torn_faults
    recorder_mod.clear()
