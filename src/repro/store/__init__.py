"""Durable storage engine: WAL + frozen segment store (DESIGN.md §14).

:class:`DurablePHTree` persists a (sharded) PH-tree in a directory --
an append-only CRC-framed write-ahead log for mutations, immutable
mmap-attached segment files holding verbatim ``freeze()`` streams
(learned ``PHL1`` trailers included), and an atomically rename-swapped
manifest naming what is live.  Crash recovery replays the longest
valid WAL prefix onto the newest committed segment chain (a damaged
record with acknowledged records after it raises
:class:`StoreCorruption` instead); the fault
drills in :mod:`repro.check.faults` and ``tests/store/`` prove the
contract at seeded byte offsets via :mod:`repro.store.io`.
"""

from repro.store.engine import DurablePHTree, StoreCorruption, StoreError
from repro.store.io import SimulatedCrash
from repro.store.manifest import Manifest, SegmentRecord
from repro.store.wal import RecordCodec, WriteAheadLog

__all__ = [
    "DurablePHTree",
    "Manifest",
    "RecordCodec",
    "SegmentRecord",
    "SimulatedCrash",
    "StoreCorruption",
    "StoreError",
    "WriteAheadLog",
]
