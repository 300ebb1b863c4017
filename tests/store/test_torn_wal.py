"""Torn-WAL corpus: recovery replays the longest valid prefix, and
refuses mid-log damage.

One deterministic store is built with its first half flushed into
segments and its second half WAL-only.  The corpus then corrupts the
WAL every way a crash or silent disk error can -- truncation at every
frame boundary, truncation inside every frame (header and payload),
and bit-flips across the CRC-covered regions.  Damage confined to the
final frame is a torn tail: recovery must be validator-green with
contents equal to an exact op-stream prefix at or past the flushed
half.  Damage with valid records after it must raise
:class:`StoreCorruption` and leave the WAL's bytes as they were --
never a validator-red store, never invented data, never a silent drop
of acknowledged writes.
"""

from __future__ import annotations

import os
import shutil
import struct

import pytest

from repro.check.validate import validate_tree
from repro.core.serialize import U64ValueCodec
from repro.store.drill import build_ops, prefix_states
from repro.store.engine import DurablePHTree, StoreCorruption
from repro.store.manifest import load_manifest

DIMS, WIDTH, ENTRIES, SEED = 2, 16, 64, 11
HALF = ENTRIES // 2

OPS = build_ops(DIMS, WIDTH, ENTRIES, SEED)
STATES = prefix_states(DIMS, WIDTH, ENTRIES, SEED)


@pytest.fixture(scope="module")
def base_store(tmp_path_factory):
    """The half-flushed store plus its live WAL's frame boundaries."""
    base = str(tmp_path_factory.mktemp("torn-base") / "db")
    store = DurablePHTree.open(
        base,
        dims=DIMS,
        width=WIDTH,
        shards=4,
        value_codec=U64ValueCodec,
        learned=True,
    )
    for i, (op, key, value) in enumerate(OPS):
        if op == "put":
            store.put(key, value)
        else:
            store.remove(key, None)
        if i == HALF - 1:
            store.flush()
    store.close()
    manifest = load_manifest(base)
    wal_path = os.path.join(base, manifest.wal)
    data = open(wal_path, "rb").read()
    # Frame boundaries: byte offset after each whole frame.
    boundaries = [0]
    pos = 0
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 8 + length
        boundaries.append(pos)
    assert boundaries[-1] == len(data), "base WAL must be clean"
    assert len(boundaries) == ENTRIES - HALF + 1
    return base, manifest.wal, data, boundaries


def _install(base: str, wal_name: str, blob: bytes, tmp_path) -> str:
    """Clone the base store and install the corrupted WAL."""
    work = str(tmp_path / "db")
    shutil.copytree(base, work)
    with open(os.path.join(work, wal_name), "wb") as f:
        f.write(blob)
    return work


def _recover(base: str, wal_name: str, blob: bytes, tmp_path) -> dict:
    """Clone the base store, install the corrupted WAL, reopen."""
    work = _install(base, wal_name, blob, tmp_path)
    store = DurablePHTree.open(work, value_codec=U64ValueCodec)
    try:
        validate_tree(store)
        return dict(store.items())
    finally:
        store.close()


def test_truncation_at_every_frame_boundary(base_store, tmp_path):
    base, wal_name, data, boundaries = base_store
    for i, cut in enumerate(boundaries):
        contents = _recover(
            base, wal_name, data[:cut], tmp_path / f"b{i}"
        )
        # Exactly the flushed half plus i replayed WAL records.
        assert contents == STATES[HALF + i], f"boundary {i} (cut {cut})"


def test_truncation_inside_every_frame(base_store, tmp_path):
    base, wal_name, data, boundaries = base_store
    for i, start in enumerate(boundaries[:-1]):
        end = boundaries[i + 1]
        # Mid-header and mid-payload tears of frame i.
        for tag, cut in (("hdr", start + 3), ("pay", (start + end) // 2)):
            contents = _recover(
                base, wal_name, data[:cut], tmp_path / f"f{i}{tag}"
            )
            assert contents == STATES[HALF + i], (
                f"frame {i} torn at {cut} ({tag})"
            )


def test_bitflips_across_crc_covered_regions(base_store, tmp_path):
    base, wal_name, data, boundaries = base_store
    final_start = boundaries[-2]
    step = max(1, len(data) // 24)
    positions = list(range(0, len(data), step))
    # Every byte class of the final frame: header, payload, last byte.
    positions += [final_start, final_start + 4, final_start + 9,
                  len(data) - 1]
    for n, pos in enumerate(sorted(set(positions))):
        blob = bytearray(data)
        blob[pos] ^= 0x10
        if pos >= final_start:
            # A torn tail: only the damaged final record is dropped.
            contents = _recover(
                base, wal_name, bytes(blob), tmp_path / f"x{n}"
            )
            assert contents == STATES[len(boundaries) - 2 + HALF], (
                f"bit-flip at byte {pos}"
            )
            continue
        # Valid, acknowledged records follow the damage: refuse, and
        # leave the file exactly as found.
        work = _install(base, wal_name, bytes(blob), tmp_path / f"x{n}")
        with pytest.raises(StoreCorruption):
            DurablePHTree.open(work, value_codec=U64ValueCodec)
        with open(os.path.join(work, wal_name), "rb") as f:
            assert f.read() == bytes(blob), f"bit-flip at byte {pos}"


def test_mid_log_bitflip_refuses_and_keeps_the_wal(tmp_path):
    """1,000 group-committed records; one bit flipped at byte 200 of the
    WAL.  Open must raise StoreCorruption instead of truncating the 990-
    odd acknowledged records behind the damage."""
    path = str(tmp_path / "db")
    store = DurablePHTree.open(
        path, dims=3, width=16, value_codec=U64ValueCodec
    )
    store.put_all([((i, i * 7 % 65536, i * 13 % 65536), i)
                   for i in range(1000)])
    store.close()
    wal_path = os.path.join(path, "wal-00000000.log")
    blob = bytearray(open(wal_path, "rb").read())
    blob[200] ^= 0x01
    with open(wal_path, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(StoreCorruption, match="byte"):
        DurablePHTree.open(path, value_codec=U64ValueCodec)
    assert os.path.getsize(wal_path) == len(blob)
    assert open(wal_path, "rb").read() == bytes(blob)
    # Restoring the byte restores every record.
    blob[200] ^= 0x01
    with open(wal_path, "wb") as f:
        f.write(bytes(blob))
    store = DurablePHTree.open(path, value_codec=U64ValueCodec)
    try:
        assert len(store) == 1000
    finally:
        store.close()


def test_garbage_wal_recovers_to_flushed_half(base_store, tmp_path):
    base, wal_name, data, _ = base_store
    noise = bytes((i * 131 + 7) % 256 for i in range(len(data)))
    contents = _recover(base, wal_name, noise, tmp_path / "noise")
    assert contents == STATES[HALF]
