"""Append-only write-ahead log with CRC framing and torn-tail repair.

Layout: a WAL file is a plain concatenation of frames, each

    [length: u32 LE] [crc32(payload): u32 LE] [payload: length bytes]

Appends are *group-committed*: a batch of payloads is framed into one
buffer, handed to the kernel in a single :func:`repro.store.io.write`,
and made durable with a single fsync.  Recovery scans frames from the
start and keeps the longest valid prefix: the scan stops at the first
frame whose header overruns the file, whose length is implausible, or
whose CRC does not match.  That invalid frame is a *torn tail* -- what
a crash mid-append leaves behind -- only when no valid frame continuing
the record sequence follows it; the tail is then truncated away so the
next append extends a clean prefix.  A damaged frame with valid,
acknowledged records after it is corruption, not a crash: the scan
raises :class:`~repro.store.io.StoreCorruption` and the file is left
untouched.

Payloads belong to the engine; this module also hosts their codec so
the drill driver and tests can speak it: a mutation record is

    [seq: u64 LE] [op: u8] [body]

with ``op`` one of PUT (key + value), DEL (key), UPD (old key + new
key); coordinates and values are fixed-width little-endian integers
sized from the tree's bit width and value codec.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.store import io as store_io
from repro.store.io import StoreCorruption

__all__ = [
    "OP_DEL",
    "OP_PUT",
    "OP_UPD",
    "RecordCodec",
    "StoreCorruption",
    "WalRecord",
    "WriteAheadLog",
    "scan_frames",
]

_FRAME = struct.Struct("<II")
_FRAME_SIZE = _FRAME.size

#: Defensive ceiling on a single payload; a frame longer than this is
#: treated as tail corruption, not a record.
MAX_PAYLOAD = 1 << 28

OP_PUT = 1
OP_DEL = 2
OP_UPD = 3

_SEQ_OP = struct.Struct("<QB")
_SEQ = struct.Struct("<Q")


def frame(payload: bytes) -> bytes:
    """Wrap one payload in its length+CRC header."""
    if not payload:
        raise ValueError("empty WAL payload")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"WAL payload too large: {len(payload)} bytes")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _frame_at(data: bytes, pos: int) -> Optional[bytes]:
    """The payload of the valid frame starting at ``pos``, else None."""
    if pos + _FRAME_SIZE > len(data):
        return None
    length, crc = _FRAME.unpack_from(data, pos)
    end = pos + _FRAME_SIZE + length
    if length == 0 or length > MAX_PAYLOAD or end > len(data):
        return None
    payload = bytes(data[pos + _FRAME_SIZE : end])
    return payload if zlib.crc32(payload) == crc else None


def _seq_of(payload: bytes) -> int:
    """The record sequence number a payload starts with (-1 when the
    payload is too short to carry one)."""
    return _SEQ.unpack_from(payload)[0] if len(payload) >= _SEQ.size else -1


def scan_frames(data: bytes) -> Tuple[List[bytes], int]:
    """Decode the longest valid frame prefix of ``data``.

    Returns ``(payloads, valid_end)`` where ``valid_end`` is the byte
    offset the valid prefix ends at; everything past it is a torn tail
    and must be discarded.

    Raises :class:`~repro.store.io.StoreCorruption` when a valid frame
    whose sequence number continues past the prefix's last one starts
    anywhere after ``valid_end``: the invalid frame then sits in the
    middle of acknowledged records, and truncating would drop them.
    """
    payloads: List[bytes] = []
    pos = 0
    while True:
        payload = _frame_at(data, pos)
        if payload is None:
            break
        payloads.append(payload)
        pos += _FRAME_SIZE + len(payload)
    last_seq = _seq_of(payloads[-1]) if payloads else -1
    for start in range(pos + 1, len(data) - _FRAME_SIZE):
        later = _frame_at(data, start)
        if later is not None and _seq_of(later) > last_seq:
            raise StoreCorruption(
                f"WAL frame at byte {pos} is damaged but a valid record "
                f"(seq {_seq_of(later)}) follows at byte {start}; "
                f"refusing to truncate acknowledged writes"
            )
    return payloads, pos


class WalRecord:
    """A decoded mutation: ``seq``, ``op`` and the op's key payload."""

    __slots__ = ("seq", "op", "key", "value", "new_key")

    def __init__(self, seq, op, key, value=None, new_key=None):
        self.seq = seq
        self.op = op
        self.key = key
        self.value = value
        self.new_key = new_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = {OP_PUT: "PUT", OP_DEL: "DEL", OP_UPD: "UPD"}.get(
            self.op, self.op
        )
        return f"WalRecord({self.seq}, {name}, {self.key})"


class RecordCodec:
    """Fixed-width binary codec for mutation payloads."""

    def __init__(self, dims: int, width: int, value_bits: int) -> None:
        self.dims = dims
        self.key_bytes = (width + 7) // 8
        self.value_bytes = (value_bits + 7) // 8

    def _pack_key(self, key: Sequence[int]) -> bytes:
        kb = self.key_bytes
        return b"".join(int(v).to_bytes(kb, "little") for v in key)

    def _unpack_key(self, data: bytes, pos: int) -> Tuple[Tuple[int, ...], int]:
        kb = self.key_bytes
        key = tuple(
            int.from_bytes(data[pos + i * kb : pos + (i + 1) * kb], "little")
            for i in range(self.dims)
        )
        return key, pos + self.dims * kb

    def encode_put(self, seq: int, key: Sequence[int], raw_value: int) -> bytes:
        return (
            _SEQ_OP.pack(seq, OP_PUT)
            + self._pack_key(key)
            + int(raw_value).to_bytes(self.value_bytes, "little")
        )

    def encode_del(self, seq: int, key: Sequence[int]) -> bytes:
        return _SEQ_OP.pack(seq, OP_DEL) + self._pack_key(key)

    def encode_update(
        self, seq: int, old_key: Sequence[int], new_key: Sequence[int]
    ) -> bytes:
        return (
            _SEQ_OP.pack(seq, OP_UPD)
            + self._pack_key(old_key)
            + self._pack_key(new_key)
        )

    def decode(self, payload: bytes) -> WalRecord:
        seq, op = _SEQ_OP.unpack_from(payload, 0)
        pos = _SEQ_OP.size
        key, pos = self._unpack_key(payload, pos)
        if op == OP_PUT:
            raw = int.from_bytes(
                payload[pos : pos + self.value_bytes], "little"
            )
            if pos + self.value_bytes != len(payload):
                raise ValueError("trailing bytes in PUT record")
            return WalRecord(seq, op, key, value=raw)
        if op == OP_DEL:
            if pos != len(payload):
                raise ValueError("trailing bytes in DEL record")
            return WalRecord(seq, op, key)
        if op == OP_UPD:
            new_key, pos = self._unpack_key(payload, pos)
            if pos != len(payload):
                raise ValueError("trailing bytes in UPD record")
            return WalRecord(seq, op, key, new_key=new_key)
        raise ValueError(f"unknown WAL op {op}")


class WriteAheadLog:
    """One open WAL file; all writes go through :mod:`repro.store.io`."""

    def __init__(self, path: str, fd: int, size: int) -> None:
        self.path = path
        self._fd: Optional[int] = fd
        self.size = size

    @classmethod
    def create(cls, path: str) -> "WriteAheadLog":
        """Create (or truncate) a fresh, durable, empty log.

        Charged I/O: the file must exist on disk before a manifest
        that references it is swapped in.
        """
        fd = store_io.open_fresh(path)
        store_io.fsync(fd)
        return cls(path, fd, 0)

    @classmethod
    def open(cls, path: str) -> Tuple["WriteAheadLog", List[bytes], int]:
        """Open an existing log for recovery.

        Returns ``(wal, payloads, torn_bytes)``: the decoded longest
        valid prefix and how many trailing bytes were discarded.  The
        torn tail is truncated off so subsequent appends are clean.
        Mid-log damage raises :class:`~repro.store.io.StoreCorruption`
        (see :func:`scan_frames`) before the file is opened for writing.
        Reads and the repair truncation are recovery-side operations on
        already-durable state and bypass crash accounting.
        """
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            wal = cls.create(path)
            return wal, [], 0
        payloads, valid_end = scan_frames(data)
        torn = len(data) - valid_end
        fd = os.open(path, os.O_WRONLY)
        if torn:
            os.ftruncate(fd, valid_end)
            os.fsync(fd)
        os.lseek(fd, valid_end, os.SEEK_SET)
        return cls(path, fd, valid_end), payloads, torn

    def append(self, payloads: Iterable[bytes], sync: bool = True) -> int:
        """Group-commit ``payloads``: one write, one fsync."""
        if self._fd is None:
            raise ValueError("WAL is closed")
        blob = b"".join(frame(p) for p in payloads)
        if not blob:
            return 0
        store_io.write(self._fd, blob)
        if sync:
            store_io.fsync(self._fd)
        self.size += len(blob)
        return len(blob)

    def sync(self) -> None:
        if self._fd is not None:
            store_io.fsync(self._fd)

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
