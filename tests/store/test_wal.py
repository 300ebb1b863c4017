"""WAL framing, the mutation-record codec, and torn-tail repair."""

from __future__ import annotations

import os
import struct
import zlib

import pytest

from repro.store.wal import (
    OP_DEL,
    OP_PUT,
    OP_UPD,
    RecordCodec,
    StoreCorruption,
    WriteAheadLog,
    frame,
    scan_frames,
)


def test_frame_roundtrip_single():
    payload = b"hello, wal"
    blob = frame(payload)
    length, crc = struct.unpack_from("<II", blob, 0)
    assert length == len(payload)
    assert crc == zlib.crc32(payload)
    payloads, end = scan_frames(blob)
    assert payloads == [payload]
    assert end == len(blob)


def test_frame_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        frame(b"")
    from repro.store import wal as wal_mod

    huge = bytearray(struct.pack("<II", wal_mod.MAX_PAYLOAD + 1, 0))
    payloads, end = scan_frames(bytes(huge) + b"\x00" * 16)
    assert payloads == [] and end == 0


def test_scan_stops_at_torn_header_and_torn_payload():
    a, b = frame(b"alpha"), frame(b"bravo")
    blob = a + b
    # Every truncation point keeps only the frames wholly before it.
    for cut in range(len(blob) + 1):
        payloads, end = scan_frames(blob[:cut])
        if cut < len(a):
            assert payloads == [] and end == 0
        elif cut < len(blob):
            assert payloads == [b"alpha"] and end == len(a)
        else:
            assert payloads == [b"alpha", b"bravo"]


def test_scan_stops_at_crc_mismatch():
    blob = bytearray(frame(b"alpha") + frame(b"bravo"))
    # Flip a payload bit of the second frame.
    blob[len(frame(b"alpha")) + 8] ^= 0x01
    payloads, end = scan_frames(bytes(blob))
    assert payloads == [b"alpha"]
    assert end == len(frame(b"alpha"))


def test_scan_raises_on_damage_before_valid_records():
    codec = RecordCodec(dims=2, width=16, value_bits=64)
    frames = [frame(codec.encode_put(seq, (seq, seq), seq)) for seq in (1, 2, 3)]
    clean = b"".join(frames)
    for pos in range(len(frames[0]) + len(frames[1])):
        blob = bytearray(clean)
        blob[pos] ^= 0x04
        with pytest.raises(StoreCorruption):
            scan_frames(bytes(blob))
    # Damage in the final frame is still a torn tail.
    blob = bytearray(clean)
    blob[-1] ^= 0x04
    payloads, end = scan_frames(bytes(blob))
    assert len(payloads) == 2 and end == len(frames[0]) + len(frames[1])


def test_scan_ignores_stale_sequence_after_damage():
    """A valid frame whose seq does not continue the log (not above the
    last good record) is no evidence of lost writes."""
    codec = RecordCodec(dims=2, width=16, value_bits=64)
    good = frame(codec.encode_put(5, (1, 1), 1))
    stale = frame(codec.encode_put(4, (2, 2), 2))
    damaged = bytearray(frame(codec.encode_put(6, (3, 3), 3)))
    damaged[-1] ^= 0x01
    payloads, end = scan_frames(good + bytes(damaged) + stale)
    assert len(payloads) == 1 and end == len(good)


def test_open_leaves_mid_log_damage_untouched(tmp_path):
    path = str(tmp_path / "wal.log")
    codec = RecordCodec(dims=2, width=16, value_bits=64)
    wal = WriteAheadLog.create(path)
    wal.append([codec.encode_put(seq, (seq, 0), seq) for seq in (1, 2, 3)])
    wal.close()
    blob = bytearray(open(path, "rb").read())
    blob[10] ^= 0x20
    with open(path, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(StoreCorruption):
        WriteAheadLog.open(path)
    assert open(path, "rb").read() == bytes(blob)


def test_record_codec_roundtrip():
    codec = RecordCodec(dims=3, width=16, value_bits=64)
    put = codec.decode(codec.encode_put(7, (1, 2, 3), 0xDEADBEEF))
    assert (put.seq, put.op, put.key, put.value) == (
        7,
        OP_PUT,
        (1, 2, 3),
        0xDEADBEEF,
    )
    dele = codec.decode(codec.encode_del(8, (4, 5, 6)))
    assert (dele.seq, dele.op, dele.key) == (8, OP_DEL, (4, 5, 6))
    upd = codec.decode(codec.encode_update(9, (1, 2, 3), (9, 9, 9)))
    assert (upd.seq, upd.op, upd.key, upd.new_key) == (
        9,
        OP_UPD,
        (1, 2, 3),
        (9, 9, 9),
    )


def test_record_codec_rejects_trailing_bytes_and_unknown_op():
    codec = RecordCodec(dims=2, width=16, value_bits=0)
    good = codec.encode_del(1, (10, 20))
    with pytest.raises(ValueError):
        codec.decode(good + b"\x00")
    bad_op = bytearray(good)
    bad_op[8] = 99
    with pytest.raises(ValueError):
        codec.decode(bytes(bad_op))


def test_group_append_then_reopen(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog.create(path)
    wrote = wal.append([b"one", b"two", b"three"])
    assert wrote == wal.size
    wal.close()
    assert wal.closed
    reopened, payloads, torn = WriteAheadLog.open(path)
    assert payloads == [b"one", b"two", b"three"]
    assert torn == 0
    # Appending after recovery extends the clean prefix.
    reopened.append([b"four"])
    reopened.close()
    _, payloads, _ = WriteAheadLog.open(path)
    assert payloads == [b"one", b"two", b"three", b"four"]


def test_reopen_truncates_torn_tail(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog.create(path)
    wal.append([b"alpha", b"bravo"])
    wal.close()
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 3)  # tear the last frame
    reopened, payloads, torn = WriteAheadLog.open(path)
    assert payloads == [b"alpha"]
    assert torn == len(frame(b"bravo")) - 3
    reopened.close()
    # The repair really truncated the file on disk.
    assert os.path.getsize(path) == len(frame(b"alpha"))


def test_open_missing_file_creates_empty(tmp_path):
    path = str(tmp_path / "absent.log")
    wal, payloads, torn = WriteAheadLog.open(path)
    assert payloads == [] and torn == 0
    assert os.path.exists(path)
    wal.close()


def test_append_on_closed_wal_raises(tmp_path):
    wal = WriteAheadLog.create(str(tmp_path / "wal.log"))
    wal.close()
    with pytest.raises(ValueError):
        wal.append([b"x"])
