"""The ``store`` verb: the durable WAL+segment store from the CLI."""

from __future__ import annotations

import random

import pytest

from repro.tool.cli import main


@pytest.fixture
def csv_file(tmp_path):
    rng = random.Random(21)
    path = tmp_path / "points.csv"
    rows = ["x,y"]
    for _ in range(200):
        rows.append(
            f"{rng.uniform(-5, 5):.6f},{rng.uniform(-5, 5):.6f}"
        )
    path.write_text("\n".join(rows) + "\n")
    return path


def test_store_requires_an_action(tmp_path, capsys):
    rc = main(["store", str(tmp_path / "db")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "nothing to do" in captured.err


def test_store_ingest_needs_columns(tmp_path, csv_file, capsys):
    rc = main(
        ["store", str(tmp_path / "db"), "--ingest", str(csv_file)]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "--columns" in captured.err


def test_store_stats_on_missing_dir_is_an_error(tmp_path, capsys):
    rc = main(["store", str(tmp_path / "db"), "--stats"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "no manifest" in captured.err


def test_store_ingest_query_compact_stats(tmp_path, csv_file, capsys):
    db = str(tmp_path / "db")
    rc = main(
        [
            "store",
            db,
            "--ingest",
            str(csv_file),
            "-c",
            "x,y",
            "--learned",
            "--stats",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "ingested 200 row(s)" in captured.out
    assert "created fresh" in captured.out
    assert "(learned segments)" in captured.out

    # Reopen the same directory: recovery, a window query, compaction.
    rc = main(
        [
            "store",
            db,
            "--compact",
            "--query",
            "-5,-5 : 5,5",
            "--limit",
            "5",
            "--stats",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "compacted chain" in captured.out
    assert "200 point(s) in box" in captured.err
    assert "entries:        200" in captured.out


def test_store_survives_reopen_with_wal_tail(tmp_path, csv_file, capsys):
    """Rows ingested but never flushed (simulated by a direct put) are
    replayed from the WAL on the next CLI invocation."""
    from repro.core.serialize import U64ValueCodec
    from repro.store import DurablePHTree

    db = str(tmp_path / "db")
    assert (
        main(
            ["store", db, "--ingest", str(csv_file), "-c", "x,y"]
        )
        == 0
    )
    capsys.readouterr()
    with DurablePHTree.open(db, value_codec=U64ValueCodec) as store:
        store.put((1, 2), 999)  # WAL-only tail

    rc = main(["store", db, "--stats"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "entries:        201" in captured.out
    assert "replayed 1 WAL record(s)" in captured.out


def test_store_opens_a_valueless_library_store(tmp_path, capsys):
    """A store created through the library with the default
    NoneValueCodec opens under the verb: the codec comes from the
    manifest, not from the verb's row-number codec."""
    from repro.store import DurablePHTree

    db = str(tmp_path / "db")
    with DurablePHTree.open(db, dims=2) as store:
        for i in range(50):
            store.put((i, 3 * i))

    rc = main(["store", db, "--stats"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "entries:        50" in captured.out
