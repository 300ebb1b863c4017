"""Index-file container for the CSV tool.

Layout: ``PHIX`` magic, a 4-byte big-endian JSON-metadata length, the
UTF-8 JSON metadata (column names, row counts), then the serialised
PH-tree (see :mod:`repro.core.serialize`).  Values stored with each point
are the 1-based CSV row numbers (u64), so query results can point back
into the source file.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.phtree import PHTree
from repro.core.serialize import (
    U64ValueCodec,
    deserialize_tree,
    serialize_tree,
)

__all__ = ["IndexFile", "load_index", "save_index"]

_MAGIC = b"PHIX"


class IndexFile:
    """An on-disk PH-tree index plus its metadata."""

    def __init__(
        self,
        tree: PHTree,
        columns: List[str],
        source: str,
        n_rows: int,
        n_duplicates: int,
    ) -> None:
        self.tree = tree
        self.columns = columns
        self.source = source
        self.n_rows = n_rows
        self.n_duplicates = n_duplicates

    @property
    def dims(self) -> int:
        """Number of indexed columns."""
        return len(self.columns)


def save_index(index: IndexFile, path: Path) -> int:
    """Write the index container; returns the byte size."""
    metadata = json.dumps(
        {
            "columns": index.columns,
            "source": index.source,
            "n_rows": index.n_rows,
            "n_duplicates": index.n_duplicates,
        }
    ).encode("utf-8")
    tree_bytes = serialize_tree(index.tree, U64ValueCodec)
    payload = (
        _MAGIC + struct.pack(">I", len(metadata)) + metadata + tree_bytes
    )
    path.write_bytes(payload)
    return len(payload)


def load_index(path: Path) -> IndexFile:
    """Read an index container written by :func:`save_index`; a file
    that is not one raises ``ValueError``."""
    data = path.read_bytes()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path} is not a PH-tree index file")
    offset = len(_MAGIC)
    try:
        (metadata_len,) = struct.unpack_from(">I", data, offset)
        offset += 4
        metadata: Dict = json.loads(
            data[offset:offset + metadata_len].decode("utf-8")
        )
        columns = list(metadata["columns"])
        source = str(metadata["source"])
        n_rows = int(metadata["n_rows"])
        n_duplicates = int(metadata["n_duplicates"])
    except (struct.error, KeyError, TypeError) as exc:
        # JSON and UTF-8 decode errors are ValueErrors already.
        raise ValueError(f"{path}: malformed index file: {exc!r}") from None
    offset += metadata_len
    tree = deserialize_tree(data[offset:], U64ValueCodec)
    return IndexFile(tree, columns, source, n_rows, n_duplicates)
