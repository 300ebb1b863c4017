"""Serialisation round trips, determinism and the value codecs."""

from __future__ import annotations

import gc
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PHTree
from repro.core.frozen import freeze
from repro.core.serialize import (
    NoneValueCodec,
    U64ValueCodec,
    deserialize_tree,
    pack_bits,
    serialize_tree,
)
from repro.encoding.bitbuffer import BitReader


def random_tree(seed, n=300, dims=3, width=16, values=False):
    rng = random.Random(seed)
    tree = PHTree(dims=dims, width=width)
    for _ in range(n):
        key = tuple(rng.randrange(1 << width) for _ in range(dims))
        tree.put(key, rng.randrange(1 << 30) if values else None)
    return tree


class TestPackBits:
    """The stream-to-bytes step both formats share, read back through
    the same ``BitReader`` the decoders use."""

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=8))
    def test_round_trips_through_bit_reader(self, raw, pad):
        nbits = max(0, len(raw) * 8 - pad)
        data = int.from_bytes(raw, "big") >> (len(raw) * 8 - nbits)
        packed = pack_bits(data, nbits)
        assert len(packed) == (nbits + 7) // 8
        assert BitReader(packed, nbits).read(0, nbits) == data

    def test_padding_is_zero(self):
        assert pack_bits(0b111, 3) == bytes([0b11100000])
        assert pack_bits(0, 0) == b""

    def test_bit_reader_validates_length(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", 9)


class TestRoundTrip:
    def test_empty_tree(self):
        tree = PHTree(dims=4, width=32)
        data = serialize_tree(tree)
        rebuilt = deserialize_tree(data)
        assert len(rebuilt) == 0
        assert rebuilt.dims == 4
        assert rebuilt.width == 32

    def test_single_entry(self):
        tree = PHTree(dims=2, width=8)
        tree.put((3, 200))
        rebuilt = deserialize_tree(serialize_tree(tree))
        assert list(rebuilt.keys()) == [(3, 200)]
        rebuilt.check_invariants()

    @pytest.mark.parametrize("dims,width", [(1, 8), (2, 16), (3, 16),
                                            (5, 8), (2, 64)])
    def test_random_trees(self, dims, width):
        tree = random_tree(dims * 31 + width, dims=dims, width=width)
        rebuilt = deserialize_tree(serialize_tree(tree))
        assert sorted(rebuilt.keys()) == sorted(tree.keys())
        assert len(rebuilt) == len(tree)
        rebuilt.check_invariants()

    def test_rebuilt_tree_is_fully_functional(self):
        tree = random_tree(77)
        rebuilt = deserialize_tree(serialize_tree(tree))
        keys = list(rebuilt.keys())
        # Queries work.
        lo = tuple(min(k[d] for k in keys) for d in range(3))
        hi = tuple(max(k[d] for k in keys) for d in range(3))
        assert sorted(k for k, _ in rebuilt.query(lo, hi)) == sorted(keys)
        # Mutations work.
        rebuilt.remove(keys[0])
        rebuilt.put((1, 2, 3))
        rebuilt.check_invariants()

    def test_reserialization_is_identical(self):
        tree = random_tree(5)
        data = serialize_tree(tree)
        assert serialize_tree(deserialize_tree(data)) == data


class TestDeterminism:
    def test_same_keys_same_bytes(self):
        tree_a = random_tree(9)
        keys = list(tree_a.keys())
        random.Random(1).shuffle(keys)
        tree_b = PHTree(dims=3, width=16)
        for key in keys:
            tree_b.put(key)
        assert serialize_tree(tree_a) == serialize_tree(tree_b)

    def test_different_keys_different_bytes(self):
        tree_a = random_tree(9)
        tree_b = random_tree(10)
        assert serialize_tree(tree_a) != serialize_tree(tree_b)


class TestValueCodecs:
    def test_none_codec_rejects_values(self):
        tree = PHTree(dims=1, width=8)
        tree.put((1,), "a value")
        with pytest.raises(ValueError):
            serialize_tree(tree, NoneValueCodec)

    def test_u64_codec_round_trip(self):
        tree = random_tree(12, values=True)
        data = serialize_tree(tree, U64ValueCodec)
        rebuilt = deserialize_tree(data, U64ValueCodec)
        assert dict(rebuilt.items()) == dict(tree.items())

    def test_u64_codec_validates(self):
        tree = PHTree(dims=1, width=8)
        tree.put((1,), "not an int")
        with pytest.raises(ValueError):
            serialize_tree(tree, U64ValueCodec)
        tree2 = PHTree(dims=1, width=8)
        tree2.put((1,), 1 << 64)
        with pytest.raises(ValueError):
            serialize_tree(tree2, U64ValueCodec)


class TestFormatValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_tree(b"NOPE" + b"\x00" * 32)

    def test_truncation_detected(self):
        tree = random_tree(3)
        data = serialize_tree(tree)
        with pytest.raises(ValueError):
            deserialize_tree(data[: len(data) // 2])

    @staticmethod
    def _small_stream():
        rng = random.Random(50)
        tree = PHTree(dims=2, width=16)
        while len(tree) < 50:
            tree.put(
                (rng.randrange(1 << 16), rng.randrange(1 << 16)),
                rng.randrange(1 << 64),
            )
        return serialize_tree(tree, U64ValueCodec)

    def test_header_size_mismatch_rejected(self):
        data = bytearray(self._small_stream())
        assert data[8:16] == (50).to_bytes(8, "big")
        data[8:16] = (49).to_bytes(8, "big")
        with pytest.raises(ValueError, match="header size 49"):
            deserialize_tree(bytes(data), U64ValueCodec)

    def test_single_bit_flips_never_load_a_broken_tree(self):
        """Every single-bit flip either raises ValueError or decodes to
        a tree that passes its invariants and whose size matches its
        items.  (A flip that decodes to a different valid tree needs a
        checksum to catch, which this format does not carry.)"""
        data = self._small_stream()
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            try:
                tree = deserialize_tree(bytes(flipped), U64ValueCodec)
            except ValueError:
                continue
            tree.check_invariants()
            assert len(tree) == sum(1 for _ in tree.items()), bit

    @staticmethod
    def _tampered_stream(tamper):
        """Serialise a 3-key object tree -- root entry at address 1, a
        two-entry sub-node at address 0 -- after ``tamper`` edits its
        graph into a shape the tree itself never produces."""
        tree = PHTree(dims=1, width=8, layout="object")
        for key in (0b0000_0000, 0b0000_0001, 0b1000_0000):
            tree.put((key,))
        tamper(tree)
        return serialize_tree(tree)

    def test_single_slot_sub_node_rejected(self):
        def drop_one(tree):
            child = tree.root.get_slot(0)
            child.container.remove(1)
            child._n_post -= 1
            tree._size -= 1

        with pytest.raises(ValueError, match="sub-node with 1 slots"):
            deserialize_tree(self._tampered_stream(drop_one))

    def test_unsorted_addresses_rejected(self):
        def swap(tree):
            root = tree.root.container
            root._addresses.reverse()
            root._slots.reverse()

        with pytest.raises(ValueError, match="unsorted slot addresses"):
            deserialize_tree(self._tampered_stream(swap))

    def test_compactness(self):
        """The serialised image must beat the naive k*8*n layout for data
        with shared prefixes (the whole point of Section 3.4)."""
        rng = random.Random(4)
        tree = PHTree(dims=3, width=64)
        n = 500
        # Clustered data: top 40 bits shared.
        base = (1 << 40) - 1
        for _ in range(n):
            tree.put(
                tuple(
                    (0xABCDE << 44) | rng.randrange(1 << 20)
                    for _ in range(3)
                )
            )
        data = serialize_tree(tree)
        naive = len(tree) * 3 * 8
        assert len(data) < naive


class TestLinearScaling:
    """Writer and reader are linear in the stream: 4x the keys may cost
    at most 6x the time (linear measures ~4-4.5x, a quadratic path
    ~12-16x).  Best of five interleaved runs, with the cyclic collector
    paused inside each timed call so a collection that happens to land
    in one run does not count as scaling."""

    N = 2000
    RUNS = 5
    MAX_RATIO = 6.0

    @staticmethod
    def _tree(n, layout=None):
        rng = random.Random(n)
        tree = PHTree(dims=3, width=16, layout=layout)
        for i in range(n):
            tree.put(tuple(rng.randrange(1 << 16) for _ in range(3)), i)
        return tree

    @staticmethod
    def _timed(fn):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def _ratio(self, fn, arg_of):
        small = arg_of(self.N)
        large = arg_of(4 * self.N)
        # Interleaved, so a change in host speed hits both sizes alike.
        small_s, large_s = [], []
        for _ in range(self.RUNS):
            small_s.append(self._timed(lambda: fn(small)))
            large_s.append(self._timed(lambda: fn(large)))
        return min(large_s) / min(small_s)

    def test_serialize_tree(self):
        ratio = self._ratio(
            lambda tree: serialize_tree(tree, U64ValueCodec), self._tree
        )
        assert ratio <= self.MAX_RATIO, ratio

    def test_deserialize_tree(self):
        ratio = self._ratio(
            lambda data: deserialize_tree(data, U64ValueCodec),
            lambda n: serialize_tree(self._tree(n), U64ValueCodec),
        )
        assert ratio <= self.MAX_RATIO, ratio

    def test_freeze_object_layout(self):
        ratio = self._ratio(
            lambda tree: freeze(tree, U64ValueCodec),
            lambda n: self._tree(n, layout="object"),
        )
        assert ratio <= self.MAX_RATIO, ratio
