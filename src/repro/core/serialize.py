"""Bit-stream serialisation of PH-trees (paper Section 3.4, reference [9]).

The PH-tree serialises "most of the data of each node into a single
bit-string": values occupy exactly the number of bits they need, prefixes
are shared, postfixes are truncated to their real length.  This module
implements that layout for whole trees -- nodes are written depth-first,
each as::

    [post_len: 8] [infix bits: infix_len * k] [repr flag: 1]
    [slot count: k+1] ( [address: k] [type: 1] [payload] )*

where an entry payload is ``post_len * k`` postfix bits plus the value
codec's bits, and a sub-node payload is the recursively embedded child.

Because slots are written in ascending address order and the tree's
structure is determined only by its key set, two trees holding the same
keys serialise to identical bytes regardless of their construction history
-- the test suite uses this as the order-independence oracle.

Both directions are linear in the stream: :func:`emit_node`, the one
writer of ``PHT1`` and object-layout ``PHF1``, builds each node bottom-up
as an ``(int, bit_length)`` pair, and :func:`deserialize_tree` reads
through :class:`~repro.encoding.bitbuffer.BitReader`, O(field) per read.

Three magic numbers share this byte-stream family:

- ``PHT1`` (this module): mutable-tree round-trip via
  :func:`serialize_tree` / :func:`deserialize_tree`,
- ``PHF1`` (:mod:`repro.core.frozen`): the same node layout behind a
  read-only header, queried in place without materialising nodes,
- ``PHL1`` (:mod:`repro.learned.index`): an *optional* learned-index
  trailer appended after the ``PHF1`` payload (zero-padded to an 8-byte
  boundary).  ``freeze(..., learned=True)`` writes it;
  ``FrozenPHTree`` attaches it zero-copy when present and ignores it
  otherwise, so a ``PHF1`` stream with a trailer is still a valid plain
  frozen stream to older readers -- the header's bit length bounds the
  payload, and anything past it is opt-in.

Value codecs (:class:`NoneValueCodec`, :class:`U64ValueCodec`) are shared
across all three: the codec's ``bits`` contract is what lets the frozen
reader and the learned trailer's value-position array skip entries
without decoding them.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.core.hypercube import HCContainer, LHCContainer
from repro.core.node import Entry, Node
from repro.core.phtree import PHTree
from repro.encoding.bitbuffer import BitReader

__all__ = [
    "NoneValueCodec",
    "U64ValueCodec",
    "deserialize_tree",
    "serialize_tree",
]

_MAGIC = b"PHT1"
_LEN_BITS = 32


class NoneValueCodec:
    """Codec for set semantics: all values must be None, zero bits used."""

    bits = 0

    @staticmethod
    def encode(value: Any) -> int:
        """Validate that the value is None; contributes zero bits."""
        if value is not None:
            raise ValueError(
                "NoneValueCodec can only serialise None values; "
                "pass a value codec matching your payload"
            )
        return 0

    @staticmethod
    def decode(raw: int) -> Any:
        """All values decode to None under set semantics."""
        return None


class U64ValueCodec:
    """Codec for unsigned 64-bit integer values."""

    bits = 64

    @staticmethod
    def encode(value: Any) -> int:
        """Validate and pass through an unsigned 64-bit integer."""
        if not isinstance(value, int) or not 0 <= value < (1 << 64):
            raise ValueError(f"value must be a u64 integer, got {value!r}")
        return value

    @staticmethod
    def decode(raw: int) -> Any:
        """Return the stored integer unchanged."""
        return raw


def serialize_tree(tree: PHTree, value_codec: Any = NoneValueCodec) -> bytes:
    """Serialise ``tree`` into a self-describing byte string."""
    k = tree.dims
    w = tree.width
    if w > 256:
        raise ValueError(
            f"the serialised format stores post_len in 8 bits; "
            f"width {w} > 256 is not representable"
        )
    data, nbits = 0, 0
    if tree.root is not None:
        data, nbits = emit_node(tree.root, w, k, value_codec, frozen=False)
    header = _MAGIC + struct.pack(">HHQQ", k, w, len(tree), nbits)
    return header + pack_bits(data, nbits)


def deserialize_tree(
    data: bytes,
    value_codec: Any = NoneValueCodec,
    hc_mode: str = "auto",
) -> PHTree:
    """Rebuild a PH-tree from :func:`serialize_tree` output.

    The stored HC/LHC flags are honoured, so the rebuilt tree is
    byte-identical under re-serialisation.  A structurally invalid
    stream raises ``ValueError``.
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a serialised PH-tree (bad magic)")
    offset = len(_MAGIC)
    if len(data) < offset + struct.calcsize(">HHQQ"):
        raise ValueError("truncated PH-tree header")
    k, w, size, bit_length = struct.unpack_from(">HHQQ", data, offset)
    offset += struct.calcsize(">HHQQ")
    if w > 256:
        raise ValueError(f"corrupt header: width {w} > 256")
    tree = PHTree(dims=k, width=w, hc_mode=hc_mode)
    if size == 0:
        if bit_length:
            raise ValueError("empty tree with non-empty node stream")
        return tree
    if len(data) - offset < (bit_length + 7) // 8:
        raise ValueError("truncated PH-tree node stream")
    reader = BitReader(data[offset:], bit_length)
    try:
        root, consumed, entries = _read_node(
            reader, 0, w, (0,) * k, 0, k, value_codec
        )
    except IndexError as exc:
        raise ValueError(f"corrupt PH-tree node stream: {exc}") from None
    if consumed != bit_length:
        raise ValueError(
            f"trailing bits in node stream: read {consumed} of {bit_length}"
        )
    if entries != size or root.post_len != w - 1:
        raise ValueError(
            f"corrupt stream: header size {size}, decoded {entries} "
            f"entries under a root at post_len {root.post_len}"
        )
    if tree.layout == "arena":
        # The arena engine re-records the decoded graph into its slabs
        # (representation flags preserved, so re-serialisation stays
        # byte-identical).
        tree._adopt_root(root, size)
    else:
        tree._root = root
        tree._size = size
    return tree


def pack_bits(data: int, nbits: int) -> bytes:
    """The ``nbits``-bit stream ``data`` as bytes, MSB-first, zero-padded
    to a byte boundary."""
    return (data << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")


def emit_node(
    node: Node,
    parent_post_len: int,
    k: int,
    value_codec: Any,
    frozen: bool,
) -> Tuple[int, int]:
    """Encode ``node``'s subtree bottom-up as one ``(data, bit_length)``.

    ``frozen=False`` writes ``PHT1`` (HC/LHC flag bit, sub-nodes bare);
    ``frozen=True`` writes the ``PHF1`` of :mod:`repro.core.frozen` (no
    flag bit, each sub-node preceded by its 32-bit body length).  Each
    bit is shifted O(depth) times as finished subtrees combine.
    """
    post_len = node.post_len
    infix_len = parent_post_len - 1 - post_len
    if infix_len != node.infix_len:
        raise AssertionError(f"inconsistent infix_len {node.infix_len}")
    acc = post_len
    bits = 8
    if infix_len:
        shift = post_len + 1
        mask = (1 << infix_len) - 1
        for value in node.prefix:
            acc = (acc << infix_len) | ((value >> shift) & mask)
        bits += infix_len * k
    if not frozen:
        acc = (acc << 1) | (1 if node.container.is_hc else 0)
        bits += 1
    acc = (acc << (k + 1)) | node.num_slots()
    bits += k + 1
    vbits = value_codec.bits
    encode = value_codec.encode
    post_mask = (1 << post_len) - 1
    entry_bits = k + 1 + post_len * k + vbits
    for address, slot in node.items():
        if isinstance(slot, Node):
            cdata, cbits = emit_node(slot, post_len, k, value_codec, frozen)
            # [address: k] [type: 1] ([body length: 32] if frozen) body
            head = (address << 1) | 1
            head_bits = k + 1
            if frozen:
                if cbits >> _LEN_BITS:
                    raise ValueError(f"{cbits}-bit sub-node body too long")
                head = (head << _LEN_BITS) | cbits
                head_bits += _LEN_BITS
            acc = (((acc << head_bits) | head) << cbits) | cdata
            bits += head_bits + cbits
        else:
            # [address: k] [type: 0] [postfix: post_len * k] [value]
            entry = address << 1
            if post_len:
                for value in slot.key:
                    entry = (entry << post_len) | (value & post_mask)
            # Encode unconditionally: zero-bit codecs still validate that
            # the value is representable (silently dropping a value would
            # corrupt the round trip).
            value = encode(slot.value)
            if value < 0 or value >> vbits:
                raise ValueError(f"codec value {value} exceeds {vbits} bits")
            acc = (acc << entry_bits) | (entry << vbits) | value
            bits += entry_bits
    return acc, bits


def _read_node(
    reader: BitReader,
    pos: int,
    parent_post_len: int,
    parent_prefix: Tuple[int, ...],
    parent_address: int,
    k: int,
    value_codec: Any,
) -> Tuple[Node, int, int]:
    """Decode the node at bit ``pos``; returns ``(node, next_pos,
    entries in its subtree)``."""
    read = reader.read
    post_len = read(pos, 8)
    pos += 8
    infix_len = parent_post_len - 1 - post_len
    if infix_len < 0:
        raise ValueError("corrupt stream: child post_len above parent")
    # Reassemble the full prefix: parent prefix bits, then the address bit
    # the child occupies in the parent, then the infix bits.  For the root
    # call parent_post_len == w and parent_address == 0, so no spurious
    # bit w is ever set.
    shift = post_len + 1
    prefix = [
        parent_prefix[dim]
        | (((parent_address >> (k - 1 - dim)) & 1) << parent_post_len)
        | (read(pos + dim * infix_len, infix_len) << shift)
        for dim in range(k)
    ]
    pos += infix_len * k
    node = Node(post_len=post_len, infix_len=infix_len, prefix=tuple(prefix))
    # [repr flag: 1] [slot count: k+1]
    head = read(pos, k + 2)
    pos += k + 2
    count = head & ((2 << k) - 1)
    if count > 1 << k:
        raise ValueError(f"corrupt stream: {count} slots in a 2**{k} node")
    container: Any = HCContainer(k) if head >> (k + 1) else LHCContainer()
    vbits = value_codec.bits
    post_mask = (1 << post_len) - 1
    entries = 0
    previous = -1
    for _ in range(count):
        # [address: k] [type: 1]
        slot = read(pos, k + 1)
        pos += k + 1
        address = slot >> 1
        if address <= previous:
            raise ValueError("corrupt stream: unsorted slot addresses")
        previous = address
        if slot & 1:
            child, pos, below = _read_node(
                reader, pos, post_len, node.prefix, address, k, value_codec
            )
            if child.num_slots() < 2:
                raise ValueError("corrupt stream: sub-node with 1 slots")
            container.put(address, child)
            node._n_sub += 1
            entries += below
        else:
            postfixes = read(pos, post_len * k)
            pos += post_len * k
            key = tuple(
                prefix[dim]
                | (((address >> (k - 1 - dim)) & 1) << post_len)
                | ((postfixes >> ((k - 1 - dim) * post_len)) & post_mask)
                for dim in range(k)
            )
            value = value_codec.decode(read(pos, vbits)) if vbits else None
            pos += vbits
            container.put(address, Entry(key, value))
            node._n_post += 1
    node.container = container
    return node, pos, entries + node._n_post
