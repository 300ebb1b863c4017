"""An append/insert/read bit-stream buffer ("tightly packed" storage).

The PH-tree serialises most of the data of each node into a single bit-string
(paper Section 3.4, following reference [9], "Tightly Packed Tries").  This
module provides that bit-string as a first-class object: values occupy
exactly the number of bits they require, and the buffer supports the
operations the PH-tree node needs:

- ``append`` / ``read`` of fixed-width unsigned fields,
- ``insert`` and ``remove`` of bit ranges in the middle of the stream (the
  LHC shift-right on insert and shift-left on delete from Sections 3.6 and
  4.3.4),
- an exact ``bit_length`` for the memory model.

:class:`BitBuffer` keeps the stream in one Python int, so every operation
costs O(stream); it is the LHC-shift model and ``ChunkedBitBuffer``'s
substrate.  Trees are persisted by the linear bottom-up emitter of
:mod:`repro.core.serialize` and read back through :class:`BitReader`.

Bit addressing is stream order: bit index 0 is the first bit written.  Fields
are stored MSB-first, matching the paper's figures where values are written
top-down from the first bit.
"""

from __future__ import annotations

__all__ = ["BitBuffer", "BitReader"]


class BitReader:
    """Random-access bit reads over an immutable ``bytes`` stream.

    Unlike :class:`BitBuffer` (whose integer backing makes every read cost
    O(stream length)), a reader extracts fields by slicing only the bytes
    that overlap the field -- O(field width) per read.  This is what makes
    querying a frozen, byte-packed PH-tree practical.

    >>> reader = BitReader(bytes([0b10110000]), 4)
    >>> reader.read(0, 4)
    11
    """

    __slots__ = ("_data", "_bit_length")

    def __init__(self, data: bytes, bit_length: int) -> None:
        if bit_length < 0 or bit_length > len(data) * 8:
            raise ValueError(
                f"bit_length {bit_length} inconsistent with "
                f"{len(data)} bytes"
            )
        self._data = data
        self._bit_length = bit_length

    @property
    def bit_length(self) -> int:
        """Number of addressable bits."""
        return self._bit_length

    def read(self, pos: int, n_bits: int) -> int:
        """Read the unsigned ``n_bits`` field starting at bit ``pos``."""
        if n_bits < 0:
            raise ValueError(f"field width must be non-negative: {n_bits}")
        if not 0 <= pos <= self._bit_length - n_bits:
            raise IndexError(
                f"cannot read [{pos}, {pos + n_bits}) from "
                f"{self._bit_length}-bit stream"
            )
        if n_bits == 0:
            return 0
        first = pos >> 3
        last = (pos + n_bits - 1) >> 3
        window = int.from_bytes(self._data[first:last + 1], "big")
        drop = 7 - ((pos + n_bits - 1) & 7)
        return (window >> drop) & ((1 << n_bits) - 1)

    def read_bit(self, pos: int) -> int:
        """Read a single bit."""
        return self.read(pos, 1)


class BitBuffer:
    """A growable bit-string supporting mid-stream insertion and removal.

    >>> buf = BitBuffer()
    >>> buf.append(0b0010, 4)
    >>> buf.read(0, 4)
    2
    >>> buf.insert(0, 0b1, 1)
    >>> buf.read(0, 5)
    18
    """

    __slots__ = ("_data", "_length")

    def __init__(self, data: int = 0, length: int = 0) -> None:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if data < 0 or (length < data.bit_length()):
            raise ValueError(
                f"data {data} does not fit into declared length {length}"
            )
        self._data = data
        self._length = length

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def bit_length(self) -> int:
        """Number of bits currently stored."""
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitBuffer):
            return NotImplemented
        return self._length == other._length and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._length, self._data))

    def __repr__(self) -> str:
        if self._length == 0:
            return "BitBuffer('')"
        return f"BitBuffer('{format(self._data, f'0{self._length}b')}')"

    # -- writing -----------------------------------------------------------

    def append(self, value: int, n_bits: int) -> None:
        """Append ``value`` as an unsigned ``n_bits``-wide field."""
        self._check_field(value, n_bits)
        self._data = (self._data << n_bits) | value
        self._length += n_bits

    def insert(self, pos: int, value: int, n_bits: int) -> None:
        """Insert ``value`` as an ``n_bits`` field starting at bit ``pos``.

        All bits at ``pos`` and beyond shift right (towards the end of the
        stream) by ``n_bits`` -- this is the LHC insert shift.
        """
        self._check_field(value, n_bits)
        if not 0 <= pos <= self._length:
            raise IndexError(
                f"insert position {pos} outside stream of {self._length} bits"
            )
        tail_len = self._length - pos
        tail = self._data & ((1 << tail_len) - 1)
        head = self._data >> tail_len
        self._data = (((head << n_bits) | value) << tail_len) | tail
        self._length += n_bits

    def remove(self, pos: int, n_bits: int) -> int:
        """Remove ``n_bits`` starting at ``pos`` and return them as an int.

        All later bits shift left (towards the start) -- the LHC delete
        shift.
        """
        if n_bits < 0:
            raise ValueError(f"field width must be non-negative: {n_bits}")
        if not 0 <= pos <= self._length - n_bits:
            raise IndexError(
                f"cannot remove [{pos}, {pos + n_bits}) from "
                f"{self._length}-bit stream"
            )
        tail_len = self._length - pos - n_bits
        tail = self._data & ((1 << tail_len) - 1)
        removed = (self._data >> tail_len) & ((1 << n_bits) - 1)
        head = self._data >> (tail_len + n_bits)
        self._data = (head << tail_len) | tail
        self._length -= n_bits
        return removed

    def overwrite(self, pos: int, value: int, n_bits: int) -> None:
        """Replace the ``n_bits`` field at ``pos`` in place."""
        self._check_field(value, n_bits)
        if not 0 <= pos <= self._length - n_bits:
            raise IndexError(
                f"cannot overwrite [{pos}, {pos + n_bits}) in "
                f"{self._length}-bit stream"
            )
        shift = self._length - pos - n_bits
        mask = ((1 << n_bits) - 1) << shift
        self._data = (self._data & ~mask) | (value << shift)

    def clear(self) -> None:
        """Reset the buffer to the empty stream."""
        self._data = 0
        self._length = 0

    # -- reading -----------------------------------------------------------

    def read(self, pos: int, n_bits: int) -> int:
        """Read the unsigned ``n_bits`` field starting at bit ``pos``."""
        if n_bits < 0:
            raise ValueError(f"field width must be non-negative: {n_bits}")
        if not 0 <= pos <= self._length - n_bits:
            raise IndexError(
                f"cannot read [{pos}, {pos + n_bits}) from "
                f"{self._length}-bit stream"
            )
        shift = self._length - pos - n_bits
        return (self._data >> shift) & ((1 << n_bits) - 1)

    def read_bit(self, pos: int) -> int:
        """Read a single bit at stream position ``pos``."""
        return self.read(pos, 1)

    # -- conversion --------------------------------------------------------

    def to_binary_string(self) -> str:
        """Render the stream as a '0'/'1' string in stream order."""
        if self._length == 0:
            return ""
        return format(self._data, f"0{self._length}b")

    def copy(self) -> "BitBuffer":
        """Return an independent copy of this buffer."""
        return BitBuffer(self._data, self._length)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_field(value: int, n_bits: int) -> None:
        if n_bits < 0:
            raise ValueError(f"field width must be non-negative: {n_bits}")
        if value < 0:
            raise ValueError(f"fields are unsigned, got {value}")
        if value >> n_bits:
            raise ValueError(f"value {value} does not fit into {n_bits} bits")
