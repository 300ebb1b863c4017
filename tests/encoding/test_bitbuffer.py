"""Tests for the bit-stream buffer, including a hypothesis model check
against a plain list-of-bits reference implementation."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.encoding.bitbuffer import BitBuffer


class TestBasics:
    def test_empty(self):
        buf = BitBuffer()
        assert len(buf) == 0
        assert buf.bit_length == 0
        assert buf.to_binary_string() == ""

    def test_append_and_read(self):
        buf = BitBuffer()
        buf.append(0b0010, 4)  # the paper's Figure 1a value
        buf.append(0b1, 1)
        assert buf.read(0, 4) == 0b0010
        assert buf.read(4, 1) == 1
        assert buf.read(0, 5) == 0b00101
        assert len(buf) == 5

    def test_zero_width_fields(self):
        buf = BitBuffer()
        buf.append(0, 0)
        assert len(buf) == 0
        assert buf.read(0, 0) == 0

    def test_read_bit(self):
        buf = BitBuffer()
        buf.append(0b101, 3)
        assert [buf.read_bit(i) for i in range(3)] == [1, 0, 1]

    def test_field_validation(self):
        buf = BitBuffer()
        with pytest.raises(ValueError):
            buf.append(4, 2)  # does not fit
        with pytest.raises(ValueError):
            buf.append(-1, 2)
        with pytest.raises(ValueError):
            buf.append(1, -1)

    def test_read_bounds(self):
        buf = BitBuffer()
        buf.append(0xFF, 8)
        with pytest.raises(IndexError):
            buf.read(1, 8)
        with pytest.raises(IndexError):
            buf.read(-1, 2)


class TestInsertRemove:
    def test_insert_at_front(self):
        buf = BitBuffer()
        buf.append(0b0010, 4)
        buf.insert(0, 0b1, 1)
        assert buf.to_binary_string() == "10010"

    def test_insert_in_middle_shifts_right(self):
        # This is the LHC insert shift of paper Section 3.6.
        buf = BitBuffer()
        buf.append(0b1111, 4)
        buf.insert(2, 0b00, 2)
        assert buf.to_binary_string() == "110011"

    def test_insert_at_end_equals_append(self):
        buf = BitBuffer()
        buf.append(0b10, 2)
        buf.insert(2, 0b1, 1)
        assert buf.to_binary_string() == "101"

    def test_remove_shifts_left(self):
        # The LHC delete shift of paper Section 4.3.4.
        buf = BitBuffer()
        buf.append(0b110011, 6)
        removed = buf.remove(2, 2)
        assert removed == 0b00
        assert buf.to_binary_string() == "1111"

    def test_remove_everything(self):
        buf = BitBuffer()
        buf.append(0b1011, 4)
        assert buf.remove(0, 4) == 0b1011
        assert len(buf) == 0

    def test_insert_remove_round_trip(self):
        buf = BitBuffer()
        buf.append(0xAB, 8)
        before = buf.copy()
        buf.insert(3, 0b101, 3)
        buf.remove(3, 3)
        assert buf == before

    def test_bounds(self):
        buf = BitBuffer()
        buf.append(0xF, 4)
        with pytest.raises(IndexError):
            buf.insert(5, 0, 1)
        with pytest.raises(IndexError):
            buf.remove(3, 2)


class TestOverwrite:
    def test_overwrite_in_place(self):
        buf = BitBuffer()
        buf.append(0b0000, 4)
        buf.overwrite(1, 0b11, 2)
        assert buf.to_binary_string() == "0110"
        assert len(buf) == 4

    def test_bounds(self):
        buf = BitBuffer()
        buf.append(0b00, 2)
        with pytest.raises(IndexError):
            buf.overwrite(1, 0b11, 2)


class BitBufferMachine(RuleBasedStateMachine):
    """Model-based check: BitBuffer vs a plain list of bits."""

    @initialize()
    def setup(self):
        self.buf = BitBuffer()
        self.model = []  # list of 0/1 ints, stream order

    @rule(value=st.integers(min_value=0, max_value=(1 << 16) - 1),
          width=st.integers(min_value=0, max_value=16))
    def append(self, value, width):
        value &= (1 << width) - 1
        self.buf.append(value, width)
        self.model.extend(
            (value >> (width - 1 - i)) & 1 for i in range(width)
        )

    @rule(data=st.data(),
          value=st.integers(min_value=0, max_value=(1 << 8) - 1),
          width=st.integers(min_value=0, max_value=8))
    def insert(self, data, value, width):
        pos = data.draw(
            st.integers(min_value=0, max_value=len(self.model))
        )
        value &= (1 << width) - 1
        self.buf.insert(pos, value, width)
        bits = [(value >> (width - 1 - i)) & 1 for i in range(width)]
        self.model[pos:pos] = bits

    @rule(data=st.data())
    def remove(self, data):
        if not self.model:
            return
        pos = data.draw(
            st.integers(min_value=0, max_value=len(self.model) - 1)
        )
        width = data.draw(
            st.integers(min_value=0, max_value=len(self.model) - pos)
        )
        removed = self.buf.remove(pos, width)
        expected_bits = self.model[pos:pos + width]
        del self.model[pos:pos + width]
        expected = 0
        for bit in expected_bits:
            expected = (expected << 1) | bit
        assert removed == expected

    @rule(data=st.data())
    def read(self, data):
        if not self.model:
            return
        pos = data.draw(
            st.integers(min_value=0, max_value=len(self.model) - 1)
        )
        width = data.draw(
            st.integers(min_value=0, max_value=len(self.model) - pos)
        )
        got = self.buf.read(pos, width)
        expected = 0
        for bit in self.model[pos:pos + width]:
            expected = (expected << 1) | bit
        assert got == expected

    @invariant()
    def same_length_and_content(self):
        assert len(self.buf) == len(self.model)
        assert self.buf.to_binary_string() == "".join(
            str(b) for b in self.model
        )


TestBitBufferModel = BitBufferMachine.TestCase
TestBitBufferModel.settings = settings(max_examples=30)
