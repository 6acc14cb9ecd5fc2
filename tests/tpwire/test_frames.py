"""TX/RX frame encode/decode."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tpwire import (
    BROADCAST_NODE_ID,
    Command,
    CrcMismatch,
    FrameError,
    RxFrame,
    RxType,
    TxFrame,
    node_address,
)
from repro.tpwire.frames import FRAME_BITS


class TestTxFrame:
    def test_layout(self):
        frame = TxFrame(Command.WRITE_DATA, 0xA5)
        word = frame.encode()
        assert word >> 15 == 0              # start bit
        assert (word >> 12) & 0x7 == 2      # CMD
        assert (word >> 4) & 0xFF == 0xA5   # DATA
        assert word & 0xF == frame.crc      # CRC

    def test_roundtrip(self):
        frame = TxFrame(Command.SELECT, 0x42)
        assert TxFrame.decode(frame.encode()) == frame

    def test_bits_are_16(self):
        assert len(TxFrame(Command.POLL, 0).to_bits()) == FRAME_BITS

    def test_bits_roundtrip(self):
        frame = TxFrame(Command.READ_DATA, 0xFF)
        assert TxFrame.from_bits(frame.to_bits()) == frame

    def test_crc_mismatch_detected(self):
        word = TxFrame(Command.SELECT, 0x42).encode() ^ 0x1
        with pytest.raises(CrcMismatch):
            TxFrame.decode(word)

    def test_start_bit_must_be_zero(self):
        with pytest.raises(FrameError):
            TxFrame.decode(1 << 15)

    def test_field_validation(self):
        with pytest.raises(FrameError):
            TxFrame(Command.SELECT, 256)

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(FrameError):
            TxFrame.from_bits([0] * 15)

    @pytest.mark.parametrize("frame, expected", [
        (TxFrame(Command.SELECT, node_address(3)), True),
        (TxFrame(Command.SELECT, node_address(BROADCAST_NODE_ID)), False),
        (TxFrame(Command.RESET, 0), False),
        (TxFrame(Command.POLL, 0), True),
        (TxFrame(Command.WRITE_DATA, 0x7F), True),
    ])
    def test_expects_reply(self, frame, expected):
        assert frame.expects_reply is expected

    @given(st.sampled_from(list(Command)), st.integers(0, 255))
    def test_roundtrip_property(self, cmd, data):
        frame = TxFrame(cmd, data)
        assert TxFrame.decode(frame.encode()) == frame

    @given(st.sampled_from(list(Command)), st.integers(0, 255), st.integers(0, 15))
    def test_any_single_bit_flip_detected(self, cmd, data, bit):
        """Start-bit errors or CRC failures: no silent corruption."""
        word = TxFrame(cmd, data).encode() ^ (1 << bit)
        with pytest.raises(FrameError):
            TxFrame.decode(word)


class TestRxFrame:
    def test_layout(self):
        frame = RxFrame(RxType.DATA, 0x3C, int_pending=True)
        word = frame.encode()
        assert word >> 15 == 0
        assert (word >> 14) & 1 == 1        # INT
        assert (word >> 12) & 0x3 == 1      # TYPE
        assert (word >> 4) & 0xFF == 0x3C

    def test_roundtrip(self):
        frame = RxFrame(RxType.FLAGS, 0x81)
        assert RxFrame.decode(frame.encode()) == frame

    def test_int_bit_not_covered_by_crc(self):
        """Setting INT in flight must keep the CRC valid (Sec. 3.1)."""
        clean = RxFrame(RxType.ACK, 0x10)
        piggybacked = clean.with_int()
        decoded = RxFrame.decode(piggybacked.encode())
        assert decoded.int_pending
        assert decoded.data == clean.data

    def test_with_int_idempotent(self):
        frame = RxFrame(RxType.ACK, 0, int_pending=True)
        assert frame.with_int() is frame

    def test_crc_mismatch_detected(self):
        word = RxFrame(RxType.DATA, 0x42).encode() ^ 0x10
        with pytest.raises(CrcMismatch):
            RxFrame.decode(word)

    @given(
        st.sampled_from(list(RxType)),
        st.integers(0, 255),
        st.booleans(),
    )
    def test_roundtrip_property(self, rtype, data, int_pending):
        frame = RxFrame(rtype, data, int_pending)
        assert RxFrame.decode(frame.encode()) == frame
        assert RxFrame.from_bits(frame.to_bits()) == frame

    @given(st.sampled_from(list(RxType)), st.integers(0, 255), st.integers(0, 13))
    def test_single_bit_flip_below_int_detected(self, rtype, data, bit):
        """Flips in TYPE/DATA/CRC are detected (INT flips are legal)."""
        word = RxFrame(rtype, data).encode() ^ (1 << bit)
        with pytest.raises(FrameError):
            RxFrame.decode(word)
