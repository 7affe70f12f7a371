"""Tests for protocol vocabulary: states, message types, atomics, messages."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp, apply_atomic
from repro.protocol.messages import CTRL_MSG_BYTES, DATA_MSG_BYTES, Message
from repro.protocol.types import (
    DIRTY_STATES,
    READ_PERMISSION_TYPES,
    READABLE_STATES,
    REQUEST_TYPES,
    VICTIM_TYPES,
    WRITABLE_STATES,
    WRITE_PERMISSION_TYPES,
    MoesiState,
    MsgType,
    ProbeType,
    RequesterKind,
)


class TestMoesiState:
    def test_readability(self):
        assert READABLE_STATES == set(MoesiState) - {MoesiState.I}

    def test_writability(self):
        # E may silently become M
        assert WRITABLE_STATES == {MoesiState.M, MoesiState.E}

    def test_dirtiness(self):
        assert DIRTY_STATES == {MoesiState.M, MoesiState.O}


class TestMsgType:
    def test_write_permission_requests_match_paper_footnote4(self):
        """RdBlkM, WT, Atomic, DMAWr broadcast invalidating probes."""
        expected = {MsgType.RDBLKM, MsgType.WT, MsgType.ATOMIC, MsgType.DMA_WR}
        assert WRITE_PERMISSION_TYPES == expected

    def test_read_permission_requests(self):
        expected = {MsgType.RDBLK, MsgType.RDBLKS, MsgType.DMA_RD}
        assert READ_PERMISSION_TYPES == expected

    def test_victims(self):
        assert VICTIM_TYPES == {MsgType.VIC_DIRTY, MsgType.VIC_CLEAN}

    def test_request_classification(self):
        assert MsgType.RDBLK in REQUEST_TYPES
        assert MsgType.FLUSH in REQUEST_TYPES
        assert MsgType.PROBE not in REQUEST_TYPES
        assert MsgType.DATA_RESP not in REQUEST_TYPES
        assert MsgType.UNBLOCK not in REQUEST_TYPES


class TestAtomics:
    def test_add(self):
        line = ZERO_LINE.with_word(2, 10)
        new, old = apply_atomic(line, 2, AtomicOp.ADD, 5)
        assert old == 10
        assert new.word(2) == 15

    def test_inc(self):
        new, old = apply_atomic(ZERO_LINE, 0, AtomicOp.INC)
        assert (old, new.word(0)) == (0, 1)

    def test_exch(self):
        line = ZERO_LINE.with_word(1, 42)
        new, old = apply_atomic(line, 1, AtomicOp.EXCH, 7)
        assert (old, new.word(1)) == (42, 7)

    def test_cas_success(self):
        line = ZERO_LINE.with_word(0, 3)
        new, old = apply_atomic(line, 0, AtomicOp.CAS, operand=9, compare=3)
        assert (old, new.word(0)) == (3, 9)

    def test_cas_failure_leaves_value(self):
        line = ZERO_LINE.with_word(0, 3)
        new, old = apply_atomic(line, 0, AtomicOp.CAS, operand=9, compare=4)
        assert (old, new.word(0)) == (3, 3)
        assert new is line  # unchanged object reused

    def test_max_min(self):
        line = ZERO_LINE.with_word(0, 5)
        assert apply_atomic(line, 0, AtomicOp.MAX, 9)[0].word(0) == 9
        assert apply_atomic(line, 0, AtomicOp.MAX, 2)[0].word(0) == 5
        assert apply_atomic(line, 0, AtomicOp.MIN, 2)[0].word(0) == 2

    def test_and_or(self):
        line = ZERO_LINE.with_word(0, 0b1100)
        assert apply_atomic(line, 0, AtomicOp.AND, 0b1010)[0].word(0) == 0b1000
        assert apply_atomic(line, 0, AtomicOp.OR, 0b0011)[0].word(0) == 0b1111

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
    def test_add_commutes_with_itself(self, a, b):
        via_ab = apply_atomic(apply_atomic(ZERO_LINE, 0, AtomicOp.ADD, a)[0], 0, AtomicOp.ADD, b)[0]
        via_ba = apply_atomic(apply_atomic(ZERO_LINE, 0, AtomicOp.ADD, b)[0], 0, AtomicOp.ADD, a)[0]
        assert via_ab == via_ba

    def test_atomics_touch_only_their_word(self):
        line = ZERO_LINE.with_word(5, 50)
        new, _ = apply_atomic(line, 0, AtomicOp.INC)
        assert new.word(5) == 50


class TestMessage:
    def test_request_factory(self):
        msg = Message.request(MsgType.RDBLK, "l2.0", "dir", 0x40, RequesterKind.CPU_L2)
        assert msg.requester == "l2.0"
        assert msg.requester_kind is RequesterKind.CPU_L2
        assert msg.category == "request"
        assert msg.size_bytes == CTRL_MSG_BYTES

    def test_request_factory_rejects_non_requests(self):
        with pytest.raises(ValueError):
            Message.request(MsgType.PROBE, "a", "b", 0, RequesterKind.CPU_L2)

    def test_data_carrying_message_size(self):
        msg = Message(MsgType.DATA_RESP, "dir", "l2.0", 0x40, data=ZERO_LINE,
                      state=MoesiState.E)
        assert msg.size_bytes == DATA_MSG_BYTES
        assert msg.category == "response"

    def test_probe_and_ack_categories(self):
        probe = Message.probe("dir", "l2.0", 0x40, ProbeType.INVALIDATE, tid=3)
        ack = Message.probe_ack("l2.0", "dir", 0x40, tid=3, data=ZERO_LINE, dirty=True)
        assert probe.category == "probe"
        assert ack.category == "probe_ack"
        assert ack.tid == 3
        assert ack.dirty

    def test_unblock(self):
        msg = Message.unblock("l2.0", "dir", 0x40, tid=9)
        assert msg.category == "unblock"
        assert msg.tid == 9

    def test_repr_readable(self):
        msg = Message.probe("dir", "l2.0", 0x80, ProbeType.DOWNGRADE, tid=1)
        text = repr(msg)
        assert "Probe" in text
        assert "down" in text
