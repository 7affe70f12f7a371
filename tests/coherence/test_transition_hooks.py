"""Transition hooks observe the exact protocol steps (satellite coverage).

A :class:`RecordingHook` attached to a directory must see the precise
(state, event, next-state) sequence of every FSM step — both the Fig. 2
transaction FSM and, on the precise directory, the interleaved Table I
entry transitions.  The two scenarios here are the paper's §III headline
cases: an ownership transfer (RdBlkM hitting a dirty remote owner) and a
dirty write-back (VicDirty) — under both directory flavors, so the traces
also document what the precise directory elides (the broadcast probe and
the memory write)."""

from __future__ import annotations

from repro.coherence.policies import PRESETS
from repro.protocol.types import MsgType

from tests.coherence.engine_helpers import RecordingHook
from tests.coherence.harness import DirHarness, line_with

ADDR = 0xC000


def with_dirty_owner(policy=None) -> DirHarness:
    """A harness where l2.0 owns ``ADDR`` with dirty data."""
    h = DirHarness() if policy is None else DirHarness(policy=policy)
    h.l2s[0].request(MsgType.RDBLKM, ADDR)
    h.run()
    h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(7))
    return h


def record(h: DirHarness) -> RecordingHook:
    hook = RecordingHook()
    h.directory.add_fsm_hook(hook)
    return hook


class TestRdBlkMWithDirtyRemoteOwner:
    def test_stateless_sequence(self):
        h = with_dirty_owner()
        hook = record(h)
        h.l2s[1].request(MsgType.RDBLKM, ADDR)
        h.run()
        # Broadcast probes (both L2s are probed; the owner's ack carries
        # the dirty data), then the requester unblocks while the dirty
        # line's memory write-back is still outstanding.
        assert hook.sequence(addr=ADDR) == [
            ("U", "RdBlkM", "B"),
            ("B", "Launch", "B_P"),
            ("B_P", "ProbeAck", "B_P"),   # clean ack from the non-owner
            ("B_P", "ProbeAck", "B_U"),   # dirty ack: data ready, respond
            ("B_U", "LlcData", "B_MU"),   # dirty data also written to memory
            ("B_MU", "Unblock", "B_M"),
            ("B_M", "MemData", "U"),      # the write-back ack commits
        ]

    def test_precise_sequence(self):
        h = with_dirty_owner(policy=PRESETS["sharers"])
        hook = record(h)
        h.l2s[1].request(MsgType.RDBLKM, ADDR)
        h.run()
        # One directed probe (no broadcast), the Table I entry transition
        # (O, RdBlkM) -> O interleaved at launch, and no memory traffic:
        # the dirty data moves cache-to-cache.
        assert hook.sequence(addr=ADDR) == [
            ("U", "RdBlkM", "B"),
            ("B", "Launch", "B_P"),
            ("O", "RdBlkM", "O"),         # Table I: ownership transfer
            ("B_P", "ProbeAck", "B_U"),   # single directed probe
            ("B_U", "Unblock", "U"),
        ]


class TestVicDirtyFromOwner:
    def test_stateless_sequence(self):
        h = with_dirty_owner()
        hook = record(h)
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(9))
        h.run()
        assert hook.sequence(addr=ADDR) == [
            ("U", "VicDirty", "B"),
            ("B", "Launch", "B"),
            ("B", "Commit", "U"),
        ]

    def test_precise_sequence(self):
        h = with_dirty_owner(policy=PRESETS["sharers"])
        hook = record(h)
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(9))
        h.run()
        # Same Fig. 2 shape, plus the Table I entry update: the tracked
        # owner wrote back, so the entry frees ((O, VicDirty) -> I).
        assert hook.sequence(addr=ADDR) == [
            ("U", "VicDirty", "B"),
            ("B", "Launch", "B"),
            ("O", "VicDirty", "I"),
            ("B", "Commit", "U"),
        ]
