"""Table I — the precise-directory state machine, transition by transition.

Each test drives the directory into a starting state (I, S with K sharers,
O with/without sharers), issues one request type, and asserts the resulting
directory state, owner, sharer set, probe plan, and grant — the cells and
footnotes of Table I.
"""

from __future__ import annotations

import pytest

from repro.coherence.policies import PRESETS
from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.protocol.types import DirState, MoesiState, MsgType

from tests.coherence.engine_helpers import declared_nexts
from tests.coherence.harness import DirHarness, dirty_in_llc, line_with

ADDR = 0x3000


def make(policy_name: str = "sharers") -> DirHarness:
    return DirHarness(policy=PRESETS[policy_name], num_l2s=4)


def snapshot(h: DirHarness):
    return h.directory.snapshot_entry(ADDR)


def into_s(h: DirHarness, sharers: int = 1) -> None:
    """Drive the line to S with the first ``sharers`` L2s tracked."""
    for index in range(sharers):
        h.l2s[index].request(MsgType.RDBLKS, ADDR)
        h.run()
    state, _ = snapshot(h)
    assert state is DirState.S


def into_o(h: DirHarness, owner: int = 0, dirty_value: int = 5) -> None:
    """Drive the line to O owned by ``l2.<owner>`` holding dirty data."""
    h.l2s[owner].request(MsgType.RDBLKM, ADDR)
    h.run()
    h.l2s[owner].behave(ADDR, had_copy=True, dirty=True, data=line_with(dirty_value))
    state, entry = snapshot(h)
    assert state is DirState.O
    assert entry.owner == f"l2.{owner}"


class TestFromI:
    def test_rdblk_allocates_o_with_exclusive_grant(self):
        h = make()
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O  # E is conservatively O (silent E->M)
        assert entry.owner == "l2.0"
        assert entry.sharer_count == 0

    def test_rdblks_allocates_s(self):
        h = make()
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.S
        assert set(entry.sharer_names()) == {"l2.0"}

    def test_rdblkm_allocates_o_modified(self):
        h = make()
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O
        assert entry.owner == "l2.0"
        assert h.l2s[0].last_response().state is MoesiState.M

    def test_gpu_rdblk_allocates_s_with_tcc_sharer(self):
        h = make()
        h.tcc.request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.S
        assert set(entry.sharer_names()) == {"tcc0"}

    def test_wt_does_not_allocate(self):
        h = make()
        h.tcc.request(MsgType.WT, ADDR, word_updates={0: 1})
        h.run()
        assert snapshot(h)[0] is DirState.I

    def test_atomic_does_not_allocate(self):
        h = make()
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.INC, word=0)
        h.run()
        assert snapshot(h)[0] is DirState.I

    def test_dma_does_not_allocate(self):
        h = make()
        h.dma.request(MsgType.DMA_RD, ADDR)
        h.dma.request(MsgType.DMA_WR, ADDR, data=line_with(1))
        h.run()
        assert snapshot(h)[0] is DirState.I


class TestFromS:
    def test_rdblk_adds_sharer_forced_shared(self):
        h = make()
        into_s(h, sharers=1)
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.S
        assert set(entry.sharer_names()) == {"l2.0", "l2.1"}
        # forced S without assessing exclusivity (Table I note)
        assert h.l2s[1].last_response().state is MoesiState.S

    def test_rdblkm_invalidates_sharers_and_takes_ownership(self):
        h = make()
        into_s(h, sharers=2)
        h.l2s[2].request(MsgType.RDBLKM, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O
        assert entry.owner == "l2.2"
        assert entry.sharer_count == 0
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        assert len(h.l2s[1].probes_seen(ADDR)) == 1

    def test_vicclean_removes_one_sharer(self):
        h = make()
        into_s(h, sharers=2)
        h.l2s[0].request(MsgType.VIC_CLEAN, ADDR, data=ZERO_LINE)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.S
        assert set(entry.sharer_names()) == {"l2.1"}

    def test_vicdirty_in_s_is_illegal_hence_dropped_as_stale(self):
        """Table I: 'Missing transitions, such as VicDirty when cache line
        is in state S, are illegal' — a stateless L2 race can still emit
        one; the directory treats it as stale."""
        h = make()
        into_s(h, sharers=1)
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(9))
        h.run()
        assert h.directory.stats["stale_victims_dropped"] == 1
        assert snapshot(h)[0] is DirState.S

    def test_gpu_rdblk_joins_sharers(self):
        h = make()
        into_s(h, sharers=1)
        h.tcc.request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.S
        assert set(entry.sharer_names()) == {"l2.0", "tcc0"}

    def test_atomic_invalidates_sharers_and_frees(self):
        h = make()
        into_s(h, sharers=2)
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.INC, word=0)
        h.run()
        assert snapshot(h)[0] is DirState.I
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        assert len(h.l2s[1].probes_seen(ADDR)) == 1


class TestFromO:
    def test_rdblk_dirty_owner_stays_o_adds_sharer(self):
        h = make()
        into_o(h)
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O
        assert entry.owner == "l2.0"
        assert set(entry.sharer_names()) == {"l2.1"}
        assert h.l2s[1].last_response().state is MoesiState.S

    def test_rdblk_clean_e_owner_downgrades_to_s(self):
        """Footnotes d/f: the conservative O covered an E line; after the
        downgrade probe both become S under a clean LLC."""
        h = make()
        h.l2s[0].request(MsgType.RDBLK, ADDR)  # E
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=False)
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.S
        assert entry.owner is None
        assert set(entry.sharer_names()) == {"l2.0", "l2.1"}

    def test_rdblk_vanished_owner_regrants_exclusive(self):
        """The owner's ack reports no copy (victim in flight): the
        requester becomes the new tracked owner with an E grant."""
        h = make()
        into_o(h)
        h.l2s[0].behave(ADDR, had_copy=False)
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O
        assert entry.owner == "l2.1"
        assert h.l2s[1].last_response().state is MoesiState.E

    def test_rdblkm_transfers_ownership(self):
        h = make()
        into_o(h)
        h.l2s[1].request(MsgType.RDBLKM, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O
        assert entry.owner == "l2.1"
        assert h.l2s[1].last_response().data.word(0) == 5  # forwarded dirty

    def test_rdblkm_with_dirty_sharers_invalidates_all(self):
        h = make()
        into_o(h)
        h.l2s[1].request(MsgType.RDBLK, ADDR)  # add dirty sharer
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5))
        h.l2s[2].request(MsgType.RDBLKM, ADDR)
        h.run()
        assert len(h.l2s[0].probes_seen(ADDR)) == 2  # downgrade + invalidate
        assert len(h.l2s[1].probes_seen(ADDR)) == 1  # invalidate as sharer
        _state, entry = snapshot(h)
        assert entry.owner == "l2.2"

    def test_rdblks_from_other_l2(self):
        h = make()
        into_o(h)
        h.l2s[1].request(MsgType.RDBLKS, ADDR)
        h.run()
        state, entry = snapshot(h)
        assert state is DirState.O
        assert "l2.1" in entry.sharer_names()
        assert h.l2s[1].last_response().state is MoesiState.S

    def test_wt_invalidates_owner_and_frees(self):
        h = make()
        into_o(h)
        h.tcc.request(MsgType.WT, ADDR, word_updates={1: 7})
        h.run()
        assert snapshot(h)[0] is DirState.I
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        # merged: owner's dirty word 0 preserved, WT word 1 applied —
        # absorbed by the write-back LLC under useL3OnWT
        merged = h.llc.peek(ADDR)
        assert merged is not None
        assert merged.word(0) == 5
        assert merged.word(1) == 7
        assert dirty_in_llc(h.llc, ADDR)

    def test_atomic_applies_to_owner_data(self):
        h = make()
        into_o(h, dirty_value=10)
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.ADD, operand=3, word=0)
        h.run()
        assert h.tcc.last_response().result == 10
        assert snapshot(h)[0] is DirState.I

    def test_dma_rd_probes_owner_only_no_state_change(self):
        h = make()
        into_o(h, dirty_value=5)
        h.dma.request(MsgType.DMA_RD, ADDR)
        h.run()
        assert h.dma.last_response().data.word(0) == 5
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        assert h.l2s[1].probes_seen(ADDR) == []
        assert snapshot(h)[0] is DirState.O

    def test_vicdirty_from_owner_no_sharers_frees(self):
        h = make()
        into_o(h)
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        assert snapshot(h)[0] is DirState.I
        assert h.llc.peek(ADDR).word(0) == 5


class TestTableIDeclaration:
    """Enumerate the *declared* transition table and diff it against a
    literal transcription of the paper's Table I.

    Every (state, request) cell is asserted — next-state sets for the
    handled cells, explicit illegality for the blank ones ("missing
    transitions ... are illegal") — so the code and the paper's Table I
    cannot drift apart without a test failing.
    """

    # Table I, transcribed.  Multi-state cells list every outcome the row's
    # footnotes allow (e.g. (I, RdBlk) -> O normally, S for a read-only
    # region scan, I when the line is untracked read-only).
    PAPER = {
        ("I", "RdBlk"): {"O", "S", "I"},
        ("I", "RdBlkS"): {"S", "I"},
        ("I", "RdBlkM"): {"O"},
        ("I", "VicDirty"): {"I"},   # stale victim, dropped
        ("I", "VicClean"): {"I"},   # stale victim, dropped
        ("I", "WT"): {"I"},
        ("I", "Atomic"): {"I"},
        ("I", "DMARd"): {"I"},
        ("I", "DMAWr"): {"I"},
        ("S", "RdBlk"): {"S"},
        ("S", "RdBlkS"): {"S"},
        ("S", "RdBlkM"): {"O"},
        ("S", "VicDirty"): {"S"},   # illegal per Table I; dropped as stale
        ("S", "VicClean"): {"S", "I"},
        ("S", "WT"): {"S", "I"},
        ("S", "Atomic"): {"I"},
        ("S", "DMARd"): {"S"},
        ("S", "DMAWr"): {"I"},
        ("O", "RdBlk"): {"O", "S"},
        ("O", "RdBlkS"): {"O", "S"},
        ("O", "RdBlkM"): {"O"},
        ("O", "VicDirty"): {"O", "S", "I"},
        ("O", "VicClean"): {"O", "S", "I"},
        ("O", "WT"): {"S", "I"},
        ("O", "Atomic"): {"I"},
        # Table I keeps O, which is right only for a *dirty* owner; the
        # probe downgrades a clean E owner to S (footnote f), so the entry
        # must follow — keeping the stale owner pointer violates the
        # dir/cache agreement invariant (deviation documented in DESIGN.md)
        ("O", "DMARd"): {"O", "S", "I"},
        ("O", "DMAWr"): {"I"},
        # entry evictions run as two-step transactions through B
        ("S", "DirEvict"): {"B"},
        ("O", "DirEvict"): {"B"},
        ("B", "EvictDone"): {"I"},
    }

    @staticmethod
    def table(policy_name="sharers", **overrides):
        from repro.coherence.precise import build_table1

        policy = PRESETS[policy_name]
        if overrides:
            policy = policy.named(**overrides)
        return build_table1(policy)

    def test_every_cell_matches_the_paper(self):
        from repro.coherence.engine import state_label

        table = self.table()
        declared = {}
        illegal = set()
        for state in table.states:
            for event in table.events:
                transitions = list(table.lookup(state, event))
                assert transitions, "lint covers this; belt and braces"
                if all(t.kind == "illegal" for t in transitions):
                    illegal.add((state_label(state), event))
                else:
                    declared[(state_label(state), event)] = {
                        state_label(s)
                        for s in declared_nexts(table, state, event)
                    }
        assert declared == self.PAPER
        # the blank Table I cells are exactly the declared-illegal ones
        all_cells = {
            (state_label(s), e) for s in table.states for e in table.events
        }
        assert illegal == all_cells - set(self.PAPER)

    def test_no_unhandled_pairs(self):
        assert self.table().unhandled_pairs() == []
        assert self.table("owner").unhandled_pairs() == []

    def test_dma_keeps_dir_state_overlay(self):
        """§VI knob: with ``dma_updates_dir_state`` off, DMA writes leave
        the entry alone instead of freeing it."""
        from repro.coherence.engine import state_label

        table = self.table(dma_updates_dir_state=False)
        assert {state_label(s) for s in declared_nexts(table, DirState.S, "DMAWr")} == {"S"}
        assert {state_label(s) for s in declared_nexts(table, DirState.O, "DMAWr")} == {"O"}

    def test_conservative_vicdirty_overlay(self):
        """§VII variant: a VicDirty invalidates the sharers, so the entry
        can never settle in S."""
        from repro.coherence.engine import state_label

        table = self.table(vicdirty_invalidates_sharers=True)
        for event in ("VicDirty", "VicClean"):
            nexts = {state_label(s) for s in declared_nexts(table, DirState.O, event)}
            assert "S" not in nexts, (event, nexts)


@pytest.mark.parametrize("policy_name", ["owner", "sharers"])
class TestBothTrackingModes:
    """The Table I transitions that must hold in both tracking modes."""

    def test_full_lifecycle(self, policy_name):
        h = make(policy_name)
        # I -> O (RdBlkM) -> O' (ownership transfer) -> S (owner WB) -> I
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(1))
        h.l2s[1].request(MsgType.RDBLK, ADDR)     # dirty share
        h.run()
        assert snapshot(h)[0] is DirState.O
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(1))
        h.run()
        assert snapshot(h)[0] is DirState.S
        h.l2s[1].request(MsgType.VIC_CLEAN, ADDR, data=line_with(1))
        h.run()
        assert snapshot(h)[0] is DirState.I

    def test_i_state_probe_elision(self, policy_name):
        h = make(policy_name)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.probes_sent == 0
