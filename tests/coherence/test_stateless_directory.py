"""Directed tests of the baseline (stateless) directory and the §III knobs."""

from __future__ import annotations

import pytest

from repro.coherence.policies import PRESETS, DirectoryPolicy
from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.protocol.types import MoesiState, MsgType, ProbeType

from tests.coherence.harness import DirHarness, dirty_in_llc, line_with

ADDR = 0x1000


class TestProbeBroadcast:
    def test_rdblk_probes_all_l2s_but_not_requester_or_tcc(self):
        h = DirHarness(num_l2s=3)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.l2s[0].probes_seen(ADDR) == []
        assert len(h.l2s[1].probes_seen(ADDR)) == 1
        assert len(h.l2s[2].probes_seen(ADDR)) == 1
        assert h.tcc.probes_seen(ADDR) == []  # downgrades exclude the TCC
        assert h.l2s[1].probes_seen(ADDR)[0].probe_type is ProbeType.DOWNGRADE

    def test_rdblkm_broadcasts_invalidations_including_tcc(self):
        h = DirHarness(num_l2s=3)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        for cache in (h.l2s[1], h.l2s[2], h.tcc):
            probes = cache.probes_seen(ADDR)
            assert len(probes) == 1
            assert probes[0].probe_type is ProbeType.INVALIDATE
        assert h.probes_sent == 3

    def test_wt_atomic_dmawr_all_probe_invalidating(self):
        for mtype, src in ((MsgType.WT, "tcc"), (MsgType.ATOMIC, "tcc"),
                           (MsgType.DMA_WR, "dma")):
            h = DirHarness()
            requester = h.tcc if src == "tcc" else h.dma
            fields = {}
            if mtype in (MsgType.WT, MsgType.DMA_WR):
                fields["data"] = line_with(9)
            elif mtype is MsgType.ATOMIC:
                fields["atomic_op"] = AtomicOp.INC
            requester.request(mtype, ADDR, **fields)
            h.run()
            for l2 in h.l2s:
                assert len(l2.probes_seen(ADDR)) == 1, mtype
                assert l2.probes_seen(ADDR)[0].probe_type is ProbeType.INVALIDATE

    def test_dma_read_broadcasts_downgrades(self):
        h = DirHarness()
        h.dma.request(MsgType.DMA_RD, ADDR)
        h.run()
        for l2 in h.l2s:
            assert len(l2.probes_seen(ADDR)) == 1
        assert h.tcc.probes_seen(ADDR) == []


class TestGrants:
    def test_rdblk_granted_exclusive_when_no_copies(self):
        h = DirHarness()
        h.seed_memory(ADDR, 7)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        resp = h.l2s[0].last_response()
        assert resp.state is MoesiState.E
        assert resp.data.word(0) == 7

    def test_rdblk_granted_shared_when_another_copy_exists(self):
        h = DirHarness()
        h.l2s[1].behave(ADDR, had_copy=True)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.l2s[0].last_response().state is MoesiState.S

    def test_rdblk_dirty_data_forwarded_and_shared(self):
        h = DirHarness()
        h.seed_memory(ADDR, 1)  # stale
        h.l2s[1].behave(ADDR, had_copy=True, dirty=True, data=line_with(42))
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        resp = h.l2s[0].last_response()
        assert resp.state is MoesiState.S
        assert resp.data.word(0) == 42  # dirty data wins over memory

    def test_rdblks_always_shared(self):
        h = DirHarness()
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        assert h.l2s[0].last_response().state is MoesiState.S

    def test_rdblkm_always_modified(self):
        h = DirHarness()
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        assert h.l2s[0].last_response().state is MoesiState.M

    def test_rdblkm_receives_dirty_data_from_invalidated_owner(self):
        h = DirHarness()
        h.l2s[1].behave(ADDR, had_copy=True, dirty=True, data=line_with(99))
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        assert h.l2s[0].last_response().data.word(0) == 99


#: policy -> overlay on (B, Commit), then per victim type: LLC holds the
#: line, LLC dirty bit, memory writes.  Only a write-back LLC keeps dirty
#: bits; the custom row is a knob combination outside the named overlays.
VICTIM_POLICY_TABLE = {
    "baseline": (PRESETS["baseline"], None, {
        MsgType.VIC_CLEAN: (True, False, 1),
        MsgType.VIC_DIRTY: (True, False, 1),
    }),
    "noWBcleanVic": (PRESETS["noWBcleanVic"], "noWBcleanVic (§III-B)", {
        MsgType.VIC_CLEAN: (True, False, 0),
        MsgType.VIC_DIRTY: (True, False, 1),
    }),
    "noCleanVicToLLC": (PRESETS["noCleanVicToLLC"], "noCleanVicToLLC (§III-B1)", {
        MsgType.VIC_CLEAN: (False, False, 0),
        MsgType.VIC_DIRTY: (True, False, 1),
    }),
    "llcWB": (PRESETS["llcWB"], "llcWB (§III-C)", {
        MsgType.VIC_CLEAN: (True, False, 0),
        MsgType.VIC_DIRTY: (True, True, 0),
    }),
    "custom": (
        DirectoryPolicy(clean_victims_to_llc=False, clean_victims_to_memory=True),
        "custom victim policy", {
            MsgType.VIC_CLEAN: (False, False, 1),
            MsgType.VIC_DIRTY: (True, False, 1),
        },
    ),
}


class TestVictimPolicies:
    @pytest.mark.parametrize("mtype", [MsgType.VIC_CLEAN, MsgType.VIC_DIRTY],
                             ids=["clean", "dirty"])
    @pytest.mark.parametrize("name", list(VICTIM_POLICY_TABLE))
    def test_commit(self, name, mtype):
        policy, overlay, rows = VICTIM_POLICY_TABLE[name]
        in_llc, llc_dirty, mem_writes = rows[mtype]
        h = DirHarness(policy=policy)
        (commit,) = h.directory.fsm_table.lookup("B", "Commit")
        assert commit.overlay == overlay
        h.l2s[0].request(mtype, ADDR, data=line_with(5))
        h.run()
        assert h.l2s[0].last_response().mtype is MsgType.WB_ACK
        assert h.llc.holds(ADDR) is in_llc
        assert dirty_in_llc(h.llc, ADDR) is llc_dirty
        assert h.mem_writes == mem_writes
        if mem_writes:
            assert h.memory.peek(ADDR).word(0) == 5

    def test_llcwb_dirty_llc_eviction_writes_memory(self):
        """Filling a 1-set LLC with dirty victims forces deferred writes."""
        h = DirHarness(policy=PRESETS["llcWB"], llc_kwargs=dict(size_bytes=128, assoc=2))
        for index in range(3):  # 3 victims into a 2-way set
            h.l2s[0].request(MsgType.VIC_DIRTY, index * 0x10000, data=line_with(index))
        h.run()
        assert h.mem_writes == 1  # exactly one displaced dirty line
        assert h.llc.stats["dirty_evictions"] == 1

    def test_llcwb_sticky_dirty_bit_on_clean_refill(self):
        """Dirty victim, re-read (E from LLC), clean victim back: the LLC
        line must stay dirty — memory was never written."""
        h = DirHarness(policy=PRESETS["llcWB"])
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        h.l2s[0].request(MsgType.VIC_CLEAN, ADDR, data=line_with(5))
        h.run()
        assert dirty_in_llc(h.llc, ADDR)


class TestWriteThroughPaths:
    def test_wt_bypasses_llc_to_memory_by_default(self):
        h = DirHarness()
        h.tcc.request(MsgType.WT, ADDR, data=line_with(8))
        h.run()
        assert h.memory.peek(ADDR).word(0) == 8
        assert not h.llc.holds(ADDR)
        assert h.tcc.last_response().mtype is MsgType.WT_ACK

    def test_wt_with_usel3_writes_llc_too(self):
        h = DirHarness(policy=DirectoryPolicy(use_l3_on_wt=True))
        h.tcc.request(MsgType.WT, ADDR, data=line_with(8))
        h.run()
        assert h.llc.holds(ADDR)
        assert h.memory.peek(ADDR).word(0) == 8  # write-through LLC mirrors

    def test_wt_llcwb_usel3_absorbs_in_llc(self):
        h = DirHarness(policy=PRESETS["llcWB+useL3OnWT"])
        h.tcc.request(MsgType.WT, ADDR, data=line_with(8))
        h.run()
        assert h.llc.holds(ADDR)
        assert dirty_in_llc(h.llc, ADDR)
        assert h.mem_writes == 0

    def test_masked_wt_read_modifies_memory(self):
        h = DirHarness()
        h.seed_memory(ADDR, 3)
        h.tcc.request(MsgType.WT, ADDR, word_updates={5: 50})
        h.run()
        line = h.memory.peek(ADDR)
        assert line.word(0) == 3   # untouched word preserved
        assert line.word(5) == 50

    def test_masked_wt_merges_cpu_dirty_data(self):
        """False sharing: the CPU's dirty words must survive a masked WT."""
        h = DirHarness()
        cpu_line = ZERO_LINE.with_word(0, 111).with_word(1, 222)
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=cpu_line)
        h.tcc.request(MsgType.WT, ADDR, word_updates={5: 50})
        h.run()
        line = h.memory.peek(ADDR)
        assert line.word(0) == 111
        assert line.word(1) == 222
        assert line.word(5) == 50

    def test_stale_llc_copy_updated_in_place_on_bypass_wt(self):
        h = DirHarness()
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(1))
        h.run()
        assert h.llc.holds(ADDR)
        h.tcc.request(MsgType.WT, ADDR, data=line_with(2))
        h.run()
        assert h.llc.peek(ADDR).word(0) == 2  # never stale


class TestAtomics:
    def test_atomic_applies_and_returns_old_value(self):
        h = DirHarness()
        h.seed_memory(ADDR, 10)
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.ADD, operand=5, word=0)
        h.run()
        resp = h.tcc.last_response()
        assert resp.mtype is MsgType.ATOMIC_RESP
        assert resp.result == 10
        assert h.memory.peek(ADDR).word(0) == 15

    def test_atomic_uses_dirty_probe_data_as_base(self):
        h = DirHarness()
        h.seed_memory(ADDR, 10)  # stale
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(100))
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.ADD, operand=1, word=0)
        h.run()
        assert h.tcc.last_response().result == 100
        assert h.memory.peek(ADDR).word(0) == 101

    def test_back_to_back_atomics_serialize_per_line(self):
        h = DirHarness()
        for _ in range(4):
            h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.INC, word=0)
        h.run()
        assert h.memory.peek(ADDR).word(0) == 4
        olds = sorted(r.result for r in h.tcc.received.responses)
        assert olds == [0, 1, 2, 3]


class TestDma:
    def test_dma_read_returns_freshest_data(self):
        h = DirHarness()
        h.seed_memory(ADDR, 1)
        h.l2s[1].behave(ADDR, had_copy=True, dirty=True, data=line_with(77))
        h.dma.request(MsgType.DMA_RD, ADDR)
        h.run()
        assert h.dma.last_response().data.word(0) == 77

    def test_dma_write_invalidates_llc_and_writes_memory(self):
        h = DirHarness()
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(1))
        h.run()
        h.dma.request(MsgType.DMA_WR, ADDR, data=line_with(2))
        h.run()
        assert not h.llc.holds(ADDR)
        assert h.memory.peek(ADDR).word(0) == 2


class TestEarlyDirtyResponse:
    def test_early_response_before_memory_returns(self):
        """With a slow memory, the dirty probe ack should produce the
        response long before the (stale) memory read completes."""
        h = DirHarness(policy=PRESETS["earlyDirtyResp"])
        h.memory.latency_cycles = 5000
        h.l2s[1].behave(ADDR, had_copy=True, dirty=True, data=line_with(9))
        arrival = []
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        original = h.l2s[0].handle_message

        def spy(msg):
            if msg.mtype is MsgType.DATA_RESP:
                arrival.append(h.sim.now)
            original(msg)

        h.l2s[0].handle_message = spy
        h.run()
        # response delivered far earlier than the 5000-cycle memory latency
        assert arrival and arrival[0] < 1000 * 1000  # < 1000 cycles in ticks
        assert h.directory.stats["early_dirty_responses"] == 1

    def test_no_early_response_for_invalidating_requests(self):
        h = DirHarness(policy=PRESETS["earlyDirtyResp"])
        h.l2s[1].behave(ADDR, had_copy=True, dirty=True, data=line_with(9))
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        assert h.directory.stats["early_dirty_responses"] == 0


class TestSerialization:
    def test_requests_to_same_line_queue(self):
        h = DirHarness()
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.directory.stats["requests_queued"] == 1
        assert h.directory.stats["transactions_completed"] == 2

    def test_requests_to_different_lines_run_concurrently(self):
        h = DirHarness()
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.l2s[1].request(MsgType.RDBLK, ADDR + 0x40)
        h.run()
        assert h.directory.stats["requests_queued"] == 0

    def test_flush_acked(self):
        h = DirHarness()
        h.tcc.request(MsgType.FLUSH, 0)
        h.run()
        assert h.tcc.last_response().mtype is MsgType.FLUSH_ACK


class TestSupersededVictims:
    def test_victim_dropped_after_wt_consumed_its_data(self):
        """A WT invalidation that pulled data out of a victim buffer must
        cause the later-arriving VicDirty to be dropped, not clobber."""
        h = DirHarness()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5),
                        from_victim=True)
        h.tcc.request(MsgType.WT, ADDR, word_updates={0: 50})
        h.run()
        assert h.memory.peek(ADDR).word(0) == 50
        # now the stale VicDirty arrives
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        assert h.directory.stats["superseded_victims_dropped"] == 1
        assert h.memory.peek(ADDR).word(0) == 50  # not clobbered
        assert not h.llc.holds(ADDR)

    def test_marker_only_drops_one_victim(self):
        h = DirHarness()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5),
                        from_victim=True)
        h.tcc.request(MsgType.WT, ADDR, word_updates={0: 50})
        h.run()
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        # a later, legitimate victim from the same cache is accepted
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(60))
        h.run()
        assert h.memory.peek(ADDR).word(0) == 60


class TestProtocolErrors:
    def test_orphan_probe_ack_raises(self):
        from repro.coherence.directory import ProtocolError
        from repro.protocol.messages import Message

        h = DirHarness()
        h.network.send(Message.probe_ack("l2.0", "dir", ADDR, tid=999))
        with pytest.raises(ProtocolError, match="orphan probe ack"):
            h.run()

    def test_orphan_unblock_raises(self):
        from repro.coherence.directory import ProtocolError
        from repro.protocol.messages import Message

        h = DirHarness()
        h.network.send(Message.unblock("l2.0", "dir", ADDR, tid=999))
        with pytest.raises(ProtocolError, match="orphan unblock"):
            h.run()
