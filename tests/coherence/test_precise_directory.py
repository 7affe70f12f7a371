"""Directed tests of the §IV precise state-tracking directory."""

from __future__ import annotations

import pytest

from repro.coherence.policies import PRESETS
from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.protocol.types import DirState, MoesiState, MsgType, ProbeType

from tests.coherence.harness import DirHarness, line_with

ADDR = 0x2000
OWNER = PRESETS["owner"]
SHARERS = PRESETS["sharers"]


def dir_state(h: DirHarness, addr: int = ADDR) -> DirState:
    return h.directory.snapshot_entry(addr)[0]


def dir_entry(h: DirHarness, addr: int = ADDR):
    return h.directory.snapshot_entry(addr)[1]


class TestProbeElision:
    def test_compulsory_miss_sends_no_probes(self):
        """The paper's main win: I-state requests elide broadcast probes."""
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.probes_sent == 0
        assert h.l2s[0].last_response().state is MoesiState.E

    def test_s_state_read_served_from_llc_without_probes(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.probes_sent == 0
        # forced shared even for RdBlk (response comes from the LLC path)
        assert h.l2s[1].last_response().state is MoesiState.S

    def test_o_state_read_probes_only_the_owner(self):
        h = DirHarness(policy=SHARERS, num_l2s=4)
        h.l2s[0].request(MsgType.RDBLK, ADDR)   # -> E, dir O owner=l2.0
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5))
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.probes_sent == 1
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        assert h.l2s[0].probes_seen(ADDR)[0].probe_type is ProbeType.DOWNGRADE
        assert h.l2s[2].probes_seen(ADDR) == []
        assert h.l2s[3].probes_seen(ADDR) == []

    def test_i_state_atomic_sends_no_probes(self):
        h = DirHarness(policy=SHARERS)
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.INC, word=0)
        h.run()
        assert h.probes_sent == 0


class TestDataElision:
    def test_dirty_owner_elides_memory_read(self):
        """O-state read: the owner's dirty ack makes the LLC/memory read
        unnecessary — 'the LLC reads are elided'."""
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        reads_before = h.mem_reads
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5))
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.mem_reads == reads_before  # no additional memory read
        assert h.l2s[1].last_response().data.word(0) == 5

    def test_clean_owner_falls_back_to_deferred_read(self):
        """The owner held E (clean, no data forwarded): the directory must
        fall back to an LLC/memory read after the acks."""
        h = DirHarness(policy=SHARERS)
        h.seed_memory(ADDR, 33)
        h.l2s[0].request(MsgType.RDBLK, ADDR)
        h.run()
        reads_before = h.mem_reads
        h.l2s[0].behave(ADDR, had_copy=True, dirty=False)  # E -> S, clean
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.mem_reads == reads_before + 1
        assert h.directory.stats["deferred_data_reads"] == 1
        resp = h.l2s[1].last_response()
        assert resp.state is MoesiState.S  # a copy exists: E denied
        assert resp.data.word(0) == 33

    def test_upgrade_from_tracked_holder_elides_read_entirely(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLK, ADDR)  # O owner=l2.0
        h.run()
        reads_before = h.mem_reads
        h.l2s[0].request(MsgType.RDBLKM, ADDR)  # silent-E upgrade... explicit
        h.run()
        assert h.mem_reads == reads_before
        assert h.directory.stats["upgrade_data_elided"] == 1
        resp = h.l2s[0].last_response()
        assert resp.state is MoesiState.M
        assert resp.data is None  # the requester keeps its own copy

    def test_sharer_upgrade_elides_read_in_sharers_mode_only(self):
        for policy, expect_elide in ((SHARERS, True), (OWNER, False)):
            h = DirHarness(policy=policy)
            h.l2s[0].request(MsgType.RDBLKS, ADDR)  # S, sharer l2.0
            h.run()
            reads_before = h.mem_reads
            h.l2s[0].request(MsgType.RDBLKM, ADDR)
            h.run()
            elided = h.mem_reads == reads_before
            assert elided == expect_elide, policy.kind


class TestMulticast:
    def test_sharers_mode_multicasts_invalidation(self):
        h = DirHarness(policy=SHARERS, num_l2s=4)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.l2s[1].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.l2s[2].request(MsgType.RDBLKM, ADDR)
        h.run()
        # only the two tracked sharers probed — not l2.3, not the TCC
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        assert len(h.l2s[1].probes_seen(ADDR)) == 1
        assert h.l2s[3].probes_seen(ADDR) == []
        assert h.tcc.probes_seen(ADDR) == []

    def test_multicast_targets_follow_broadcast_order(self):
        """Multicast probes go out in all_cache_names() order, whatever
        order the sharers joined in (not a hash-seeded set order)."""
        h = DirHarness(policy=SHARERS)
        directory = h.directory
        line, _ = directory.dir_cache.install(
            ADDR, state=DirState.S, meta=directory._new_entry()
        )
        for name in ("tcc0", "l2.1", "l2.0"):
            line.meta.add_sharer(name)
        broadcast = directory.all_cache_names()
        assert broadcast == ["l2.0", "l2.1", "tcc0"]
        assert directory._holder_targets(line, include_owner=False) == broadcast

    def test_owner_mode_broadcasts_invalidation_to_shared_line(self):
        h = DirHarness(policy=OWNER, num_l2s=4)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.l2s[1].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.l2s[2].request(MsgType.RDBLKM, ADDR)
        h.run()
        # identities unknown: broadcast to every cache except the requester
        assert len(h.l2s[0].probes_seen(ADDR)) == 1
        assert len(h.l2s[1].probes_seen(ADDR)) == 1
        assert len(h.l2s[3].probes_seen(ADDR)) == 1
        assert len(h.tcc.probes_seen(ADDR)) == 1

    def test_limited_pointer_overflow_broadcasts(self):
        policy = SHARERS.named(sharer_pointer_limit=1)
        h = DirHarness(policy=policy, num_l2s=4)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.l2s[1].request(MsgType.RDBLKS, ADDR)  # overflows the 1-pointer list
        h.run()
        entry = dir_entry(h)
        assert entry.overflow
        h.l2s[2].request(MsgType.RDBLKM, ADDR)
        h.run()
        # overflow forces a broadcast (footnote b)
        assert len(h.l2s[3].probes_seen(ADDR)) == 1


class TestVictimAcceptance:
    def test_vicdirty_from_owner_accepted_and_state_follows(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        assert h.llc.peek(ADDR).word(0) == 5
        assert dir_state(h) is DirState.I  # no sharers left -> entry freed

    def test_vicdirty_with_remaining_sharers_goes_shared(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(5))
        h.l2s[1].request(MsgType.RDBLK, ADDR)  # dirty-share: owner O, sharer
        h.run()
        assert dir_state(h) is DirState.O
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(5))
        h.run()
        assert dir_state(h) is DirState.S  # footnote h: dirty sharers remain
        assert h.llc.peek(ADDR).word(0) == 5

    def test_stale_vicdirty_from_non_owner_dropped(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[1].request(MsgType.VIC_DIRTY, ADDR, data=line_with(666))
        h.run()
        assert h.directory.stats["stale_victims_dropped"] == 1
        assert not h.llc.holds(ADDR)

    def test_vicclean_from_last_sharer_frees_entry(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        assert dir_state(h) is DirState.S
        h.l2s[0].request(MsgType.VIC_CLEAN, ADDR, data=ZERO_LINE)
        h.run()
        assert dir_state(h) is DirState.I

    def test_vicclean_from_e_owner_accepted(self):
        """Footnote g: an O-state line can send VicClean (it was E)."""
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLK, ADDR)  # granted E -> dir O
        h.run()
        assert dir_state(h) is DirState.O
        h.l2s[0].request(MsgType.VIC_CLEAN, ADDR, data=ZERO_LINE)
        h.run()
        assert dir_state(h) is DirState.I

    def test_victim_without_entry_dropped(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.VIC_DIRTY, ADDR, data=line_with(1))
        h.run()
        assert h.directory.stats["stale_victims_dropped"] == 1


class TestDirectoryEviction:
    def tiny(self, policy=SHARERS, entries=4, assoc=2):
        return DirHarness(policy=policy.named(dir_entries=entries, dir_assoc=assoc))

    def test_eviction_back_invalidates_tracked_owner(self):
        h = self.tiny()
        # fill the 2 sets x 2 ways with owned lines; the 5th allocation evicts
        addrs = [ADDR + i * 0x40 for i in range(5)]
        for index, addr in enumerate(addrs[:4]):
            h.l2s[index % 2].request(MsgType.RDBLKM, addr)
            h.run()
        for index, addr in enumerate(addrs[:4]):
            h.l2s[index % 2].behave(addr, had_copy=True, dirty=True,
                                    data=line_with(index + 1))
        h.l2s[0].request(MsgType.RDBLKM, addrs[4])
        h.run()
        assert h.directory.stats["dir_evictions"] == 1
        assert h.directory.stats["backward_invalidations"] >= 1
        # the victim's dirty data was pulled into the LLC
        evicted = [a for a in addrs[:4]
                   if h.directory.snapshot_entry(a)[0] is DirState.I]
        assert len(evicted) == 1
        assert h.llc.holds(evicted[0])

    def test_eviction_of_clean_shared_entry_probes_sharers(self):
        h = self.tiny()
        addrs = [ADDR + i * 0x40 for i in range(5)]
        for addr in addrs[:4]:
            h.l2s[0].request(MsgType.RDBLKS, addr)
            h.run()
        probes_before = h.probes_sent
        h.l2s[1].request(MsgType.RDBLK, addrs[4])
        h.run()
        assert h.probes_sent == probes_before + 1  # one back-invalidation

    def test_request_to_line_under_eviction_waits(self):
        """A request queued behind a B-state eviction completes correctly."""
        h = self.tiny()
        addrs = [ADDR + i * 0x40 for i in range(5)]
        for addr in addrs[:4]:
            h.l2s[0].request(MsgType.RDBLKS, addr)
            h.run()
        # trigger eviction and simultaneously request one of the old lines
        h.l2s[1].request(MsgType.RDBLK, addrs[4])
        h.l2s[1].request(MsgType.RDBLK, addrs[0])
        h.run()
        assert len(h.l2s[1].received.responses) == 2

    def test_state_aware_replacement_prefers_clean_few_sharer_entries(self):
        policy = SHARERS.named(dir_entries=4, dir_assoc=2,
                               state_aware_dir_replacement=True)
        h = DirHarness(policy=policy)
        # set 0 (line stride 2*0x40): one O entry, one S entry
        owned = ADDR
        shared = ADDR + 0x80
        h.l2s[0].request(MsgType.RDBLKM, owned)
        h.run()
        h.l2s[1].request(MsgType.RDBLKS, shared)
        h.run()
        h.l2s[0].behave(owned, had_copy=True, dirty=True, data=line_with(1))
        # force an eviction in that set
        h.l2s[0].request(MsgType.RDBLKS, ADDR + 0x100)
        h.run()
        # the S entry must have been chosen over the O entry
        assert h.directory.snapshot_entry(shared)[0] is DirState.I
        assert h.directory.snapshot_entry(owned)[0] is DirState.O


class TestStateUpdates:
    def test_wt_drops_entry_when_tcc_not_a_sharer(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(1))
        h.tcc.request(MsgType.WT, ADDR, word_updates={0: 2})
        h.run()
        assert dir_state(h) is DirState.I

    def test_wt_keeps_tcc_sharer_when_it_held_the_line(self):
        h = DirHarness(policy=SHARERS)
        h.tcc.request(MsgType.RDBLK, ADDR)  # TCC becomes a tracked sharer
        h.run()
        assert dir_state(h) is DirState.S
        h.tcc.request(MsgType.WT, ADDR, word_updates={0: 2})
        h.run()
        assert dir_state(h) is DirState.S
        entry = dir_entry(h)
        assert set(entry.sharer_names()) == {"tcc0"}

    def test_tcc_writeback_wt_frees_entry(self):
        h = DirHarness(policy=SHARERS)
        h.tcc.request(MsgType.RDBLK, ADDR)
        h.run()
        h.tcc.request(MsgType.WT, ADDR, data=line_with(3), is_writeback=True)
        h.run()
        assert dir_state(h) is DirState.I

    def test_atomic_frees_entry(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.tcc.request(MsgType.ATOMIC, ADDR, atomic_op=AtomicOp.INC, word=0)
        h.run()
        assert dir_state(h) is DirState.I

    def test_dma_write_frees_entry_when_configured(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.dma.request(MsgType.DMA_WR, ADDR, data=line_with(1))
        h.run()
        assert dir_state(h) is DirState.I

    def test_dma_write_keeps_stale_entry_when_disabled(self):
        """The paper's literal 'no state alteration': safe-but-stale."""
        h = DirHarness(policy=SHARERS.named(dma_updates_dir_state=False))
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.dma.request(MsgType.DMA_WR, ADDR, data=line_with(1))
        h.run()
        assert dir_state(h) is DirState.S  # stale tracking retained
        # ...and the fallback path still serves a later read correctly
        h.l2s[1].request(MsgType.RDBLK, ADDR)
        h.run()
        assert h.l2s[1].last_response().data.word(0) == 1

    def test_dma_read_leaves_state_untouched(self):
        h = DirHarness(policy=SHARERS)
        h.l2s[0].request(MsgType.RDBLKM, ADDR)
        h.run()
        h.l2s[0].behave(ADDR, had_copy=True, dirty=True, data=line_with(7))
        h.dma.request(MsgType.DMA_RD, ADDR)
        h.run()
        assert dir_state(h) is DirState.O
        assert dir_entry(h).owner == "l2.0"


class TestOwnerModeCounting:
    def test_owner_mode_tracks_sharer_count_not_identities(self):
        h = DirHarness(policy=OWNER)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.l2s[1].request(MsgType.RDBLKS, ADDR)
        h.run()
        entry = dir_entry(h)
        assert entry.sharers is None
        assert entry.sharer_count == 2

    def test_count_reaches_zero_frees_entry(self):
        h = DirHarness(policy=OWNER)
        h.l2s[0].request(MsgType.RDBLKS, ADDR)
        h.l2s[1].request(MsgType.RDBLKS, ADDR)
        h.run()
        h.l2s[0].request(MsgType.VIC_CLEAN, ADDR, data=ZERO_LINE)
        h.run()
        assert dir_state(h) is DirState.S
        h.l2s[1].request(MsgType.VIC_CLEAN, ADDR, data=ZERO_LINE)
        h.run()
        assert dir_state(h) is DirState.I


class TestValidation:
    def test_precise_directory_rejects_stateless_policy(self):
        from repro.coherence.policies import DirectoryPolicy

        with pytest.raises(ValueError, match="OWNER or SHARERS"):
            DirHarness.__init__  # appease linters
            from repro.coherence.precise import PreciseDirectory
            from repro.sim.clock import ClockDomain
            from repro.sim.event_queue import Simulator
            from repro.sim.network import Network
            from repro.mem.main_memory import MainMemory
            from repro.coherence.llc import LastLevelCache

            sim = Simulator()
            clock = ClockDomain("x", 1e9)
            network = Network(sim, clock)
            PreciseDirectory(
                sim, "dir", clock, network,
                LastLevelCache(), MainMemory(sim, clock), DirectoryPolicy(),
            )

    def test_pointer_limit_requires_sharers_kind(self):
        from repro.coherence.policies import DirectoryPolicy

        policy = DirectoryPolicy(sharer_pointer_limit=2)
        with pytest.raises(ValueError, match="requires kind=SHARERS"):
            policy.validate()


class TestLazyEntryStorage:
    """The directory pays only for the entries it actually holds."""

    def test_built_system_holds_no_entry_slots_or_views(self):
        from repro.system.builder import build_system
        from repro.system.config import SystemConfig

        system = build_system(SystemConfig(policy=SHARERS))
        for directory in system.directories:
            assert directory._sharer_bits is None  # built on first entry
            assert directory.dir_cache._lines == {}
