"""Unit tests for the TCC (GPU shared L2)."""

from __future__ import annotations

import pytest

from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.protocol.messages import Message
from repro.protocol.types import MoesiState, MsgType, ProbeType

from tests.cpu.harness import DirScript
from tests.gpu.harness import GpuHarness

ADDR = 0x6000


def line_with(value: int):
    return ZERO_LINE.with_word(0, value)


class TestFetch:
    def test_miss_fetches_from_directory(self):
        h = GpuHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(5))
        results = []
        h.tcc.fetch(ADDR, lambda data: results.append(data.word(0)))
        h.run()
        assert results == [5]
        assert len(h.directory.requests_of(MsgType.RDBLK)) == 1
        assert h.tcc.stats["misses"] == 1

    def test_hit_does_not_request(self):
        h = GpuHarness()
        results = []
        h.tcc.fetch(ADDR, lambda _d: None)
        h.run()
        h.tcc.fetch(ADDR, lambda data: results.append(data))
        h.run()
        assert len(h.directory.requests) == 1
        assert h.tcc.stats["hits"] == 1

    def test_concurrent_misses_merge_in_mshr(self):
        h = GpuHarness()
        h.directory.respond = False
        calls = []
        h.tcc.fetch(ADDR, lambda _d: calls.append(1))
        h.tcc.fetch(ADDR, lambda _d: calls.append(2))
        h.sim.events.run(until=h.sim.now + 100_000)
        assert len(h.directory.requests) == 1
        h.directory.release(h.directory.requests[0])
        h.run()
        assert sorted(calls) == [1, 2]

    def test_exclusive_grant_is_ignored(self):
        """'if exclusive status is granted, it is ignored by the TCC'."""
        h = GpuHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.E, line_with(1))
        h.tcc.fetch(ADDR, lambda _d: None)
        h.run()
        cached = h.tcc.array.lookup(ADDR, touch=False)
        assert cached is not None
        assert not cached.dirty  # just a valid VI line


class TestWriteThroughMode:
    def test_store_sends_masked_wt(self):
        h = GpuHarness(tcc_writeback=False)
        done = []
        h.tcc.write(ADDR, {3: 30}, lambda: done.append(True))
        h.run()
        wts = h.directory.requests_of(MsgType.WT)
        assert len(wts) == 1
        assert wts[0].word_updates == {3: 30}
        assert done == [True]

    def test_store_does_not_allocate(self):
        h = GpuHarness(tcc_writeback=False)
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.run()
        assert h.tcc.array.lookup(ADDR, touch=False) is None

    def test_store_updates_present_copy(self):
        h = GpuHarness(tcc_writeback=False)
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(5))
        h.tcc.fetch(ADDR, lambda _d: None)
        h.run()
        h.tcc.write(ADDR, {0: 9}, lambda: None)
        h.run()
        assert h.tcc_word(ADDR) == 9

    def test_drain_waits_for_wt_acks(self):
        h = GpuHarness(tcc_writeback=False)
        h.directory.respond = False
        drained = []
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.sim.events.run(until=h.sim.now + 50_000)
        h.tcc.drain(lambda: drained.append(True))
        assert not drained
        h.directory.release(h.directory.requests[-1])
        h.run()
        assert drained == [True]

    def test_wt_acks_count_down_per_line(self):
        h = GpuHarness(tcc_writeback=False)
        h.directory.respond = False
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.tcc.write(ADDR, {1: 2}, lambda: None)
        h.sim.events.run(until=h.sim.now + 50_000)
        first, second = h.directory.requests_of(MsgType.WT)
        h.directory.release(first)
        h.sim.events.run(until=h.sim.now + 50_000)
        assert h.tcc.pending_work() == "1 WTs in flight"
        h.directory.release(second)
        h.run()
        assert h.tcc.pending_work() is None

    def test_wt_ack_without_pending_wt_raises(self):
        from repro.gpu.tcc import TccError

        h = GpuHarness(tcc_writeback=False)
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.run()
        stray = Message(MsgType.WT_ACK, "dir", "tcc0", ADDR)
        with pytest.raises(TccError, match="WT ack without pending WT"):
            h.tcc.handle_message(stray)


class TestWriteBackMode:
    def test_store_fetches_then_dirties(self):
        h = GpuHarness(tcc_writeback=True)
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(5))
        h.tcc.write(ADDR, {1: 10}, lambda: None)
        h.run()
        cached = h.tcc.array.lookup(ADDR, touch=False)
        assert cached.dirty
        assert cached.data.word(0) == 5   # fetched base preserved
        assert cached.data.word(1) == 10
        assert h.directory.requests_of(MsgType.WT) == []  # nothing written yet

    def test_flush_writes_back_only_dirty_words_and_retains_line(self):
        h = GpuHarness(tcc_writeback=True)
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.run()
        flushed = []
        h.tcc.flush(lambda: flushed.append(True))
        h.run()
        wts = h.directory.requests_of(MsgType.WT)
        assert len(wts) == 1
        # flush cleans but *retains* the line (streaming-WT semantics) and
        # writes back only the dirtied words, never the whole fetched line
        assert not wts[0].is_writeback
        assert wts[0].word_updates == {0: 1}
        assert flushed == [True]
        cached = h.tcc.array.lookup(ADDR, touch=False)
        assert cached is not None and not cached.dirty

    def test_flush_writes_back_the_words_of_every_store(self):
        h = GpuHarness(tcc_writeback=True)
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(5))
        h.tcc.write(ADDR, {3: 7}, lambda: None)
        h.run()
        h.tcc.write(ADDR, {9: 1, 3: 8}, lambda: None)
        h.run()
        h.tcc.flush(lambda: None)
        h.run()
        wts = h.directory.requests_of(MsgType.WT)
        assert [wt.word_updates for wt in wts] == [{3: 8, 9: 1}]

    def test_dirty_eviction_writes_back(self):
        h = GpuHarness(tcc_writeback=True, tcc_geometry=(128, 2))
        # dirty two lines in the same (single) set, then fetch a third
        h.tcc.write(0x0, {0: 1}, lambda: None)
        h.tcc.write(0x80, {0: 2}, lambda: None)
        h.run()
        h.tcc.fetch(0x100, lambda _d: None)
        h.run()
        wts = h.directory.requests_of(MsgType.WT)
        assert len(wts) == 1
        assert wts[0].is_writeback
        assert h.tcc.stats["dirty_evictions"] == 1


class TestAtomics:
    def test_slc_atomic_goes_to_directory(self):
        h = GpuHarness()
        olds = []
        h.tcc.atomic(ADDR, 0, AtomicOp.ADD, 5, 0, "slc", olds.append)
        h.run()
        assert len(h.directory.requests_of(MsgType.ATOMIC)) == 1
        assert olds == [0]

    def test_slc_atomic_bypasses_and_invalidates_local_copy(self):
        h = GpuHarness()
        h.tcc.fetch(ADDR, lambda _d: None)
        h.run()
        h.tcc.atomic(ADDR, 0, AtomicOp.INC, 0, 0, "slc", lambda _old: None)
        h.run()
        assert h.tcc.array.lookup(ADDR, touch=False) is None

    def test_slc_atomic_carries_dirty_words_from_bypassed_copy(self):
        """WB mode: invalidating our own dirty copy for an SLC bypass must
        not lose its words — they ride in the atomic request."""
        h = GpuHarness(tcc_writeback=True)
        h.tcc.write(ADDR, {3: 33}, lambda: None)
        h.run()
        h.tcc.atomic(ADDR, 0, AtomicOp.INC, 0, 0, "slc", lambda _old: None)
        h.run()
        request = h.directory.requests_of(MsgType.ATOMIC)[-1]
        assert request.word_updates == {3: 33}
        assert h.tcc.stats["dirty_words_carried_on_bypass"] == 1

    def test_glc_atomic_executes_locally(self):
        h = GpuHarness(tcc_writeback=True)
        h.directory.script[ADDR] = DirScript(MoesiState.S, line_with(10))
        olds = []
        h.tcc.atomic(ADDR, 0, AtomicOp.ADD, 5, 0, "glc", olds.append)
        h.run()
        assert olds == [10]
        assert h.tcc_word(ADDR) == 15
        assert h.directory.requests_of(MsgType.ATOMIC) == []  # device scope

    def test_glc_atomic_in_wt_mode_writes_through_result(self):
        h = GpuHarness(tcc_writeback=False)
        h.tcc.atomic(ADDR, 0, AtomicOp.INC, 0, 0, "glc", lambda _o: None)
        h.run()
        wts = h.directory.requests_of(MsgType.WT)
        assert len(wts) == 1
        assert wts[0].word_updates == {0: 1}

    def test_unknown_scope_raises(self):
        from repro.gpu.tcc import TccError

        h = GpuHarness()
        h.tcc.atomic(ADDR, 0, AtomicOp.INC, 0, 0, "warp", lambda _o: None)
        with pytest.raises(TccError, match="unknown atomic scope"):
            h.run()


class TestProbes:
    def test_invalidating_probe_drops_line_without_forwarding(self):
        h = GpuHarness()
        h.tcc.fetch(ADDR, lambda _d: None)
        h.run()
        h.directory.probe("tcc0", ADDR, ProbeType.INVALIDATE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert ack.had_copy
        assert ack.data is None  # the TCC never forwards data
        assert h.tcc.array.lookup(ADDR, touch=False) is None

    def test_invalidating_probe_forwards_dirty_words_only(self):
        """No line data is forwarded (§II-C), but the word-granular dirty
        mask rides in the ack so false sharing never loses writes."""
        h = GpuHarness(tcc_writeback=True)
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.run()
        h.directory.probe("tcc0", ADDR, ProbeType.INVALIDATE)
        h.run()
        ack = h.directory.probe_acks[-1]
        assert ack.data is None           # never a full line
        assert not ack.dirty
        assert ack.word_updates == {0: 1}
        assert h.tcc.stats["dirty_words_forwarded_on_probe"] == 1
        assert h.tcc.array.lookup(ADDR, touch=False) is None

    def test_probe_miss_acks_no_copy(self):
        h = GpuHarness()
        h.directory.probe("tcc0", ADDR, ProbeType.INVALIDATE)
        h.run()
        assert not h.directory.probe_acks[-1].had_copy


class TestRelease:
    def test_release_flushes_then_sends_flush(self):
        h = GpuHarness(tcc_writeback=True)
        h.tcc.write(ADDR, {0: 1}, lambda: None)
        h.run()
        released = []
        h.tcc.release(lambda: released.append(True))
        h.run()
        assert released == [True]
        types = [m.mtype for m in h.directory.requests]
        # the write-back WT precedes the Flush fence
        assert types.index(MsgType.WT) < types.index(MsgType.FLUSH)

    def test_invalidate_all(self):
        h = GpuHarness()
        h.tcc.fetch(ADDR, lambda _d: None)
        h.tcc.fetch(ADDR + 0x40, lambda _d: None)
        h.run()
        h.tcc.invalidate_all()
        assert len(list(h.tcc.array.iter_valid())) == 0
