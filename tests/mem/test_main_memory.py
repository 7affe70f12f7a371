"""Tests for the DRAM model."""

from __future__ import annotations

import random

import pytest

from repro.mem.block import ZERO_LINE, LineData
from repro.mem.main_memory import MainMemory
from repro.sim.clock import ClockDomain
from repro.sim.event_queue import SimulationError, Simulator


def make_memory(sim, clock, latency=100, gap=10):
    return MainMemory(sim, clock, latency_cycles=latency, gap_cycles=gap)


def make_banked(sim, clock, latency=100, gap=10, banks=2, row_bytes=0,
                row_hit=None, row_miss=None, weights=None,
                queue_depth=0, scheduler="fifo"):
    return MainMemory(
        sim, clock, latency_cycles=latency, gap_cycles=gap,
        num_banks=banks, row_bytes=row_bytes,
        row_hit_latency_cycles=row_hit, row_miss_latency_cycles=row_miss,
        arb_weights=weights, queue_depth=queue_depth, scheduler=scheduler,
    )


class TestFunctionalStore:
    def test_fresh_memory_reads_zero(self, sim, clock):
        memory = make_memory(sim, clock)
        assert memory.peek(0x1000) == ZERO_LINE

    def test_poke_peek_roundtrip(self, sim, clock):
        memory = make_memory(sim, clock)
        data = ZERO_LINE.with_word(0, 7)
        memory.poke(0x40, data)
        assert memory.peek(0x40) == data

    def test_peek_has_no_timing_side_effects(self, sim, clock):
        memory = make_memory(sim, clock)
        memory.peek(0)
        assert memory.stats["reads"] == 0


class TestTimedChannel:
    def test_read_latency(self, sim, clock):
        memory = make_memory(sim, clock, latency=100)
        done = []
        memory.read(0x40, lambda data: done.append(sim.now))
        sim.run()
        assert done == [100_000]

    def test_read_returns_stored_data(self, sim, clock):
        memory = make_memory(sim, clock)
        data = ZERO_LINE.with_word(1, 11)
        memory.poke(0x40, data)
        results = []
        memory.read(0x40, results.append)
        sim.run()
        assert results == [data]

    def test_write_updates_store(self, sim, clock):
        memory = make_memory(sim, clock)
        data = ZERO_LINE.with_word(2, 5)
        memory.write(0x80, data)
        sim.run()
        assert memory.peek(0x80) == data

    def test_ordered_channel_gap_delays_second_access(self, sim, clock):
        memory = make_memory(sim, clock, latency=100, gap=10)
        done = []
        memory.read(0x0, lambda _d: done.append(sim.now))
        memory.read(0x40, lambda _d: done.append(sim.now))
        sim.run()
        assert done == [100_000, 110_000]

    def test_write_then_read_is_ordered(self, sim, clock):
        """A read issued after a write to the same line sees the new data."""
        memory = make_memory(sim, clock, latency=100, gap=10)
        data = ZERO_LINE.with_word(0, 1)
        results = []
        memory.write(0x40, data)
        memory.read(0x40, results.append)
        sim.run()
        assert results == [data]

    def test_access_counters(self, sim, clock):
        memory = make_memory(sim, clock)
        memory.read(0, lambda _d: None)
        memory.write(0x40, ZERO_LINE)
        memory.write(0x80, ZERO_LINE)
        sim.run()
        assert memory.stats["reads"] == 1
        assert memory.stats["writes"] == 2

    def test_channel_wait_accumulates(self, sim, clock):
        memory = make_memory(sim, clock, latency=10, gap=10)
        for i in range(3):
            memory.read(i * 64, lambda _d: None)
        sim.run()
        # second waits 10 cycles, third waits 20
        assert memory.stats["channel_wait_ticks"] == 30_000

    def test_pending_work_reported_while_outstanding(self, sim, clock):
        memory = make_memory(sim, clock, latency=100)
        memory.read(0, lambda _d: None)
        assert memory.pending_work() is not None
        sim.run()
        assert memory.pending_work() is None


class TestChannelWaitAllPaths:
    """``channel_wait_ticks`` must account every access path — read, write,
    and write_words — on the shared ordered channel."""

    def test_write_then_reads_wait(self, sim, clock):
        memory = make_memory(sim, clock, latency=10, gap=10)
        memory.write(0x0, ZERO_LINE.with_word(0, 1))
        memory.read(0x40, lambda _d: None)
        memory.read(0x80, lambda _d: None)
        sim.run()
        # reads wait 10 and 20 cycles behind the write's channel slot
        assert memory.stats["channel_wait_ticks"] == 30_000

    def test_write_words_occupies_the_channel(self, sim, clock):
        memory = make_memory(sim, clock, latency=10, gap=10)
        memory.write_words(0x0, {0: 1})
        memory.write_words(0x0, {1: 2})
        memory.read(0x0, lambda _d: None)
        sim.run()
        assert memory.stats["channel_wait_ticks"] == 30_000

    def test_mixed_burst_accounts_each_wait(self, sim, clock):
        memory = make_memory(sim, clock, latency=10, gap=10)
        memory.read(0x0, lambda _d: None)        # starts at 0
        memory.write(0x40, ZERO_LINE)            # waits 10
        memory.write_words(0x80, {0: 5})         # waits 20
        memory.read(0xC0, lambda _d: None)       # waits 30
        sim.run()
        assert memory.stats["channel_wait_ticks"] == 60_000

    def test_spaced_accesses_do_not_wait(self, sim, clock):
        memory = make_memory(sim, clock, latency=10, gap=10)
        memory.write(0x0, ZERO_LINE)
        sim.events.schedule(10_000, lambda: memory.write_words(0x0, {0: 1}))
        sim.events.schedule(20_000, lambda: memory.read(0x0, lambda _d: None))
        sim.run()
        assert memory.stats["channel_wait_ticks"] == 0


class TestWriteWordsCommitOrder:
    """The ISSUE satellite: interleaved reads / writes / partial writes to
    one line must observe program order under channel contention."""

    def test_rmw_chain_applies_in_program_order(self, sim, clock):
        memory = make_memory(sim, clock, latency=50, gap=10)
        results = []
        memory.write(0x40, LineData([10] * 16))
        memory.write_words(0x40, {0: 11})
        memory.write_words(0x40, {1: 12})
        memory.read(0x40, results.append)
        sim.run()
        # every write issued before the read is visible, word by word
        assert results[0].words[:3] == (11, 12, 10)
        assert memory.peek(0x40) == results[0]

    def test_read_captures_at_data_return(self, sim, clock):
        """The channel is non-blocking: a write issued before an earlier
        read's data returns is visible to that read — writes commit at
        issue, reads capture at completion."""
        memory = make_memory(sim, clock, latency=50, gap=10)
        results = []
        memory.read(0x40, results.append)       # data returns at cycle 50
        memory.write_words(0x40, {0: 99})       # commits at issue (cycle 0)
        sim.run()
        assert results[0].words[0] == 99

    def test_rmw_chain_program_order_in_banked_mode(self, sim, clock):
        memory = make_banked(sim, clock, latency=50, gap=10, banks=4)
        results = []
        memory.write(0x40, LineData([10] * 16))
        memory.write_words(0x40, {0: 11})
        memory.write_words(0x40, {1: 12})
        memory.read(0x40, results.append)
        sim.run()
        assert results[0].words[:2] == (11, 12)
        assert results[0].words[2] == 10

    def test_banked_order_holds_across_wrr_classes(self, sim, clock):
        """Arbitration may reorder *timing* across classes, never *values*:
        a read issued after writes from other classes sees all of them."""
        memory = make_banked(
            sim, clock, banks=2, weights={"cpu": 4, "gpu": 2, "dma": 1}
        )
        memory.set_classifier(lambda source: source)
        results = []
        memory.write(0x40, LineData([1] * 16), source="gpu")
        memory.write_words(0x40, {3: 7}, source="dma")
        memory.read(0x40, results.append, source="cpu")
        sim.run()
        assert results[0].words[3] == 7
        assert results[0].words[0] == 1


class TestBankedMemory:
    def test_bank_interleave_follows_line_address(self, sim, clock):
        memory = make_banked(sim, clock, banks=4)
        assert [memory.bank_of(i * 64) for i in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_different_banks_proceed_in_parallel(self, sim, clock):
        memory = make_banked(sim, clock, latency=100, gap=10, banks=2)
        done = []
        memory.read(0x0, lambda _d: done.append(sim.now))   # bank 0
        memory.read(0x40, lambda _d: done.append(sim.now))  # bank 1
        sim.run()
        assert done == [100_000, 100_000]

    def test_same_bank_serializes_on_gap(self, sim, clock):
        memory = make_banked(sim, clock, latency=100, gap=10, banks=2)
        done = []
        memory.read(0x0, lambda _d: done.append(sim.now))   # bank 0
        memory.read(0x80, lambda _d: done.append(sim.now))  # bank 0 again
        sim.run()
        assert done == [100_000, 110_000]
        assert memory.stats["bank_wait_ticks"] == 10_000

    def test_per_bank_access_counters(self, sim, clock):
        memory = make_banked(sim, clock, banks=2)
        memory.read(0x0, lambda _d: None)
        memory.read(0x40, lambda _d: None)
        memory.read(0x80, lambda _d: None)
        sim.run()
        banks = memory.stats.child("banks")
        assert banks["b0.accesses"] == 2
        assert banks["b1.accesses"] == 1

    def test_row_hit_pays_less_than_row_miss(self, sim, clock):
        memory = make_banked(
            sim, clock, banks=1, gap=10, row_bytes=1024,
            row_hit=50, row_miss=200,
        )
        done = []
        memory.read(0x0, lambda _d: done.append(sim.now))    # row 0: miss
        memory.read(0x40, lambda _d: done.append(sim.now))   # row 0: hit
        sim.run()
        # miss: 0 + 200 cycles; hit: granted at gap 10, +50 cycles
        assert sorted(done) == [60_000, 200_000]
        assert memory.stats["row_misses"] == 1
        assert memory.stats["row_hits"] == 1

    def test_row_change_closes_the_open_row(self, sim, clock):
        memory = make_banked(
            sim, clock, banks=1, gap=10, row_bytes=1024,
            row_hit=50, row_miss=200,
        )
        memory.read(0x0, lambda _d: None)      # row 0: miss
        memory.read(1024, lambda _d: None)     # row 1: miss (closes row 0)
        memory.read(0x40, lambda _d: None)     # row 0 again: miss
        sim.run()
        assert memory.stats["row_misses"] == 3
        assert memory.stats["row_hits"] == 0

    def test_banked_write_commits_at_issue(self, sim, clock):
        """Issue-order commit holds on the banked controller and on the
        flat channel (one bank, no row model) alike."""
        for banks in (2, 1):
            memory = make_banked(sim, clock, banks=banks)
            data = ZERO_LINE.with_word(0, banks)
            memory.read(0x0, lambda _d: None)  # the write waits a gap
            memory.write(0x80, data)
            # issue-order commit: visible functionally before any event runs
            assert memory.peek(0x80) == data
            memory.write_words(0x80, {1: 9})
            assert memory.peek(0x80) == data.merged({1: 9})

    def test_write_callback_not_reentrant(self, sim, clock):
        """Write completion must come through the event queue, never
        synchronously from inside ``write`` itself."""
        memory = make_banked(sim, clock, banks=2)
        fired = []
        memory.write(0x40, ZERO_LINE, callback=lambda: fired.append(sim.now))
        assert fired == []  # nothing ran inside write()
        sim.run()
        assert len(fired) == 1

    def test_classifier_buckets_traffic(self, sim, clock):
        memory = make_banked(sim, clock, banks=2, weights={"cpu": 2, "gpu": 1})
        memory.set_classifier(lambda source: "gpu" if source.startswith("tcc") else "cpu")
        memory.read(0x0, lambda _d: None, source="tcc0")
        memory.read(0x40, lambda _d: None, source="l2.0")
        memory.write(0x80, ZERO_LINE, source="tcc1")
        sim.run()
        classes = memory.stats.child("classes")
        assert classes["gpu"] == 2
        assert classes["cpu"] == 1

    def test_unsourced_access_defaults_to_other(self, sim, clock):
        memory = make_banked(sim, clock, banks=2, weights={"cpu": 2})
        memory.set_classifier(lambda source: "cpu")
        memory.read(0x0, lambda _d: None)
        sim.run()
        assert memory.stats.child("classes")["other"] == 1

    def test_pending_work_in_banked_mode(self, sim, clock):
        memory = make_banked(sim, clock, banks=2)
        memory.read(0, lambda _d: None)
        assert memory.pending_work() is not None
        sim.run()
        assert memory.pending_work() is None

    def test_invalid_bank_count_rejected(self, sim, clock):
        with pytest.raises(SimulationError, match=">= 1 bank"):
            MainMemory(sim, clock, num_banks=0)

    def test_row_bytes_must_be_line_multiple(self, sim, clock):
        with pytest.raises(SimulationError, match="row_bytes"):
            MainMemory(sim, clock, row_bytes=100)

    def test_flat_channel_ignores_source(self, sim, clock):
        """The zero-contention path must not change when callers pass a
        source — bit-identity with the golden stats depends on it."""
        memory = make_memory(sim, clock, latency=10, gap=10)
        done = []
        memory.read(0x0, lambda _d: done.append(sim.now), source="l2.0")
        sim.run()
        assert done == [10_000]
        # the classes child is bound at construction but stays empty
        assert "classes" in memory.stats.children()
        assert not any(
            key.startswith("memory.classes.") for key in memory.stats.as_dict()
        )


class TestBoundedBanks:
    """``queue_depth`` — bounded per-bank queues with overflow accounting
    and the stall callback the directory uses for back-pressure.

    The admitted depth counts *queued* accesses only: a bank grants its
    first access immediately, so with ``queue_depth = d`` it takes
    ``d + 2`` concurrent same-bank accesses to spill one."""

    def test_overflow_counts_spills_past_the_bound(self, sim, clock):
        memory = make_banked(sim, clock, banks=2, queue_depth=2)
        for i in range(3):
            memory.read(i * 0x80, lambda _d: None)  # all bank 0
        sim.run()
        assert memory.stats.as_dict().get("queue_overflows", 0) == 0
        memory2 = make_banked(sim, clock, banks=2, queue_depth=2)
        for i in range(4):
            memory2.read(i * 0x80, lambda _d: None)
        sim.run()
        assert memory2.stats["queue_overflows"] == 1

    def test_spilled_access_still_completes(self, sim, clock):
        memory = make_banked(sim, clock, latency=100, gap=10,
                             banks=2, queue_depth=1)
        done = []
        for i in range(3):
            memory.read(i * 0x80, lambda _d: done.append(sim.now))
        sim.run()
        # grants at 0 / 10 / 20 cycles: the spilled access is promoted
        # into the bank queue as soon as the second grant frees a slot
        assert done == [100_000, 110_000, 120_000]
        assert memory.stats["queue_overflows"] == 1
        # back-pressure was asserted from the spill (t=0) to the grant
        # that drained the overflow FIFO (t=10 cycles)
        assert memory.stats["stalled_ticks"] == 10_000

    def test_stall_callback_fires_once_per_episode(self, sim, clock):
        memory = make_banked(sim, clock, latency=100, gap=10,
                             banks=2, queue_depth=1)
        events = []
        memory.set_stall_callback(events.append)
        for i in range(5):
            memory.read(i * 0x80, lambda _d: None)
        sim.run()
        # three spills, but one stall episode: True on the first spill,
        # False when the last spilled access is promoted
        assert memory.stats["queue_overflows"] == 3
        assert events == [True, False]
        assert memory.stats["stalled_ticks"] == 30_000

    def test_blocked_snapshot_reflects_the_stall_window(self, sim, clock):
        memory = make_banked(sim, clock, banks=2, queue_depth=1)
        for i in range(3):
            memory.read(i * 0x80, lambda _d: None)
        # the third access spilled at tick 0; the watchdog's starvation
        # probe must see the stall start until the overflow drains
        assert memory.blocked_snapshot() == {"overflow": 0}
        assert "spilled" in memory.describe_queues()
        sim.run()
        assert memory.blocked_snapshot() == {}
        assert memory.describe_queues() == ""

    def test_bounded_queues_need_the_banked_controller(self, sim, clock):
        with pytest.raises(SimulationError, match="banked controller"):
            MainMemory(sim, clock, queue_depth=4)

    def test_negative_queue_depth_rejected(self, sim, clock):
        with pytest.raises(SimulationError, match="queue_depth"):
            MainMemory(sim, clock, num_banks=2, queue_depth=-1)


class TestFrFcfsScheduler:
    """``scheduler="frfcfs"`` — first-ready FCFS bank scheduling on top of
    the open-row model."""

    def make(self, sim, clock, scheduler, queue_depth=0):
        return make_banked(
            sim, clock, gap=10, banks=1, row_bytes=1024,
            row_hit=50, row_miss=200, scheduler=scheduler,
            queue_depth=queue_depth,
        )

    def test_row_hit_is_served_before_an_older_miss(self, sim, clock):
        memory = self.make(sim, clock, "frfcfs")
        done = []
        memory.read(0x0, lambda _d: done.append(("a", sim.now)))    # row 0
        memory.read(1024, lambda _d: done.append(("b", sim.now)))   # row 1
        memory.read(0x40, lambda _d: done.append(("c", sim.now)))   # row 0
        sim.run()
        # FR-FCFS promotes c past b while row 0 is open: a misses (200),
        # c hits (granted at gap 10, +50), b misses last (granted 20, +200)
        assert sorted(done, key=lambda e: e[1]) == [
            ("c", 60_000), ("a", 200_000), ("b", 220_000)
        ]
        assert memory.stats["row_hits"] == 1
        assert memory.stats["row_misses"] == 2

    def test_fifo_services_the_same_pattern_in_order(self, sim, clock):
        memory = self.make(sim, clock, "fifo")
        done = []
        memory.read(0x0, lambda _d: done.append(sim.now))
        memory.read(1024, lambda _d: done.append(sim.now))
        memory.read(0x40, lambda _d: done.append(sim.now))
        sim.run()
        # in arrival order every access changes the open row: all misses
        assert memory.stats["row_misses"] == 3
        assert memory.stats["row_hits"] == 0

    def test_promoted_overflow_access_joins_the_frfcfs_queue(self, sim, clock):
        memory = self.make(sim, clock, "frfcfs", queue_depth=1)
        done = []
        for i in range(3):
            memory.read(i * 0x40, lambda _d: done.append(sim.now))  # row 0
        sim.run()
        assert len(done) == 3
        assert memory.stats["queue_overflows"] == 1
        assert memory.stats["row_hits"] == 2

    def test_frfcfs_requires_the_open_row_model(self, sim, clock):
        with pytest.raises(SimulationError, match="open-row"):
            MainMemory(sim, clock, num_banks=2, scheduler="frfcfs")

    def test_unknown_scheduler_rejected(self, sim, clock):
        with pytest.raises(SimulationError, match="unknown memory scheduler"):
            MainMemory(sim, clock, num_banks=2, scheduler="lifo")


def _run_program(memory: MainMemory, sim: Simulator, program) -> dict:
    """Issue ``(tick, kind, addr, word)`` accesses at their ticks; return
    ``index -> (completion tick, read data or None)``."""
    done = {}

    def finish(index):
        return lambda data=None: done.__setitem__(index, (sim.now, data))

    def issue(index, kind, addr, word):
        if kind == "read":
            memory.read(addr, finish(index))
        elif kind == "write":
            memory.write(addr, LineData([word] * 16), callback=finish(index))
        else:
            memory.write_words(addr, {word % 16: word}, callback=finish(index))

    for index, (tick, kind, addr, word) in enumerate(program):
        sim.events.schedule(
            tick, lambda i=index, k=kind, a=addr, w=word: issue(i, k, a, w)
        )
    sim.run()
    return done


class TestFlatIsTheInOrderBank:
    """The flat channel is the one-bank, in-order case of the banked
    controller: against a two-bank controller whose accesses all map to
    bank 0, with one traffic class and no row model, every seeded random
    read / write / write_words sequence completes at the same ticks with
    the same data and the same total wait."""

    @staticmethod
    def program(seed: int) -> list:
        rng = random.Random(seed)
        return [
            (rng.randrange(60) * 1000,
             rng.choice(("read", "write", "write_words")),
             rng.randrange(4) * 128,          # even lines: bank 0 of 2
             rng.randrange(1, 1000))
            for _ in range(rng.randint(1, 12))
        ]

    def test_flat_matches_one_busy_bank(self):
        for seed in range(300):
            program = self.program(seed)
            runs = []
            for banks in (1, 2):
                sim = Simulator()
                memory = MainMemory(
                    sim, ClockDomain("test", 1e9),
                    latency_cycles=50, gap_cycles=10, num_banks=banks,
                )
                done = _run_program(memory, sim, program)
                wait = memory.stats["channel_wait_ticks" if banks == 1
                                    else "bank_wait_ticks"]
                runs.append((done, wait))
            assert len(runs[0][0]) == len(program), f"seed {seed}"
            assert runs[0] == runs[1], f"seed {seed}"
