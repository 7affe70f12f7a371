"""Microbenchmarks isolating single coherence mechanisms.

These are not part of the CHAI suite; they exist so tests and ablations can
exercise one protocol path at a time:

- :class:`ReadersWriterSweep` — every CPU thread reads a block of lines
  (building wide S-state sharing at the directory), then one writer
  invalidates them all, repeatedly.  This is the pattern where sharer
  *multicast* beats owner-mode *broadcast* and where limited-pointer
  overflow shows up.
- :class:`MigratoryCounter` — a counter line ping-pongs between every CPU
  core and GPU system-scope atomics: the dirty-owner probe path.
- :class:`StreamingScan` — each thread streams a large private region once
  (pure capacity traffic: clean victims, LLC victim-cache behaviour).
"""

from __future__ import annotations

from repro.protocol.atomics import AtomicOp
from repro.workloads import trace as ops
from repro.workloads.base import (
    AddressSpace,
    Workload,
    WorkloadBuild,
    WorkloadContext,
    checker,
)


class ReadersWriterSweep(Workload):
    name = "micro_readers_writer"
    description = "all threads read-share a block; one writer invalidates it each round"

    def __init__(self, lines: int = 8, rounds: int = 6) -> None:
        self.lines = lines
        self.rounds = rounds

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        block = [space.lines(1) for _ in range(self.lines)]
        round_flag = space.lines(1)
        ack_flags = [space.lines(1) for _ in range(ctx.num_cpu_cores)]
        rounds = self.rounds

        def writer():
            for round_index in range(rounds):
                # wait until every reader has read this round's data
                for flag in ack_flags[1:]:
                    yield ops.SpinUntil(flag, lambda v, r=round_index: v > r)
                for addr in block:
                    yield ops.Store(addr, round_index + 1)
                yield ops.Store(round_flag, round_index + 1)
                value = yield ops.Load(block[0])
                yield ops.Store(ack_flags[0], value)

        def reader(reader_id: int):
            def program():
                for round_index in range(rounds):
                    total = 0
                    for addr in block:
                        total += yield ops.Load(addr)
                    yield ops.Think(20)
                    yield ops.Store(ack_flags[reader_id], round_index + 1)
                    yield ops.SpinUntil(round_flag, lambda v, r=round_index: v > r)

            return program

        programs = [writer] + [reader(i) for i in range(1, ctx.num_cpu_cores)]
        expected = {addr: rounds for addr in block}
        return WorkloadBuild(
            cpu_programs=programs,
            checks=[checker(expected, "readers-writer block")],
        )


class MigratoryCounter(Workload):
    name = "micro_migratory"
    description = "one counter line migrates between all cores via atomics"

    def __init__(self, increments_per_thread: int = 40) -> None:
        self.increments = increments_per_thread

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        counter = space.lines(1)

        def bumper():
            for _ in range(self.increments):
                yield ops.AtomicRMW(counter, AtomicOp.ADD, 1)
                yield ops.Think(10)

        programs = [bumper] * ctx.num_cpu_cores
        expected = {counter: self.increments * ctx.num_cpu_cores}
        return WorkloadBuild(
            cpu_programs=programs,
            checks=[checker(expected, "migratory counter")],
        )


class ReadOnlySharedScan(Workload):
    """Every thread repeatedly scans a shared *read-only* block.

    The block's address range is fixed at construction (``self.region``) so
    a :class:`DirectoryPolicy` can declare it read-only before the system
    is built — the conclusion's "not tracking read-only pages" future work.
    Results are written outside the region.
    """

    name = "micro_readonly_scan"
    description = "all threads stream a shared read-only block; results outside it"

    BASE_LINE = 16  # AddressSpace's first line

    def __init__(self, lines: int = 96, passes: int = 2) -> None:
        self.lines = lines
        self.passes = passes
        from repro.mem.address import LINE_BYTES

        self.region = (
            self.BASE_LINE * LINE_BYTES,
            (self.BASE_LINE + lines) * LINE_BYTES,
        )

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        from repro.mem.address import LINE_BYTES, line_addr
        from repro.mem.block import LineData

        space = AddressSpace(base_line=self.BASE_LINE)
        block = [space.lines(1) for _ in range(self.lines)]
        assert (block[0], block[-1] + LINE_BYTES) == self.region
        results = space.words(ctx.num_cpu_cores)

        initial: dict[int, LineData] = {}
        for index, addr in enumerate(block):
            initial[line_addr(addr)] = LineData([index + 1] + [0] * 15)

        def scanner(tid: int):
            def program():
                total = 0
                for _ in range(self.passes):
                    for addr in block:
                        total += yield ops.Load(addr)
                yield ops.Store(results[tid], total)

            return program

        expected_total = self.passes * sum(range(1, self.lines + 1))
        programs = [scanner(tid) for tid in range(ctx.num_cpu_cores)]
        expected = {results[tid]: expected_total for tid in range(ctx.num_cpu_cores)}
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "readonly scan totals")],
        )


class DirtySharingChain(Workload):
    """Owner write-back with remaining dirty sharers, repeatedly.

    Each round: a writer dirties a block; readers pull dirty-shared copies
    (directory O + sharers); the writer then streams a flush region large
    enough to evict the block (VicDirty with sharers still tracked); the
    readers re-read.  Preserving the sharers (Table I's O→S) makes the
    re-reads local L2 hits; the conservative §VII variant invalidates them,
    forcing refetches — the probe/traffic delta this microbenchmark exposes.
    """

    name = "micro_dirty_sharing"
    description = "owner write-back under dirty sharers, per-round flag chain"

    def __init__(self, lines: int = 8, rounds: int = 4, flush_lines: int = 48) -> None:
        self.lines = lines
        self.rounds = rounds
        self.flush_lines = flush_lines

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        block = [space.lines(1) for _ in range(self.lines)]
        flush_region = [space.lines(1) for _ in range(self.flush_lines)]
        written = space.lines(1)
        acked = space.lines(1)
        evicted = space.lines(1)
        reread = space.lines(1)
        readers = max(1, ctx.num_cpu_cores - 1)

        def writer():
            for round_index in range(self.rounds):
                for offset, addr in enumerate(block):
                    yield ops.Store(addr, (round_index + 1) * 1000 + offset)
                yield ops.AtomicRMW(written, AtomicOp.ADD, 1)
                yield ops.SpinUntil(
                    acked, lambda v, want=(round_index + 1) * readers: v >= want
                )
                # stream the flush region to evict the (now owned-O) block
                for addr in flush_region:
                    yield ops.Load(addr)
                yield ops.AtomicRMW(evicted, AtomicOp.ADD, 1)
                yield ops.SpinUntil(
                    reread, lambda v, want=(round_index + 1) * readers: v >= want
                )

        def reader(_rid: int):
            def program():
                for round_index in range(self.rounds):
                    yield ops.SpinUntil(written, lambda v, w=round_index + 1: v >= w)
                    for addr in block:
                        yield ops.Load(addr)
                    yield ops.AtomicRMW(acked, AtomicOp.ADD, 1)
                    yield ops.SpinUntil(evicted, lambda v, w=round_index + 1: v >= w)
                    for addr in block:
                        yield ops.Load(addr)  # the contested re-read
                    yield ops.AtomicRMW(reread, AtomicOp.ADD, 1)

            return program

        programs = [writer] + [reader(r) for r in range(readers)]
        expected = {
            block[offset]: self.rounds * 1000 + offset
            for offset in range(self.lines)
        }
        return WorkloadBuild(
            cpu_programs=programs,
            checks=[checker(expected, "dirty-sharing block")],
        )


class StreamingScan(Workload):
    name = "micro_streaming"
    description = "each thread streams a private region once (clean-victim capacity traffic)"

    def __init__(self, lines_per_thread: int = 96) -> None:
        self.lines_per_thread = lines_per_thread

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        regions = [
            [space.lines(1) for _ in range(self.lines_per_thread)]
            for _ in range(ctx.num_cpu_cores)
        ]

        def scanner(region: list[int]):
            def program():
                # write once (dirty victims), then stream-read twice
                for addr in region:
                    yield ops.Store(addr, addr)
                for _ in range(2):
                    for addr in region:
                        yield ops.Load(addr)

            return program

        programs = [scanner(region) for region in regions]
        expected = {region[0]: region[0] for region in regions}
        return WorkloadBuild(
            cpu_programs=programs,
            checks=[checker(expected, "streaming regions")],
        )
