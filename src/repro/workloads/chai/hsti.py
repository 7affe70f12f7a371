"""hsti — Histogram, input partitioned (CHAI).

Collaboration pattern: **shared atomic accumulators**.  The input is
partitioned between CPU threads and GPU wavefronts; every agent atomically
increments the *shared* bin array (CPU atomics in the L2, GPU system-scope
atomics at the directory), so bin lines are heavily contended across
devices.
"""

from __future__ import annotations

from repro.mem.address import line_addr
from repro.mem.block import LineData
from repro.protocol.atomics import AtomicOp
from repro.workloads import trace as ops
from repro.workloads.base import (
    AddressSpace,
    KernelSpec,
    Workload,
    WorkloadBuild,
    WorkloadContext,
    checker,
    code_region,
)
from repro.workloads.chai.common import partition

BINS = 32
CPU_SHARE = 0.5


class HistogramInputPartitioned(Workload):
    name = "hsti"
    description = "input-partitioned histogram with cross-device atomic bins"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        input_words = ctx.scaled(384, minimum=64)
        rng = ctx.rng()
        space = AddressSpace()
        inputs = space.array(input_words)
        # bins spread over multiple lines (16 per line) — realistic false
        # sharing inside a bin line
        bins = space.array(BINS)
        code = code_region(space)

        samples = [rng.randrange(BINS) for _ in range(input_words)]
        initial: dict[int, LineData] = {}
        for i, addr in enumerate(inputs):
            line = line_addr(addr)
            data = initial.get(line, LineData())
            initial[line] = data.with_word((addr % 64) // 4, samples[i] + 1)

        cpu_words = int(input_words * CPU_SHARE)
        cpu_spans = partition(cpu_words, ctx.num_cpu_cores)

        def cpu_worker(lo: int, hi: int):
            def program():
                for i in range(lo, hi):
                    value = yield ops.Load(inputs[i])
                    yield ops.AtomicRMW(bins[value - 1], AtomicOp.ADD, 1)

            return program

        def gpu_wave(lo: int, hi: int):
            def program():
                span = list(range(lo, hi))
                for start in range(0, len(span), 16):
                    batch = span[start:start + 16]
                    values = yield ops.VLoad([inputs[i] for i in batch])
                    if not isinstance(values, tuple):
                        values = (values,)
                    for value in values:
                        yield ops.AtomicRMW(
                            bins[value - 1], AtomicOp.ADD, 1, scope="slc"
                        )

            return program

        num_wgs = max(2, 2 * ctx.num_cus)
        gpu_spans = partition(input_words - cpu_words, num_wgs)
        kernel = KernelSpec(
            "hsti_gpu",
            [
                [gpu_wave(cpu_words + lo, cpu_words + hi)]
                for lo, hi in gpu_spans
                if hi > lo
            ],
            code_addrs=code,
        )

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from cpu_worker(*cpu_spans[0])()
            yield ops.WaitKernel(handle)

        programs = [host] + [cpu_worker(lo, hi) for lo, hi in cpu_spans[1:]]

        expected_counts = [0] * BINS
        for sample in samples:
            expected_counts[sample] += 1
        expected = {bins[b]: expected_counts[b] for b in range(BINS)}
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "hsti bins")],
        )
