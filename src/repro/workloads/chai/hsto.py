"""hsto — Histogram, output partitioned (CHAI).

Collaboration pattern: **read-only sharing of the whole input**.  Every
agent scans the *entire* input but owns a disjoint range of bins, counting
only matching samples (no atomics, no write sharing).  The full input being
streamed by 8 CPU threads and the GPU produces heavy read sharing and many
clean victims — the access pattern §III-B1 discusses (clean victims with
little reuse polluting the LLC).
"""

from __future__ import annotations

from repro.mem.address import line_addr
from repro.mem.block import LineData
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
GPU_BIN_SHARE = 0.5


class HistogramOutputPartitioned(Workload):
    name = "hsto"
    description = "output-partitioned histogram: full-input read sharing, private bins"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        input_words = ctx.scaled(384, minimum=64)
        rng = ctx.rng()
        space = AddressSpace()
        inputs = space.array(input_words)
        bins = space.array(BINS)
        code = code_region(space)

        samples = [rng.randrange(BINS) for _ in range(input_words)]
        initial: dict[int, LineData] = {}
        for i, addr in enumerate(inputs):
            line = line_addr(addr)
            data = initial.get(line, LineData())
            initial[line] = data.with_word((addr % 64) // 4, samples[i] + 1)

        gpu_bins = int(BINS * GPU_BIN_SHARE)
        cpu_bin_spans = partition(BINS - gpu_bins, ctx.num_cpu_cores)

        def cpu_worker(bin_lo: int, bin_hi: int):
            def program():
                counts = [0] * (bin_hi - bin_lo)
                for i in range(input_words):
                    value = (yield ops.Load(inputs[i])) - 1
                    if bin_lo <= value < bin_hi:
                        counts[value - bin_lo] += 1
                for offset, count in enumerate(counts):
                    yield ops.Store(bins[bin_lo + offset], count)

            return program

        def gpu_wave(bin_lo: int, bin_hi: int):
            def program():
                counts = [0] * (bin_hi - bin_lo)
                for start in range(0, input_words, 16):
                    idx = list(range(start, min(start + 16, input_words)))
                    values = yield ops.VLoad([inputs[i] for i in idx])
                    if not isinstance(values, tuple):
                        values = (values,)
                    for value in values:
                        if bin_lo <= value - 1 < bin_hi:
                            counts[value - 1 - bin_lo] += 1
                yield ops.VStore(
                    [bins[bin_lo + k] for k in range(len(counts))], counts
                )
                yield ops.ReleaseFence()

            return program

        gpu_base = BINS - gpu_bins
        num_wgs = max(1, min(gpu_bins, ctx.num_cus))
        gpu_spans = partition(gpu_bins, num_wgs)
        kernel = KernelSpec(
            "hsto_gpu",
            [
                [gpu_wave(gpu_base + lo, gpu_base + hi)]
                for lo, hi in gpu_spans
                if hi > lo
            ],
            code_addrs=code,
        )

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from cpu_worker(*cpu_bin_spans[0])()
            yield ops.WaitKernel(handle)

        programs = [host] + [cpu_worker(lo, hi) for lo, hi in cpu_bin_spans[1:]]

        expected_counts = [0] * BINS
        for sample in samples:
            expected_counts[sample] += 1
        expected = {bins[b]: expected_counts[b] for b in range(BINS)}
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "hsto bins")],
        )
