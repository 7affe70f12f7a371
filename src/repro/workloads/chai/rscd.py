"""rscd — Random Sample Consensus, data-parallel (CHAI).

Collaboration pattern: **partitioned evaluation with shared atomic
consensus**.  Every candidate model is evaluated by all agents, each over
its own partition of the point set; per-model inlier counts accumulate in
shared atomic words, and a packed (count, model) maximum is maintained with
atomic MAX.  Mostly data-parallel with low write sharing — the paper notes
rscd shows limited improvement (and that its CHAI original failed output
verification even in the baseline; this reproduction verifies).
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

THRESHOLD = 8
CPU_SHARE = 0.5


def is_inlier(point: int, model: int) -> bool:
    return abs((point % 64) - (model % 64)) < THRESHOLD


class RansacDataParallel(Workload):
    name = "rscd"
    description = "data-parallel RANSAC: partitioned points, atomic consensus counts"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        num_points = ctx.scaled(192, minimum=32)
        num_models = ctx.scaled(8, minimum=2)
        rng = ctx.rng()

        space = AddressSpace()
        points = space.array(num_points)
        models = space.array(num_models)
        consensus = space.array(num_models)
        best = space.lines(1)
        code = code_region(space)

        point_values = [rng.randrange(1, 1 << 16) for _ in range(num_points)]
        model_values = [rng.randrange(1, 1 << 16) for _ in range(num_models)]

        initial: dict[int, LineData] = {}
        for array, values in ((points, point_values), (models, model_values)):
            for i, addr in enumerate(array):
                line = line_addr(addr)
                data = initial.get(line, LineData())
                initial[line] = data.with_word((addr % 64) // 4, values[i])

        cpu_points = int(num_points * CPU_SHARE)
        cpu_spans = partition(cpu_points, ctx.num_cpu_cores)

        def cpu_worker(lo: int, hi: int):
            def program():
                model_cache = []
                for m in range(num_models):
                    model_cache.append((yield ops.Load(models[m])))
                for m, model in enumerate(model_cache):
                    count = 0
                    for i in range(lo, hi):
                        point = yield ops.Load(points[i])
                        if is_inlier(point, model):
                            count += 1
                    if count:
                        yield ops.AtomicRMW(consensus[m], AtomicOp.ADD, count)

            return program

        def gpu_wave(lo: int, hi: int):
            def program():
                model_cache = yield ops.VLoad(models)
                if not isinstance(model_cache, tuple):
                    model_cache = (model_cache,)
                for m, model in enumerate(model_cache):
                    count = 0
                    for start in range(lo, hi, 16):
                        idx = list(range(start, min(start + 16, hi)))
                        values = yield ops.VLoad([points[i] for i in idx])
                        if not isinstance(values, tuple):
                            values = (values,)
                        count += sum(1 for v in values if is_inlier(v, model))
                    if count:
                        yield ops.AtomicRMW(
                            consensus[m], AtomicOp.ADD, count, scope="slc"
                        )

            return program

        num_wgs = max(2, ctx.num_cus)
        gpu_spans = partition(num_points - cpu_points, num_wgs)
        kernel = KernelSpec(
            "rscd_gpu",
            [
                [gpu_wave(cpu_points + lo, cpu_points + hi)]
                for lo, hi in gpu_spans
                if hi > lo
            ],
            code_addrs=code,
        )

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from cpu_worker(*cpu_spans[0])()
            yield ops.WaitKernel(handle)
            # final reduction: packed (count << 8 | model) atomic max
            for m in range(num_models):
                count = yield ops.Load(consensus[m])
                yield ops.AtomicRMW(best, AtomicOp.MAX, (count << 8) | m)

        programs = [host] + [cpu_worker(lo, hi) for lo, hi in cpu_spans[1:]]

        expected_counts = [
            sum(1 for p in point_values if is_inlier(p, model))
            for model in model_values
        ]
        best_packed = max(
            (count << 8) | m for m, count in enumerate(expected_counts)
        )
        expected = {consensus[m]: expected_counts[m] for m in range(num_models)}
        expected[best] = best_packed
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "rscd consensus")],
        )
