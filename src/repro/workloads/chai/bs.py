"""bs — Bezier Surface (CHAI).

Collaboration pattern: **coarse data partitioning**.  A small control-point
grid is read-shared by every agent; the output surface is partitioned into
disjoint tiles, the first portion computed by CPU threads and the rest by
GPU workgroups.  Coherence activity is low (read-only sharing of one hot
line plus disjoint writes), which is why the paper reports only limited
improvement on bs — reproducing that *insensitivity* is part of the
experiment.
"""

from __future__ import annotations

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

#: fraction of the surface computed on the CPU (CHAI's alpha parameter)
CPU_FRACTION = 0.4


class BezierSurface(Workload):
    name = "bs"
    description = "Bezier surface evaluation: read-shared control points, partitioned output"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        surface_points = ctx.scaled(768, minimum=64)
        space = AddressSpace()
        control = space.array(16)             # 4x4 control grid, one line
        surface = space.array(surface_points)
        code = code_region(space)

        control_values = [10 * (i + 1) for i in range(16)]
        base = sum(control_values)
        initial = {
            control[0] - (control[0] % 64): LineData(control_values),
        }

        cpu_points = int(surface_points * CPU_FRACTION)
        cpu_spans = partition(cpu_points, ctx.num_cpu_cores)
        gpu_lo, gpu_hi = cpu_points, surface_points

        def cpu_worker(lo: int, hi: int):
            def program():
                # every thread reads the shared control grid
                weights = 0
                for addr in control:
                    weights += yield ops.Load(addr)
                for index in range(lo, hi):
                    yield ops.Think(6)
                    yield ops.Store(surface[index], weights + 7 * index)

            return program

        def gpu_wave_direct(lo: int, hi: int):
            def program():
                values = yield ops.VLoad(control)
                weights = sum(values)
                span = list(range(lo, hi))
                for start in range(0, len(span), 16):
                    batch = span[start:start + 16]
                    yield ops.Think(10)
                    yield ops.VStore(
                        [surface[i] for i in batch],
                        [weights + 7 * i for i in batch],
                    )
                yield ops.ReleaseFence()

            return program

        num_wgs = max(2, 2 * ctx.num_cus)
        gpu_spans = partition(gpu_hi - gpu_lo, num_wgs)
        workgroups = [
            [gpu_wave_direct(gpu_lo + lo, gpu_lo + hi)]
            for lo, hi in gpu_spans
            if hi > lo
        ]
        kernel = KernelSpec("bs_kernel", workgroups, code_addrs=code)

        def host(lo: int, hi: int):
            def program():
                handle = yield ops.LaunchKernel(kernel)
                yield from cpu_worker(lo, hi)()
                yield ops.WaitKernel(handle)

            return program

        programs = [host(*cpu_spans[0])]
        programs += [cpu_worker(lo, hi) for lo, hi in cpu_spans[1:]]

        expected = {surface[i]: base + 7 * i for i in range(surface_points)}
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "bs surface")],
        )
