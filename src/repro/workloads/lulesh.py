"""Lulesh-like hydrodynamics proxy.

The paper evaluated Lulesh [15] alongside HeteroSync and found the same
limited benefit: a bulk-synchronous scientific kernel exchanges only thin
halos between per-device domains, so the system-level directory sees
little sharing relative to compute.

Structure reproduced: an iterative 1-D stencil over a mesh split into a
CPU half and a GPU half.  Each iteration every worker updates its interior
from its own previous values, then the two *halo* cells at the CPU/GPU
boundary are exchanged through flag-guarded handoffs — the only
cross-device coherence traffic per iteration.
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
from repro.workloads.chai.common import gpu_spin_flag, partition


def step(left: int, center: int, right: int) -> int:
    """The 'hydro' stencil — a deterministic integer surrogate."""
    return (left + 2 * center + right) // 4 + 1


class LuleshProxy(Workload):
    name = "lulesh"
    description = "bulk-synchronous stencil, CPU/GPU halves, halo exchange only"

    def __init__(self, mesh_cells: int = 128, iterations: int = 4) -> None:
        self.mesh_cells = mesh_cells
        self.iterations = iterations

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        cells = max(32, self.mesh_cells - self.mesh_cells % 2)
        half = cells // 2
        iterations = self.iterations
        space = AddressSpace()
        # double-buffered mesh: iteration parity picks source/destination
        mesh = [space.array(cells), space.array(cells)]
        # halo mailboxes + per-iteration flags, one per direction
        cpu_halo = space.lines(1)   # CPU boundary value -> GPU
        gpu_halo = space.lines(1)   # GPU boundary value -> CPU
        cpu_flag = space.lines(1)
        gpu_flag = space.lines(1)
        code = code_region(space)

        initial: dict[int, LineData] = {}
        values = [(i * 7) % 100 + 1 for i in range(cells)]
        for index, addr in enumerate(mesh[0]):
            line = line_addr(addr)
            data = initial.get(line, LineData())
            initial[line] = data.with_word((addr % 64) // 4, values[index])

        # reference computation (the expected final mesh)
        state = list(values)
        for _ in range(iterations):
            nxt = list(state)
            for index in range(cells):
                left = state[index - 1] if index > 0 else state[0]
                right = state[index + 1] if index < cells - 1 else state[-1]
                nxt[index] = step(left, state[index], right)
            state = nxt

        cpu_spans = partition(half, ctx.num_cpu_cores)
        # bulk-synchronous step barrier across the CPU threads (the GPU is
        # ordered by the halo flag exchange alone)
        cpu_barrier = ops.HostBarrier(len(cpu_spans))

        def cpu_worker(lo: int, hi: int, owns_boundary: bool):
            def program():
                for iteration in range(iterations):
                    yield ops.Barrier(cpu_barrier)
                    src, dst = mesh[iteration % 2], mesh[(iteration + 1) % 2]
                    if owns_boundary:
                        # publish our boundary cell, wait for the GPU's
                        boundary = yield ops.Load(src[half - 1])
                        yield ops.Store(cpu_halo, boundary)
                        yield ops.Store(cpu_flag, iteration + 1)
                        yield ops.SpinUntil(
                            gpu_flag, lambda v, want=iteration + 1: v >= want
                        )
                    for index in range(lo, hi):
                        left = yield ops.Load(src[index - 1] if index > 0 else src[0])
                        center = yield ops.Load(src[index])
                        if index == half - 1:
                            right = yield ops.Load(gpu_halo)
                        else:
                            right = yield ops.Load(src[index + 1])
                        # hydro kernels are compute-dominated: the FLOP
                        # cost per cell dwarfs the memory traffic
                        yield ops.Think(40)
                        yield ops.Store(dst[index], step(left, center, right))

            return program

        def gpu_wave():
            for iteration in range(iterations):
                src, dst = mesh[iteration % 2], mesh[(iteration + 1) % 2]
                boundary = yield ops.Load(src[half])
                yield ops.ReleaseFence()
                yield ops.AtomicRMW(gpu_halo, AtomicOp.EXCH, boundary, scope="slc")
                yield ops.AtomicRMW(gpu_flag, AtomicOp.EXCH, iteration + 1, scope="slc")
                yield from gpu_spin_flag(cpu_flag, want=iteration + 1)
                yield ops.AcquireFence()
                for start in range(half, cells, 16):
                    indices = list(range(start, min(start + 16, cells)))
                    lefts = yield ops.VLoad(
                        [src[i - 1] if i > half else cpu_halo for i in indices]
                    )
                    centers = yield ops.VLoad([src[i] for i in indices])
                    rights = yield ops.VLoad(
                        [src[i + 1] if i < cells - 1 else src[cells - 1]
                         for i in indices]
                    )
                    if not isinstance(lefts, tuple):
                        lefts, centers, rights = (lefts,), (centers,), (rights,)
                    yield ops.Think(120)
                    yield ops.VStore(
                        [dst[i] for i in indices],
                        [step(l, c, r) for l, c, r in zip(lefts, centers, rights)],
                    )
                yield ops.ReleaseFence()

        kernel = KernelSpec("lulesh_gpu", [[lambda: gpu_wave()]], code_addrs=code)

        def host():
            # the host runs the boundary span (it owns cell half-1, whose
            # stencil needs the GPU halo) — boundary publish/wait and the
            # computation must live on the same thread
            handle = yield ops.LaunchKernel(kernel)
            yield from cpu_worker(*cpu_spans[-1], owns_boundary=True)()
            yield ops.WaitKernel(handle)

        programs = [host]
        programs += [
            cpu_worker(lo, hi, owns_boundary=False) for lo, hi in cpu_spans[:-1]
        ]

        final_buffer = mesh[iterations % 2]
        expected = {final_buffer[i]: state[i] for i in range(cells)}
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "lulesh mesh")],
        )
