"""trns — In-Place Transposition (CHAI).

Collaboration pattern: **dynamic claiming of permutation cycles over a
shared in-place array**.  An M×N row-major matrix is transposed in place by
following the cycles of the transposition permutation; CPU threads and GPU
wavefronts claim cycle start points from a shared atomic counter and walk
"their" cycle, loading each element and storing it at its transposed
position.  Cycles are disjoint, but they interleave arbitrarily over the
matrix lines, so both devices keep writing into lines the other has just
touched — scattered RW sharing.
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
from repro.workloads.chai.common import token


def transposition_cycles(rows: int, cols: int) -> list[list[int]]:
    """Cycles of the in-place transposition permutation for an MxN matrix.

    Element at flat index ``i`` of the row-major MxN matrix moves to flat
    index ``(i * rows) mod (rows*cols - 1)`` (with the last element fixed).
    """
    size = rows * cols
    seen = [False] * size
    cycles = []
    for start in range(size):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            if i == size - 1 or i == 0:
                break
            i = (i * rows) % (size - 1)
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


class InPlaceTransposition(Workload):
    name = "trns"
    description = "in-place matrix transposition via atomically-claimed permutation cycles"

    ROWS = 8

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        rows = self.ROWS
        cols = ctx.scaled(48, minimum=8)
        size = rows * cols
        cycles = transposition_cycles(rows, cols)

        space = AddressSpace()
        cycle_counter = space.lines(1)
        matrix = space.array(size)
        code = code_region(space)

        initial: dict[int, LineData] = {}
        for i, addr in enumerate(matrix):
            line = line_addr(addr)
            data = initial.get(line, LineData())
            initial[line] = data.with_word((addr % 64) // 4, token(0, i))

        def walk_cycle_cpu(cycle: list[int]):
            """Walk one cycle: value at cycle[k] moves to cycle[k+1]."""
            def steps():
                carried = yield ops.Load(matrix[cycle[0]])
                for position in cycle[1:]:
                    displaced = yield ops.Load(matrix[position])
                    yield ops.Store(matrix[position], carried)
                    carried = displaced
                yield ops.Store(matrix[cycle[0]], carried)

            return steps

        def cpu_worker():
            def program():
                while True:
                    index = yield ops.AtomicRMW(cycle_counter, AtomicOp.ADD, 1)
                    if index >= len(cycles):
                        return
                    yield ops.Think(10)
                    yield from walk_cycle_cpu(cycles[index])()

            return program

        def gpu_worker():
            def program():
                while True:
                    index = yield ops.AtomicRMW(
                        cycle_counter, AtomicOp.ADD, 1, scope="slc"
                    )
                    if index >= len(cycles):
                        yield ops.ReleaseFence()
                        return
                    cycle = cycles[index]
                    yield ops.AcquireFence()
                    carried = yield ops.Load(matrix[cycle[0]])
                    for position in cycle[1:]:
                        displaced = yield ops.Load(matrix[position])
                        yield ops.Store(matrix[position], carried)
                        carried = displaced
                    yield ops.Store(matrix[cycle[0]], carried)
                    yield ops.ReleaseFence()

            return program

        gpu_waves = max(2, ctx.num_cus)
        kernel = KernelSpec(
            "trns_gpu", [[gpu_worker()] for _ in range(gpu_waves)], code_addrs=code
        )

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from cpu_worker()()
            yield ops.WaitKernel(handle)

        programs = [host] + [cpu_worker() for _ in range(ctx.num_cpu_cores - 1)]

        # expected: value from flat index i ends at (i*rows) mod (size-1)
        expected = {}
        for i in range(size):
            if i in (0, size - 1):
                destination = i
            else:
                destination = (i * rows) % (size - 1)
            expected[matrix[destination]] = token(0, i)
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "trns matrix")],
        )
