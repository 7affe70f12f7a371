"""pad — Padding (CHAI).

Collaboration pattern: **in-place data reorganization with a fine-grained
cross-device flag chain**.  A dense row-major matrix is expanded in place
so every row gains padding words.  Rows must move from the last to the
first (a row's destination overlaps the following rows' old storage), so
each worker waits for the flag of the row after its own before moving its
row — and rows alternate between CPU threads and GPU wavefronts, making
the chain ping-pong dirty lines between the devices.
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
from repro.workloads.chai.common import gpu_spin_flag, token


class Padding(Workload):
    name = "pad"
    description = "in-place row padding with a backwards cross-device flag chain"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        rows = ctx.scaled(24, minimum=6)
        row_words = 16          # one line per unpadded row
        pad_words = 16          # one line of padding per row
        space = AddressSpace()
        # final layout: rows * (row_words + pad_words); initial data occupies
        # the first rows*row_words words of the same array.
        matrix = space.array(rows * (row_words + pad_words))
        flags = [space.lines(1) for _ in range(rows + 1)]
        code = code_region(space)

        def old_addr(row: int, col: int) -> int:
            return matrix[row * row_words + col]

        def new_addr(row: int, col: int) -> int:
            return matrix[row * (row_words + pad_words) + col]

        initial: dict[int, LineData] = {}
        for row in range(rows):
            for col in range(row_words):
                addr = old_addr(row, col)
                line = line_addr(addr)
                data = initial.get(line, LineData())
                initial[line] = data.with_word((addr % 64) // 4, token(row, col))

        def cpu_move_row(row: int):
            def program():
                yield ops.SpinUntil(flags[row + 1], lambda v: v >= 1)
                values = []
                for col in range(row_words):
                    values.append((yield ops.Load(old_addr(row, col))))
                for col, value in enumerate(values):
                    yield ops.Store(new_addr(row, col), value)
                for col in range(pad_words):
                    yield ops.Store(new_addr(row, row_words + col), 0)
                yield ops.Store(flags[row], 1)

            return program

        def gpu_move_row(row: int):
            def program():
                yield from gpu_spin_flag(flags[row + 1])
                yield ops.AcquireFence()
                values = yield ops.VLoad([old_addr(row, c) for c in range(row_words)])
                if not isinstance(values, tuple):
                    values = (values,)
                yield ops.VStore(
                    [new_addr(row, c) for c in range(row_words)], list(values)
                )
                yield ops.VStore(
                    [new_addr(row, row_words + c) for c in range(pad_words)], 0
                )
                yield ops.ReleaseFence()
                yield ops.AtomicRMW(flags[row], AtomicOp.EXCH, 1, scope="slc")

            return program

        gpu_rows = [row for row in range(rows) if row % 2 == 0]
        cpu_rows = [row for row in range(rows) if row % 2 == 1]

        # Workgroups are dispatched in list order; the chain resolves from
        # the last row downwards, so dispatch the highest rows first —
        # otherwise low-row wavefronts could occupy every CU slot while
        # spinning on rows whose wavefronts are still queued (deadlock).
        kernel = KernelSpec(
            "pad_gpu",
            [[gpu_move_row(row)] for row in sorted(gpu_rows, reverse=True)],
            code_addrs=code,
        )

        # CPU rows are distributed round-robin over the worker threads; each
        # thread handles its rows from the highest down (chain order).
        threads = ctx.num_cpu_cores
        per_thread: list[list[int]] = [[] for _ in range(threads)]
        for position, row in enumerate(sorted(cpu_rows, reverse=True)):
            per_thread[position % threads].append(row)

        def cpu_thread(thread_id: int, with_host: bool):
            def program():
                handle = None
                if with_host:
                    handle = yield ops.LaunchKernel(kernel)
                    # the chain starts at the sentinel flag after the last row
                    yield ops.Store(flags[rows], 1)
                for row in per_thread[thread_id]:
                    yield from cpu_move_row(row)()
                if with_host:
                    yield ops.WaitKernel(handle)

            return program

        programs = [cpu_thread(t, with_host=(t == 0)) for t in range(threads)]

        expected = {}
        for row in range(rows):
            for col in range(row_words):
                expected[new_addr(row, col)] = token(row, col)
            for col in range(pad_words):
                expected[new_addr(row, row_words + col)] = 0
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "pad layout")],
        )
