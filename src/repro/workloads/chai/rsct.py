"""rsct — Random Sample Consensus, task-parallel (CHAI).

Collaboration pattern: **producer/consumer model pipeline**.  CPU threads
*generate* candidate models into a shared queue (atomic tail + per-slot
ready flag); persistent GPU wavefronts dequeue models (atomic head),
evaluate each over the whole point set, write its consensus count, and
update a packed atomic maximum.  Unlike rscd, every model handoff crosses
the CPU→GPU boundary — fine-grained task parallelism like tq, plus heavy
read streaming on the GPU side.
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
from repro.workloads.chai.rscd import is_inlier


class RansacTaskParallel(Workload):
    name = "rsct"
    description = "task-parallel RANSAC: CPU model generation, GPU evaluation via a queue"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        num_points = ctx.scaled(128, minimum=32)
        num_models = ctx.scaled(24, minimum=4)
        rng = ctx.rng()

        space = AddressSpace()
        tail = space.lines(1)
        head = space.lines(1)
        model_slots = space.words(num_models)   # one line per slot: no false sharing
        flags = space.words(num_models)
        consensus = space.array(num_models)
        best = space.lines(1)
        points = space.array(num_points)
        code = code_region(space)

        point_values = [rng.randrange(1, 1 << 16) for _ in range(num_points)]
        initial: dict[int, LineData] = {}
        for i, addr in enumerate(points):
            line = line_addr(addr)
            data = initial.get(line, LineData())
            initial[line] = data.with_word((addr % 64) // 4, point_values[i])

        def model_value(index: int) -> int:
            # deterministic "random" model parameters derived from the slot
            return (index * 2654435761) % (1 << 16) + 1

        def producer(lo: int, hi: int):
            def program():
                for _ in range(lo, hi):
                    slot = yield ops.AtomicRMW(tail, AtomicOp.ADD, 1)
                    yield ops.Think(30)  # model generation cost
                    yield ops.Store(model_slots[slot], model_value(slot))
                    yield ops.Store(flags[slot], 1)

            return program

        def consumer_wave():
            def program():
                while True:
                    index = yield ops.AtomicRMW(head, AtomicOp.ADD, 1, scope="slc")
                    if index >= num_models:
                        return
                    yield from gpu_spin_flag(flags[index])
                    yield ops.AcquireFence()
                    model = yield ops.Load(model_slots[index])
                    count = 0
                    for start in range(0, num_points, 16):
                        idx = list(range(start, min(start + 16, num_points)))
                        values = yield ops.VLoad([points[i] for i in idx])
                        if not isinstance(values, tuple):
                            values = (values,)
                        count += sum(1 for v in values if is_inlier(v, model))
                    yield ops.Store(consensus[index], count)
                    yield ops.ReleaseFence()
                    yield ops.AtomicRMW(
                        best, AtomicOp.MAX, (count << 8) | index, scope="slc"
                    )

            return program

        consumers = max(2, ctx.num_cus)
        kernel = KernelSpec(
            "rsct_gpu", [[consumer_wave()] for _ in range(consumers)], code_addrs=code
        )
        producer_spans = partition(num_models, ctx.num_cpu_cores)

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from producer(*producer_spans[0])()
            yield ops.WaitKernel(handle)

        programs = [host] + [producer(lo, hi) for lo, hi in producer_spans[1:]]

        expected_counts = [
            sum(1 for p in point_values if is_inlier(p, model_value(m)))
            for m in range(num_models)
        ]
        best_packed = max(
            (count << 8) | m for m, count in enumerate(expected_counts)
        )
        expected = {consensus[m]: expected_counts[m] for m in range(num_models)}
        expected[best] = best_packed
        expected[tail] = num_models
        return WorkloadBuild(
            cpu_programs=programs,
            initial_memory=initial,
            checks=[checker(expected, "rsct consensus")],
        )
