"""tq — Task Queue System (CHAI).

Collaboration pattern: **fine-grained task parallelism through an unpaired
work queue**.  CPU producer threads claim queue slots with an atomic tail
counter, write task payloads, and publish each slot with a per-slot ready
flag; persistent GPU wavefronts dequeue with an atomic head counter, spin
on the slot flag (system-scope reads), acquire, process the payload, and
write results.  This is the suite's most heavily collaborating benchmark —
continuous CPU→GPU dirty-data handoffs on queue lines plus contended
atomics on head/tail — and the one the paper's state-tracking directory
helps most.
"""

from __future__ import annotations

from repro.mem.address import LINE_BYTES
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
from repro.workloads.chai.common import gpu_spin_flag, partition, token

#: payload words per task (the rest of the task line holds the ready flag)
PAYLOAD_WORDS = 8
FLAG_WORD = 15


class TaskQueue(Workload):
    name = "tq"
    description = "CPU producers feed persistent GPU consumer wavefronts via an atomic work queue"

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        num_tasks = ctx.scaled(96, minimum=8)
        space = AddressSpace()
        tail = space.lines(1)              # producers' slot-claim counter
        head = space.lines(1)              # consumers' dequeue counter
        slots = space.lines(num_tasks)     # one line per task
        results = space.array(num_tasks)
        code = code_region(space)

        def slot_addr(index: int, word: int) -> int:
            return slots + index * LINE_BYTES + 4 * word

        def payload_value(index: int, word: int) -> int:
            return token(index, word)

        def expected_result(index: int) -> int:
            return sum(payload_value(index, w) for w in range(PAYLOAD_WORDS))

        def producer(lo: int, hi: int):
            def program():
                for _ in range(lo, hi):
                    slot = yield ops.AtomicRMW(tail, AtomicOp.ADD, 1)
                    for word in range(PAYLOAD_WORDS):
                        yield ops.Store(slot_addr(slot, word), payload_value(slot, word))
                    yield ops.Think(20)
                    # publish: the flag write is ordered after the payload
                    # stores by the in-order core
                    yield ops.Store(slot_addr(slot, FLAG_WORD), 1)

            return program

        def consumer_wave():
            def program():
                while True:
                    index = yield ops.AtomicRMW(head, AtomicOp.ADD, 1, scope="slc")
                    if index >= num_tasks:
                        return
                    yield from gpu_spin_flag(slot_addr(index, FLAG_WORD))
                    yield ops.AcquireFence()
                    values = yield ops.VLoad(
                        [slot_addr(index, w) for w in range(PAYLOAD_WORDS)]
                    )
                    yield ops.Think(40)
                    yield ops.Store(results[index], sum(values))
                    yield ops.ReleaseFence()

            return program

        consumers = max(2, ctx.num_cus)
        kernel = KernelSpec(
            "tq_consumers",
            [[consumer_wave()] for _ in range(consumers)],
            code_addrs=code,
        )

        producer_spans = partition(num_tasks, ctx.num_cpu_cores)

        def host():
            handle = yield ops.LaunchKernel(kernel)
            yield from producer(*producer_spans[0])()
            yield ops.WaitKernel(handle)

        programs = [host]
        programs += [producer(lo, hi) for lo, hi in producer_spans[1:]]

        expected = {results[i]: expected_result(i) for i in range(num_tasks)}
        expected[head] = num_tasks + consumers  # every consumer over-claims once
        expected[tail] = num_tasks
        return WorkloadBuild(
            cpu_programs=programs,
            checks=[checker(expected, "tq results")],
        )
