"""HeteroSync-like GPU synchronization microbenchmarks.

The paper also evaluated HeteroSync [28] and Lulesh and found "the effects
of the enhancements are not prominent due to their limited collaborative
properties" (§V, §VIII) — HeteroSync exercises fine-grained synchronization
*among GPU threads*, not CPU↔GPU collaboration, so the system-level
directory sees mostly GPU-local traffic.  These three workloads mirror
HeteroSync's primitive classes so that negative result can be reproduced
(see ``benchmarks/test_ablation_heterosync.py``):

- :class:`GpuSpinMutex` — wavefronts contend a spin mutex protecting a
  small critical section (HeteroSync's mutex microbenchmarks);
- :class:`GpuSyncBarrier` — an atomic decentralized barrier executed
  repeatedly by all wavefronts (HeteroSync's sync primitives);
- :class:`GpuLockFreeQueue` — wavefronts move items through a lock-free
  ticket queue (HeteroSync's lock-free data structures).

All synchronization uses *device-scope* (GLC) atomics executed at the TCC
— HeteroSync's scoped synchronization, which gem5 enables through the
write-back cache configs ("WB_L1 and WB_L2 ... which enables scoped
synchronizations and memory interactions", §II).  Run these under
``gpu_tcc_writeback=True`` for the faithful setup; they also verify under
write-through (where each GLC atomic additionally writes through).  The
CPU only launches the kernel and verifies — the paper's point exactly.
"""

from __future__ import annotations

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


def _host_launch_and_wait(kernel: KernelSpec):
    def host():
        handle = yield ops.LaunchKernel(kernel)
        yield ops.WaitKernel(handle)

    return host


class GpuSpinMutex(Workload):
    name = "hs_mutex"
    description = "GPU wavefronts contend a spin mutex around a shared counter"

    def __init__(self, acquisitions_per_wave: int = 8) -> None:
        self.acquisitions = acquisitions_per_wave

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        mutex = space.lines(1)
        counter = space.lines(1)
        code = code_region(space)
        waves = max(2, ctx.num_cus)

        def wave():
            for _ in range(self.acquisitions):
                # test-and-set spin lock through device-scope CAS at the TCC
                while True:
                    old = yield ops.AtomicRMW(
                        mutex, AtomicOp.CAS, operand=1, compare=0, scope="glc"
                    )
                    if old == 0:
                        break
                    yield ops.Think(150)
                # critical section: read-modify-write the protected counter
                value = yield ops.AtomicRMW(counter, AtomicOp.ADD, 0, scope="glc")
                yield ops.Think(30)
                yield ops.AtomicRMW(
                    counter, AtomicOp.EXCH, value + 1, scope="glc"
                )
                yield ops.AtomicRMW(mutex, AtomicOp.EXCH, 0, scope="glc")

        kernel = KernelSpec(
            "hs_mutex", [[wave] for _ in range(waves)], code_addrs=code
        )
        expected = {counter: waves * self.acquisitions, mutex: 0}
        return WorkloadBuild(
            cpu_programs=[_host_launch_and_wait(kernel)],
            checks=[checker(expected, "hs_mutex counter")],
        )


class GpuSyncBarrier(Workload):
    name = "hs_barrier"
    description = "repeated atomic all-wavefront barrier (sense-reversing)"

    def __init__(self, rounds: int = 6) -> None:
        self.rounds = rounds

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        arrive = space.lines(1)     # arrival counter
        phase = space.lines(1)      # completed-round counter
        work = space.array(ctx.num_cus * 16)
        code = code_region(space)
        waves = max(2, ctx.num_cus)

        def wave(wave_id: int):
            def program():
                for round_index in range(self.rounds):
                    # per-round private work, then the barrier
                    yield ops.VStore(
                        work[wave_id * 16:(wave_id + 1) * 16],
                        round_index + 1,
                    )
                    position = yield ops.AtomicRMW(
                        arrive, AtomicOp.ADD, 1, scope="glc"
                    )
                    if position == (round_index + 1) * waves - 1:
                        # last arriver releases the round
                        yield ops.AtomicRMW(
                            phase, AtomicOp.ADD, 1, scope="glc"
                        )
                    else:
                        while True:
                            seen = yield ops.AtomicRMW(
                                phase, AtomicOp.ADD, 0, scope="glc"
                            )
                            if seen > round_index:
                                break
                            yield ops.Think(150)
                yield ops.ReleaseFence()

            return program

        kernel = KernelSpec(
            "hs_barrier", [[wave(i)] for i in range(waves)], code_addrs=code
        )
        expected = {phase: self.rounds, arrive: self.rounds * waves}
        expected.update({
            work[i]: self.rounds for i in range(waves * 16)
        })
        return WorkloadBuild(
            cpu_programs=[_host_launch_and_wait(kernel)],
            checks=[checker(expected, "hs_barrier")],
        )


class GpuLockFreeQueue(Workload):
    name = "hs_lfqueue"
    description = "GPU producers/consumers move items through a ticket queue"

    def __init__(self, items_per_producer: int = 12) -> None:
        self.items = items_per_producer

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        space = AddressSpace()
        tail = space.lines(1)
        head = space.lines(1)
        total_producers = max(1, ctx.num_cus // 2)
        total_consumers = max(1, ctx.num_cus - total_producers)
        total_items = total_producers * self.items
        slots = space.words(total_items)
        consumed = space.lines(1)   # sum of consumed values
        code = code_region(space)

        def producer(producer_id: int):
            def program():
                for index in range(self.items):
                    ticket = yield ops.AtomicRMW(tail, AtomicOp.ADD, 1, scope="glc")
                    value = (producer_id + 1) * 1000 + index
                    # publish value through a device-visible exchange
                    yield ops.AtomicRMW(
                        slots[ticket], AtomicOp.EXCH, value, scope="glc"
                    )

            return program

        def consumer():
            def program():
                while True:
                    ticket = yield ops.AtomicRMW(head, AtomicOp.ADD, 1, scope="glc")
                    if ticket >= total_items:
                        return
                    while True:
                        value = yield ops.AtomicRMW(
                            slots[ticket], AtomicOp.ADD, 0, scope="glc"
                        )
                        if value:
                            break
                        yield ops.Think(150)
                    yield ops.AtomicRMW(consumed, AtomicOp.ADD, value, scope="glc")

            return program

        workgroups = [[producer(p)] for p in range(total_producers)]
        workgroups += [[consumer()] for _ in range(total_consumers)]
        kernel = KernelSpec("hs_lfqueue", workgroups, code_addrs=code)

        expected_sum = sum(
            (p + 1) * 1000 + i
            for p in range(total_producers)
            for i in range(self.items)
        )
        expected = {consumed: expected_sum, tail: total_items}
        return WorkloadBuild(
            cpu_programs=[_host_launch_and_wait(kernel)],
            checks=[checker(expected, "hs_lfqueue")],
        )


HETEROSYNC_WORKLOADS = [GpuSpinMutex(), GpuSyncBarrier(), GpuLockFreeQueue()]
