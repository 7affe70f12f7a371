"""Unit tests for the generator-driven CPU core."""

from __future__ import annotations

import pytest

from repro.cpu.core import CpuCore
from repro.protocol.atomics import AtomicOp
from repro.sim.event_queue import DeadlockError, SimulationError
from repro.workloads.trace import (
    AtomicRMW,
    Barrier,
    HostBarrier,
    Load,
    SpinUntil,
    Store,
    Think,
)

from tests.cpu.harness import CorePairHarness

ADDR = 0x5000


def make_core(h: CorePairHarness, slot: int = 0, **kwargs) -> CpuCore:
    return CpuCore(h.sim, f"cpu{slot}", h.clock, h.corepair, slot, **kwargs)


class TestExecution:
    def test_program_runs_to_completion(self, ):
        h = CorePairHarness()
        core = make_core(h)

        def program():
            yield Store(ADDR, 5)
            value = yield Load(ADDR)
            assert value == 5
            yield Think(10)

        core.run_program(program())
        h.run()
        assert core.done
        assert core.stats["ops"] == 3
        assert core.stats["loads"] == 1
        assert core.stats["stores"] == 1

    def test_think_advances_time(self):
        h = CorePairHarness()
        core = make_core(h)

        def program():
            yield Think(1000)

        core.run_program(program())
        end = h.sim.run()
        assert end >= 1000 * h.clock.period_ticks

    def test_atomic_result_flows_back(self):
        h = CorePairHarness()
        core = make_core(h)
        observed = []

        def program():
            observed.append((yield AtomicRMW(ADDR, AtomicOp.ADD, 5)))
            observed.append((yield AtomicRMW(ADDR, AtomicOp.ADD, 5)))

        core.run_program(program())
        h.run()
        assert observed == [0, 5]

    def test_spin_until_retries(self):
        h = CorePairHarness()
        core0 = make_core(h, slot=0)
        core1 = make_core(h, slot=1)

        def waiter():
            value = yield SpinUntil(ADDR, lambda v: v == 3, backoff_cycles=50)
            assert value == 3

        def setter():
            yield Think(2000)
            yield Store(ADDR, 3)

        core0.run_program(waiter())
        core1.run_program(setter())
        h.run()
        assert core0.done and core1.done
        assert core0.stats["spin_retries"] > 0

    def test_host_barrier_synchronizes(self):
        h = CorePairHarness()
        barrier = HostBarrier(2)
        finished = []
        core0 = make_core(h, slot=0)
        core1 = make_core(h, slot=1)

        def fast():
            yield Barrier(barrier)
            finished.append("fast")

        def slow():
            yield Think(5000)
            yield Barrier(barrier)
            finished.append("slow")

        core0.run_program(fast())
        core1.run_program(slow())
        h.run()
        assert sorted(finished) == ["fast", "slow"]

    def test_implicit_ifetch(self):
        h = CorePairHarness()
        code = (0x9000, 0x9040)
        core = make_core(h, code_addrs=code, ifetch_interval=2)

        def program():
            for _ in range(8):
                yield Think(1)

        core.run_program(program())
        h.run()
        assert core.stats["ifetches"] == 4

    def test_unfinished_program_reports_pending_work(self):
        h = CorePairHarness()
        core = make_core(h)

        def program():
            yield Barrier(HostBarrier(2))  # never released

        core.run_program(program())
        with pytest.raises(DeadlockError):
            h.run()
        assert core.pending_work() is not None

    def test_cannot_run_two_programs_at_once(self):
        h = CorePairHarness()
        core = make_core(h)

        def program():
            yield Think(100)

        core.run_program(program())
        with pytest.raises(SimulationError, match="already running"):
            core.run_program(program())

    def test_gpu_ops_without_gpu_raise(self):
        from repro.workloads.trace import LaunchKernel

        h = CorePairHarness()
        core = make_core(h)

        def program():
            yield LaunchKernel(None)

        core.run_program(program())
        with pytest.raises(SimulationError, match="no GPU"):
            h.run()

    def test_unknown_op_raises(self):
        h = CorePairHarness()
        core = make_core(h)

        def program():
            yield "not an op"

        core.run_program(program())
        with pytest.raises(SimulationError, match="cannot execute"):
            h.run()

    def test_two_cores_share_the_corepair(self):
        h = CorePairHarness()
        core0 = make_core(h, slot=0)
        core1 = make_core(h, slot=1)

        def writer():
            yield Store(ADDR, 1)

        def reader():
            yield SpinUntil(ADDR, lambda v: v == 1)

        core0.run_program(writer())
        core1.run_program(reader())
        h.run()
        assert core0.done and core1.done
        # one RdBlkM total: the second core hits the shared L2
        from repro.protocol.types import MsgType
        assert len(h.directory.requests_of(MsgType.RDBLKM)) == 1
