"""Unit tests for CUs, TCPs, wavefronts, and the GPU device."""

from __future__ import annotations

from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.protocol.types import MoesiState, MsgType
from repro.workloads.base import KernelSpec
from repro.workloads.trace import (
    AcquireFence,
    AtomicRMW,
    LdsAccess,
    Load,
    ReleaseFence,
    Store,
    Think,
    VLoad,
    VStore,
    WgBarrier,
)

from tests.cpu.harness import DirScript
from tests.gpu.harness import GpuHarness

ADDR = 0x7000


def launch(h: GpuHarness, *workgroups, code=()):
    kernel = KernelSpec("k", [list(wg) for wg in workgroups], code_addrs=tuple(code))
    return h.gpu.launch(kernel)


class TestWavefrontOps:
    def test_vload_coalesces_to_unique_lines(self):
        h = GpuHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.S, ZERO_LINE.with_word(0, 1))
        seen = []

        def wave():
            values = yield VLoad([ADDR, ADDR + 4, ADDR + 8])  # one line
            seen.append(values)

        handle = launch(h, [wave])
        h.run()
        assert handle.done
        assert seen == [(1, 0, 0)]
        assert len(h.directory.requests_of(MsgType.RDBLK)) == 1

    def test_vstore_coalesces_word_updates(self):
        h = GpuHarness()

        def wave():
            yield VStore([ADDR, ADDR + 4], [10, 11])
            yield ReleaseFence()

        launch(h, [wave])
        h.run()
        wts = h.directory.requests_of(MsgType.WT)
        assert len(wts) == 1
        assert wts[0].word_updates == {0: 10, 1: 11}

    def test_scalar_load_store(self):
        h = GpuHarness()
        seen = []

        def wave():
            yield Store(ADDR, 5)
            seen.append((yield Load(ADDR)))

        launch(h, [wave])
        h.run()
        assert seen == [5]  # TCP copy was updated in place

    def test_think_and_lds(self):
        h = GpuHarness()

        def wave():
            yield Think(100)
            yield LdsAccess(count=4)

        launch(h, [wave])
        h.run()
        assert h.cus[0].stats["lds_accesses"] == 4

    def test_slc_atomic_from_wavefront(self):
        h = GpuHarness()
        olds = []

        def wave():
            olds.append((yield AtomicRMW(ADDR, AtomicOp.ADD, 3, scope="slc")))

        launch(h, [wave])
        h.run()
        assert olds == [0]
        assert len(h.directory.requests_of(MsgType.ATOMIC)) == 1

    def test_workgroup_barrier(self):
        h = GpuHarness()
        order = []

        def fast():
            order.append("fast-before")
            yield WgBarrier()
            order.append("fast-after")

        def slow():
            yield Think(5000)
            order.append("slow-before")
            yield WgBarrier()
            order.append("slow-after")

        launch(h, [fast, slow])
        h.run()
        assert order.index("fast-after") > order.index("slow-before")

    def test_acquire_fence_invalidates_tcp(self):
        h = GpuHarness()
        h.directory.script[ADDR] = DirScript(MoesiState.S, ZERO_LINE.with_word(0, 1))
        seen = []

        def wave():
            seen.append((yield Load(ADDR)))
            yield AcquireFence()
            seen.append((yield Load(ADDR)))

        launch(h, [wave])
        h.run()
        # the second load re-fetched through the TCC (TCP was invalidated)
        assert h.cus[0].stats["tcp_misses"] == 2

    def test_implicit_ifetch_through_sqc(self):
        h = GpuHarness()
        code = (0x9000,)

        def wave():
            for _ in range(8):
                yield Think(1)

        kernel = KernelSpec("k", [[wave]], code_addrs=code, ifetch_interval=2)
        h.gpu.launch(kernel)
        h.run()
        assert h.sqc.stats["misses"] >= 1
        assert h.sqc.stats["hits"] >= 1


class TestTcpWriteBack:
    def test_wb_tcp_defers_stores_until_flush(self):
        h = GpuHarness(tcp_writeback=True)

        def wave():
            yield Store(ADDR, 5)
            yield Think(10)
            yield ReleaseFence()

        launch(h, [wave])
        h.run()
        # the store reached the TCC only via the TCP flush at the release
        assert h.cus[0].stats["tcp_flush_writebacks"] == 1

    def test_wb_tcp_fetches_on_write(self):
        h = GpuHarness(tcp_writeback=True)
        h.directory.script[ADDR] = DirScript(MoesiState.S, ZERO_LINE.with_word(1, 9))

        def wave():
            yield Store(ADDR, 5)
            yield ReleaseFence()

        launch(h, [wave])
        h.run()
        # after the flush, the TCC holds the merged line
        assert h.tcc_word(ADDR) == 5
        assert h.tcc_word(ADDR + 4) == 9


class TestGpuDevice:
    def test_kernels_run_one_at_a_time_in_order(self):
        h = GpuHarness()
        order = []

        def wave(tag):
            def program():
                yield Think(100)
                order.append(tag)

            return program

        first = launch(h, [wave("first")])
        second = launch(h, [wave("second")])
        completed = []
        first.when_done(lambda: completed.append("first"))
        second.when_done(lambda: completed.append("second"))
        h.run()
        assert order == ["first", "second"]
        assert first.done and second.done
        assert completed == ["first", "second"]

    def test_when_done_fires_after_release(self):
        h = GpuHarness(tcc_writeback=True)
        events = []

        def wave():
            yield Store(ADDR, 1)

        handle = launch(h, [wave])
        h.gpu.when_done(handle, lambda: events.append("done"))
        h.run()
        assert events == ["done"]
        # the release flushed the dirty TCC line before completion
        types = [m.mtype for m in h.directory.requests]
        assert MsgType.WT in types and MsgType.FLUSH in types

    def test_launch_invalidates_tcps_and_sqc(self):
        h = GpuHarness()

        def warm():
            yield Load(ADDR)

        launch(h, [warm])
        h.run()
        assert len(list(h.cus[0].tcp.iter_valid())) == 1

        def second():
            yield Think(1)

        launch(h, [second])
        h.run()
        assert len(list(h.cus[0].tcp.iter_valid())) == 0

    def test_workgroups_distribute_across_cus(self):
        h = GpuHarness(num_cus=2)

        def wave():
            yield Think(10)

        launch(h, [wave], [wave], [wave], [wave])
        h.run()
        assert h.cus[0].stats["wave_ops"] > 0
        assert h.cus[1].stats["wave_ops"] > 0

    def test_more_workgroups_than_slots_queue(self):
        h = GpuHarness(num_cus=1)

        def wave():
            yield Think(50)

        handle = launch(h, *([[wave]] * 10))  # 10 WGs, 4 slots
        h.run()
        assert handle.done

    def test_when_done_on_finished_handle_fires_immediately(self):
        h = GpuHarness()

        def wave():
            yield Think(1)

        handle = launch(h, [wave])
        h.run()
        fired = []
        h.gpu.when_done(handle, lambda: fired.append(True))
        assert fired == [True]
