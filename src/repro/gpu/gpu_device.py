"""GPU device: kernel queue, dispatch, and acquire/release at boundaries.

Kernels run one at a time (a single HSA queue).  Launch performs the
*acquire* (invalidate every TCP and the SQC — the TCC stays, since
directory probes keep it coherent with CPU writes); completion performs the
*release* (TCC flush/drain plus a directory Flush) before the host-visible
completion event fires.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.sqc import SqcCache
from repro.gpu.tcc import TccController
from repro.gpu.tcc_group import TccGroup
from repro.sim.clock import ClockDomain
from repro.sim.component import Component
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator

_handle_counter = itertools.count(1)


class KernelHandle:
    """Host-visible completion token for a launched kernel."""

    def __init__(self, kernel: object) -> None:
        self.id = next(_handle_counter)
        self.kernel = kernel
        self.done = False
        self._callbacks: list[Callable[[], None]] = []

    def when_done(self, callback: Callable[[], None]) -> None:
        if self.done:
            callback()
        else:
            self._callbacks.append(callback)

    def _complete(self) -> None:
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()


class GpuDevice(Component):
    """The GPU cluster seen from the host."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        cus: list[ComputeUnit],
        tcc: "TccController | TccGroup",
        sqc: SqcCache,
        launch_overhead_cycles: float = 200.0,
        dispatch_cycles: float = 4.0,
    ) -> None:
        super().__init__(sim, name, clock)
        if not cus:
            raise SimulationError("a GPU needs at least one CU")
        self.cus = cus
        self.tcc = tcc if isinstance(tcc, TccGroup) else TccGroup([tcc])
        self.sqc = sqc
        self.launch_overhead_cycles = launch_overhead_cycles
        self.dispatch_cycles = dispatch_cycles
        self._queue: deque[KernelHandle] = deque()
        self._running: KernelHandle | None = None

    # -- host interface --------------------------------------------------------

    def launch(self, kernel: object) -> KernelHandle:
        """Enqueue ``kernel`` (a KernelSpec-like object); returns its handle."""
        handle = KernelHandle(kernel)
        self.stats.inc("kernels_launched")
        self._queue.append(handle)
        if self._running is None:
            self._start_next()
        return handle

    def when_done(self, handle: KernelHandle, callback: Callable[[], None]) -> None:
        handle.when_done(callback)

    # -- kernel lifecycle -----------------------------------------------------------

    def _start_next(self) -> None:
        if not self._queue:
            return
        self._running = self._queue.popleft()
        kernel = self._running.kernel
        # Acquire: drop potentially-stale L1 state.
        for cu in self.cus:
            cu.tcp_invalidate_all()
        self.sqc.invalidate_all()
        workgroups = list(kernel.workgroups)
        if not workgroups:
            raise SimulationError(f"kernel {kernel!r} has no workgroups")
        self._remaining_wgs = len(workgroups)
        for index, programs in enumerate(workgroups):
            cu = self.cus[index % len(self.cus)]
            delay = self.dispatch_cycles * (index // len(self.cus) + 1)
            self.schedule(
                delay,
                lambda c=cu, p=list(programs), k=kernel: c.enqueue_workgroup(
                    p, k, self._wg_done
                ),
            )

    def _wg_done(self) -> None:
        self._remaining_wgs -= 1
        if self._remaining_wgs == 0:
            self._release()

    def _release(self) -> None:
        handle = self._running
        assert handle is not None

        def after_release() -> None:
            self.stats.inc("kernels_completed")
            self._running = None
            handle._complete()
            self._start_next()

        self.tcc.release(after_release)

    def close(self) -> None:
        self._queue.clear()
        self._running = None

    def pending_work(self) -> str | None:
        if self._running is not None:
            return f"kernel {self._running.id} running"
        if self._queue:
            return f"{len(self._queue)} kernels queued"
        return None
