"""Generator-driven CPU core.

A core executes one program (a generator of :mod:`repro.workloads.trace`
ops) in order, blocking on each memory operation — a deliberately simple
in-order model whose runtime directly exposes memory-system latency, which
is the quantity the paper's optimizations target.  Instruction fetch is
modelled implicitly: every ``ifetch_interval`` ops the core fetches from a
ring of code addresses through the shared L1I (generating the RdBlkS
traffic the paper attributes to I-cache misses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cpu.corepair import CorePair, CpuRequest
from repro.sim.clock import ClockDomain
from repro.sim.component import Component
from repro.sim.event_queue import SimulationError
from repro.workloads import trace as ops

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator


class CpuCore(Component):
    """One X86-core stand-in: in-order, one outstanding memory op."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        corepair: CorePair,
        slot: int,
        gpu: object | None = None,
        code_addrs: tuple[int, ...] = (),
        ifetch_interval: int = 0,
    ) -> None:
        super().__init__(sim, name, clock)
        self.corepair = corepair
        self.slot = slot
        self.gpu = gpu
        self.code_addrs = code_addrs
        self.ifetch_interval = ifetch_interval
        self._ifetch_counter = 0
        self._code_cursor = 0
        self._program: Generator | None = None
        self._counters = self.stats._counters
        self.done = True

    # -- program control ------------------------------------------------------

    def run_program(self, program: Generator) -> None:
        """Start executing ``program`` at the current simulation time."""
        if not self.done:
            raise SimulationError(f"{self.name} is already running a program")
        self._program = program
        self.done = False
        self.schedule(0, lambda: self._advance(None))

    def close(self) -> None:
        self._program = None

    def _advance(self, result: object) -> None:
        assert self._program is not None
        try:
            op = self._program.send(result)
        except StopIteration:
            self.done = True
            self._program = None
            return
        self._counters["ops"] += 1
        if self.code_addrs and self.ifetch_interval > 0:
            self._ifetch_counter += 1
            if self._ifetch_counter >= self.ifetch_interval:
                self._ifetch_counter = 0
                self._ifetch(op)
                return
        self._dispatch(op)

    def _ifetch(self, op: object) -> None:
        """Fetch the next code line through the L1I, then dispatch ``op``."""
        addr = self.code_addrs[self._code_cursor % len(self.code_addrs)]
        self._code_cursor += 1
        self._counters["ifetches"] += 1
        self.corepair.access(
            self.slot, CpuRequest("ifetch", addr), lambda _r: self._dispatch(op)
        )

    # -- op dispatch ---------------------------------------------------------------

    def _dispatch(self, op: object) -> None:
        counters = self._counters
        if isinstance(op, ops.Think):
            self.schedule(op.cycles, self._advance, arg=None)
        elif isinstance(op, ops.Load):
            counters["loads"] += 1
            self.corepair.access(self.slot, CpuRequest("load", op.addr), self._advance)
        elif isinstance(op, ops.Store):
            counters["stores"] += 1
            self.corepair.access(
                self.slot, CpuRequest("store", op.addr, op.value), self._advance
            )
        elif isinstance(op, ops.AtomicRMW):
            counters["atomics"] += 1
            self.corepair.access(
                self.slot,
                CpuRequest(
                    "atomic", op.addr, atomic_op=op.op,
                    operand=op.operand, compare=op.compare,
                ),
                self._advance,
            )
        elif isinstance(op, ops.SpinUntil):
            counters["spins"] += 1
            self._spin(op)
        elif isinstance(op, ops.Barrier):
            op.barrier.arrive(lambda: self.schedule(0, self._advance, arg=None))
        elif isinstance(op, ops.LaunchKernel):
            self._launch_kernel(op)
        elif isinstance(op, ops.WaitKernel):
            self._wait_kernel(op)
        else:
            raise SimulationError(f"{self.name}: CPU cannot execute {op!r}")

    def _spin(self, op: ops.SpinUntil) -> None:
        def check(value: int) -> None:
            if op.predicate(value):
                self._advance(value)
            else:
                self._counters["spin_retries"] += 1
                self.schedule(op.backoff_cycles, retry)

        def retry() -> None:
            self.corepair.access(self.slot, CpuRequest("load", op.addr), check)

        retry()

    def _launch_kernel(self, op: ops.LaunchKernel) -> None:
        if self.gpu is None:
            raise SimulationError(f"{self.name}: no GPU attached for {op!r}")
        self.stats.inc("kernel_launches")
        handle = self.gpu.launch(op.kernel)
        self.schedule(self.gpu.launch_overhead_cycles, lambda: self._advance(handle))

    def _wait_kernel(self, op: ops.WaitKernel) -> None:
        if self.gpu is None:
            raise SimulationError(f"{self.name}: no GPU attached for {op!r}")

        def resume() -> None:
            self.schedule(0, lambda: self._advance(None))

        self.gpu.when_done(op.handle, resume)

    # -- bookkeeping -----------------------------------------------------------------

    def pending_work(self) -> str | None:
        if not self.done:
            return "program not finished"
        return None
