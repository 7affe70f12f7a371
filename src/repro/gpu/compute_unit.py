"""Compute units, TCPs, LDS, and wavefronts.

A CU schedules up to ``max_wavefronts`` concurrent wavefronts (latency
hiding: while one wavefront waits on memory, others issue), each executing
a generator program of :mod:`repro.workloads.trace` ops.  Vector memory ops
are coalesced to unique lines before touching the TCP.

The TCP (Texture Cache per Pipe) is the CU-private L1: a VI cache,
write-through/no-write-allocate by default, or write-back (``WB_L1``) with
fetch-on-write and flush-on-release.  The LDS is a fixed-latency CU-local
scratchpad that does not participate in coherence.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Generator

from repro.gpu.sqc import SqcCache
from repro.gpu.tcc import TccController
from repro.gpu.tcc_group import TccGroup
from repro.mem.address import line_addr, word_index
from repro.mem.block import LineData, mark_dirty
from repro.mem.cache_array import CacheArray
from repro.protocol.types import ViState
from repro.sim.clock import ClockDomain
from repro.sim.component import Component
from repro.sim.event_queue import SimulationError
from repro.workloads import trace as ops

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator

_V = ViState.V  # bound once: ``ViState.V`` is a slow class lookup on 3.11


class GpuExecError(SimulationError):
    pass


class _Workgroup:
    """Shared state of one workgroup's wavefronts (barrier + completion)."""

    def __init__(self, size: int, on_done: Callable[[], None]) -> None:
        self.alive = size
        self.on_done = on_done
        self._at_barrier: list[Callable[[], None]] = []

    def arrive(self, resume: Callable[[], None]) -> None:
        self._at_barrier.append(resume)
        self._maybe_release()

    def wavefront_finished(self) -> None:
        self.alive -= 1
        if self.alive == 0:
            self.on_done()
        else:
            self._maybe_release()

    def _maybe_release(self) -> None:
        if self.alive > 0 and len(self._at_barrier) >= self.alive:
            waiting, self._at_barrier = self._at_barrier, []
            for resume in waiting:
                resume()


class ComputeUnit(Component):
    """One CU: wavefront slots + TCP + LDS port."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        tcc: "TccController | TccGroup",
        sqc: SqcCache,
        tcp_geometry: tuple[int, int] = (16 * 2**10, 16),
        tcp_latency: float = 4.0,
        tcp_writeback: bool = False,
        lds_latency: float = 2.0,
        max_wavefronts: int = 8,
        issue_cycles: float = 1.0,
    ) -> None:
        super().__init__(sim, name, clock)
        self.tcc = tcc if isinstance(tcc, TccGroup) else TccGroup([tcc])
        self.sqc = sqc
        self.tcp = CacheArray.from_geometry(*tcp_geometry)
        self.tcp_latency = tcp_latency
        self.tcp_writeback = tcp_writeback
        self.lds_latency = lds_latency
        self.max_wavefronts = max_wavefronts
        self.issue_cycles = issue_cycles
        self._next_issue = 0
        self._running = 0
        self._wg_queue: deque[tuple[list, object, Callable[[], None]]] = deque()
        self._wave_seq = 0
        self._counters = self.stats._counters

    # -- workgroup scheduling ---------------------------------------------------

    def enqueue_workgroup(
        self, programs: list, kernel: object, on_done: Callable[[], None]
    ) -> None:
        if not programs:
            raise GpuExecError(f"{self.name}: empty workgroup")
        self._wg_queue.append((programs, kernel, on_done))
        self._pump()

    def _pump(self) -> None:
        while self._wg_queue:
            programs, kernel, on_done = self._wg_queue[0]
            if self._running + len(programs) > self.max_wavefronts and self._running:
                return  # wait for slots (a too-large WG alone is always admitted)
            self._wg_queue.popleft()
            group = _Workgroup(len(programs), on_done)
            for factory in programs:
                self._wave_seq += 1
                wave = Wavefront(
                    self, f"{self.name}.wf{self._wave_seq}", factory(), group, kernel
                )
                self._running += 1
                wave.start()

    def _wavefront_done(self) -> None:
        self._running -= 1
        self._pump()

    # -- issue port ----------------------------------------------------------------

    def issue_delay_ticks(self) -> int:
        """Claim the CU's single issue port (1 op per cycle)."""
        start = max(self.now, self._next_issue)
        self._next_issue = start + self.clock.cycles_to_ticks(self.issue_cycles)
        return start - self.now

    # -- TCP ---------------------------------------------------------------------------

    def tcp_load(self, line: int, callback: Callable[[LineData], None]) -> None:
        cached = self.tcp.lookup(line)
        if cached is not None:
            self._counters["tcp_hits"] += 1
            self.schedule(self.tcp_latency, lambda: callback(cached.data))
            return
        self._counters["tcp_misses"] += 1

        def on_fill(data: LineData) -> None:
            self._tcp_install(line, data)
            callback(data)

        self.tcc.of(line).fetch(line, on_fill)

    def tcp_store(
        self, line: int, updates: dict[int, int], callback: Callable[[], None]
    ) -> None:
        cached = self.tcp.lookup(line)
        if self.tcp_writeback:
            if cached is not None:
                mark_dirty(cached, updates)
                self.schedule(self.tcp_latency, callback)
                return

            def on_fill(data: LineData) -> None:
                # Fetch-on-write: install, then apply the store on top.
                self._tcp_install(line, data)
                filled = self.tcp.lookup(line)
                assert filled is not None
                mark_dirty(filled, updates)
                callback()

            self.tcc.of(line).fetch(line, on_fill)
            return
        # Write-through, no write-allocate: update a present copy, forward.
        if cached is not None:
            cached.data = cached.data.merged(updates)
        self.tcc.of(line).write(line, updates, callback)

    def _tcp_install(self, line: int, data: LineData) -> None:
        existing = self.tcp.lookup(line)
        if existing is not None:
            existing.data = data
            return
        victim = self.tcp.choose_victim(line)
        if victim.valid and victim.dirty:
            self._counters["tcp_dirty_evictions"] += 1
            snapshot = self.tcp.invalidate(victim.addr)
            self.tcc.of(snapshot.addr).write(
                snapshot.addr, snapshot.data.pick(snapshot.meta), lambda: None
            )
        self.tcp.fill(victim, line, _V, data)

    def tcp_flush(self, callback: Callable[[], None]) -> None:
        """Write back dirty TCP lines (WB_L1) into the TCC, then callback."""
        if not self.tcp_writeback:
            callback()
            return
        dirty = [c for c in self.tcp.iter_valid() if c.dirty]
        remaining = len(dirty)
        if remaining == 0:
            callback()
            return

        def one_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                callback()

        for cached in dirty:
            updates = cached.data.pick(cached.meta)
            cached.dirty = False
            cached.meta = None
            self._counters["tcp_flush_writebacks"] += 1
            self.tcc.of(cached.addr).write(cached.addr, updates, one_done)

    def tcp_invalidate_all(self) -> None:
        for cached in list(self.tcp.iter_valid()):
            if cached.dirty:
                self._counters["tcp_dropped_dirty"] += 1
            self.tcp.invalidate(cached.addr)

    def close(self) -> None:
        self._wg_queue.clear()

    def pending_work(self) -> str | None:
        if self._running or self._wg_queue:
            return f"{self._running} wavefronts running, {len(self._wg_queue)} WGs queued"
        return None


class Wavefront:
    """One wavefront executing a generator program on a CU."""

    def __init__(
        self, cu: ComputeUnit, name: str, program: Generator, group: _Workgroup,
        kernel: object,
    ) -> None:
        self.cu = cu
        self.name = name
        self.program = program
        self.group = group
        self.kernel = kernel
        self._op_count = 0
        self._code_cursor = 0

    def start(self) -> None:
        self.cu.schedule(0, lambda: self._advance(None))

    # -- program loop -------------------------------------------------------------

    def _advance(self, result: object) -> None:
        try:
            op = self.program.send(result)
        except StopIteration:
            self.group.wavefront_finished()
            self.cu._wavefront_done()
            return
        self.cu._counters["wave_ops"] += 1
        self._maybe_ifetch(lambda: self._issue(op))

    def _maybe_ifetch(self, then: Callable[[], None]) -> None:
        code = getattr(self.kernel, "code_addrs", ())
        interval = getattr(self.kernel, "ifetch_interval", 0)
        if not code or interval <= 0:
            then()
            return
        self._op_count += 1
        if self._op_count % interval:
            then()
            return
        addr = code[self._code_cursor % len(code)]
        self._code_cursor += 1
        self.cu.sqc.fetch(addr, then)

    def _issue(self, op: object) -> None:
        delay = self.cu.issue_delay_ticks()
        self.cu.sim.events.schedule_after(delay, lambda: self._dispatch(op))

    # -- op dispatch -----------------------------------------------------------------

    def _dispatch(self, op: object) -> None:
        if isinstance(op, ops.Think):
            self.cu.schedule(op.cycles, lambda: self._advance(None))
        elif isinstance(op, ops.Load):
            self._vload([op.addr], single=True)
        elif isinstance(op, ops.VLoad):
            self._vload(list(op.addrs), single=False)
        elif isinstance(op, ops.Store):
            self._vstore([op.addr], [op.value])
        elif isinstance(op, ops.VStore):
            values = op.values
            if isinstance(values, int):
                values = [values] * len(op.addrs)
            self._vstore(list(op.addrs), list(values))
        elif isinstance(op, ops.AtomicRMW):
            line = line_addr(op.addr)
            self.cu.tcc.of(line).atomic(
                line, word_index(op.addr), op.op, op.operand,
                op.compare, op.scope, self._advance,
            )
        elif isinstance(op, ops.LdsAccess):
            self.cu._counters["lds_accesses"] += op.count
            self.cu.schedule(self.cu.lds_latency * op.count, lambda: self._advance(None))
        elif isinstance(op, ops.WgBarrier):
            self.group.arrive(lambda: self.cu.schedule(0, lambda: self._advance(None)))
        elif isinstance(op, ops.AcquireFence):
            self._acquire()
        elif isinstance(op, ops.ReleaseFence):
            self._release()
        else:
            raise GpuExecError(f"{self.name}: GPU cannot execute {op!r}")

    def _vload(self, addrs: list[int], single: bool) -> None:
        lines = sorted({line_addr(a) for a in addrs})
        results: dict[int, LineData] = {}

        def on_line(line: int, data: LineData) -> None:
            results[line] = data
            if len(results) < len(lines):
                return
            values = tuple(
                results[line_addr(a)].word(word_index(a)) for a in addrs
            )
            self._advance(values[0] if single else values)

        self.cu._counters["vloads"] += 1
        for line in lines:
            self.cu.tcp_load(line, lambda data, ln=line: on_line(ln, data))

    def _vstore(self, addrs: list[int], values: list[int]) -> None:
        if len(addrs) != len(values):
            raise GpuExecError(f"{self.name}: VStore addr/value length mismatch")
        per_line: dict[int, dict[int, int]] = {}
        for addr, value in zip(addrs, values):
            per_line.setdefault(line_addr(addr), {})[word_index(addr)] = value
        remaining = len(per_line)

        def one_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self._advance(None)

        self.cu._counters["vstores"] += 1
        for line, updates in per_line.items():
            self.cu.tcp_store(line, updates, one_done)

    def _acquire(self) -> None:
        def after_flush() -> None:
            self.cu.tcp_invalidate_all()
            self.cu.schedule(1, lambda: self._advance(None))

        self.cu.tcp_flush(after_flush)

    def _release(self) -> None:
        def after_tcp() -> None:
            if self.cu.tcc.writeback:
                self.cu.tcc.flush(lambda: self._advance(None))
            else:
                self.cu.tcc.drain(lambda: self._advance(None))  # all banks

        self.cu.tcp_flush(after_tcp)
