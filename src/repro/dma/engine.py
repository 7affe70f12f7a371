"""The DMA engine.

DMA engines do not cache lines and do not participate in coherence; their
reads and writes are serviced by the directory (Figure 3 of the paper),
which probes the processor caches on their behalf — in the baseline, DMA
requests broadcast probes, and DMA writes additionally probe the GPU
caches.

Transfers are line-granular descriptors (:class:`repro.workloads.trace.
DmaTransfer`), executed in order with a bounded number of outstanding line
requests; a transfer may be gated on a kernel completion handle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.coherence.banking import DirectoryMap, as_directory_map
from repro.mem.address import LINE_BYTES, line_addr
from repro.mem.block import ZERO_LINE, LineData
from repro.protocol.messages import Message
from repro.protocol.types import MsgType, RequesterKind
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import SimulationError
from repro.workloads.trace import DmaTransfer

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator
    from repro.sim.network import Network

#: enum members bound once (class lookups are slow on CPython 3.11)
_DMA_RD, _DMA_WR, _DMA_RESP = MsgType.DMA_RD, MsgType.DMA_WR, MsgType.DMA_RESP
_DMA = RequesterKind.DMA


class DmaEngine(Controller):
    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        network: "Network",
        dir_name: "str | DirectoryMap",
        max_outstanding: int = 4,
    ) -> None:
        super().__init__(sim, name, clock)
        self.network = network
        self.dir_map = as_directory_map(dir_name)
        self.max_outstanding = max_outstanding
        self._transfers: deque[DmaTransfer] = deque()
        self._on_done: Callable[[], None] | None = None
        self._outstanding = 0
        self._lines_left: deque[tuple[str, int, int]] = deque()
        self.done = True
        self._counters = self.stats._counters

    # -- host interface ----------------------------------------------------------

    def run_transfers(
        self, transfers: list[DmaTransfer], on_done: Callable[[], None] | None = None
    ) -> None:
        if not self.done:
            raise SimulationError(f"{self.name} already busy")
        self._transfers = deque(transfers)
        self._on_done = on_done
        self.done = False
        self.schedule(0, self._next_transfer)

    def _next_transfer(self) -> None:
        if not self._transfers:
            self.done = True
            if self._on_done is not None:
                self._on_done()
            return
        transfer = self._transfers.popleft()

        def begin() -> None:
            base = line_addr(transfer.start_addr)
            self._lines_left = deque(
                (transfer.kind, base + i * LINE_BYTES, transfer.value)
                for i in range(transfer.lines)
            )
            self._pump()

        gate = transfer.after_kernel
        if gate is not None:
            gate.when_done(begin)
        else:
            begin()

    def _pump(self) -> None:
        while self._lines_left and self._outstanding < self.max_outstanding:
            kind, addr, value = self._lines_left.popleft()
            self._outstanding += 1
            if kind == "read":
                self._counters["line_reads"] += 1
                self.network.send(
                    Message.request(
                        _DMA_RD, self.name, self.dir_map.bank_of(addr), addr, _DMA,
                    )
                )
            else:
                self._counters["line_writes"] += 1
                fill = LineData([value] * len(ZERO_LINE.words)) if value else ZERO_LINE
                self.network.send(
                    Message.request(
                        _DMA_WR, self.name, self.dir_map.bank_of(addr), addr, _DMA,
                        data=fill,
                    )
                )

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is not _DMA_RESP:
            raise SimulationError(f"{self.name} received unexpected {msg!r}")
        self._outstanding -= 1
        if self._lines_left:
            self._pump()
        elif self._outstanding == 0:
            self._next_transfer()

    def close(self) -> None:
        super().close()
        self._transfers.clear()
        self._lines_left.clear()
        self._on_done = None

    def pending_work(self) -> str | None:
        if not self.done:
            return f"{self._outstanding} lines outstanding, {len(self._transfers)} transfers queued"
        return None
