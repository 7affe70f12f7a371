"""The Sequencer Cache — the GPU's read-only instruction cache.

A simple VI cache shared by the CUs; misses refill through the TCC (which
in turn fetches from the directory).  Kernel code is immutable during a
launch, so the SQC never needs invalidation for correctness; it is still
dropped at kernel launch (new code may live at reused addresses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.gpu.tcc import TccController
from repro.gpu.tcc_group import TccGroup
from repro.mem.address import line_addr
from repro.mem.cache_array import CacheArray
from repro.protocol.types import ViState
from repro.sim.clock import ClockDomain
from repro.sim.component import Component

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator

_V = ViState.V  # bound once: ``ViState.V`` is a slow class lookup on 3.11


class SqcCache(Component):
    """Shared GPU instruction cache."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        tcc: "TccController | TccGroup",
        geometry: tuple[int, int] = (32 * 2**10, 8),
        latency_cycles: float = 1.0,
    ) -> None:
        super().__init__(sim, name, clock)
        self.tcc = tcc if isinstance(tcc, TccGroup) else TccGroup([tcc])
        self.array = CacheArray.from_geometry(*geometry)
        self.latency_cycles = latency_cycles
        self._counters = self.stats._counters

    def fetch(self, addr: int, callback: Callable[[], None]) -> None:
        line = line_addr(addr)
        if self.array.lookup(line) is not None:
            self._counters["hits"] += 1
            self.schedule(self.latency_cycles, callback)
            return
        self._counters["misses"] += 1

        def on_fill(_data) -> None:
            self.array.install(line, state=_V)
            callback()

        self.tcc.of(line).fetch(line, on_fill)

    def invalidate_all(self) -> None:
        for cached in list(self.array.iter_valid()):
            self.array.invalidate(cached.addr)
