"""Harness for GPU unit tests: real TCC/SQC/CUs/GpuDevice against the
scripted fake directory from the CPU harness."""

from __future__ import annotations

from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.gpu_device import GpuDevice
from repro.gpu.sqc import SqcCache
from repro.gpu.tcc import TccController
from repro.mem.address import line_addr, word_index
from repro.sim.clock import ClockDomain
from repro.sim.event_queue import Simulator
from repro.sim.network import Network

from tests.cpu.harness import FakeDirectory


class GpuHarness:
    def __init__(
        self,
        num_cus: int = 2,
        tcc_writeback: bool = False,
        tcp_writeback: bool = False,
        tcc_geometry=(512, 4),
        tcp_geometry=(256, 2),
    ):
        self.sim = Simulator()
        self.clock = ClockDomain("gpu", 1e9)
        self.network = Network(self.sim, self.clock, default_latency_cycles=5)
        self.tcc = TccController(
            self.sim, "tcc0", self.clock, self.network, "dir",
            geometry=tcc_geometry, latency_cycles=2, writeback=tcc_writeback,
        )
        self.network.attach(self.tcc, kind="tcc")
        self.directory = FakeDirectory(self.sim, "dir", self.clock, self.network)
        self.network.attach(self.directory, kind="dir")
        self.sqc = SqcCache(self.sim, "sqc0", self.clock, self.tcc, geometry=(256, 2))
        self.cus = [
            ComputeUnit(
                self.sim, f"cu{i}", self.clock, self.tcc, self.sqc,
                tcp_geometry=tcp_geometry, tcp_latency=2,
                tcp_writeback=tcp_writeback, max_wavefronts=4,
            )
            for i in range(num_cus)
        ]
        self.gpu = GpuDevice(
            self.sim, "gpu", self.clock, self.cus, self.tcc, self.sqc,
            launch_overhead_cycles=10, dispatch_cycles=1,
        )

    def run(self) -> None:
        self.sim.run()

    def tcc_word(self, addr: int) -> int | None:
        cached = self.tcc.array.lookup(line_addr(addr), touch=False)
        return None if cached is None else cached.data.word(word_index(addr))
