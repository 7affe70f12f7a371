"""The assembled APU system and its run/inspection API."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.mem.address import line_addr, word_index
from repro.protocol.types import MoesiState
from repro.sim.clock import ClockDomain
from repro.sim.event_queue import Simulator
from repro.workloads.base import Workload, WorkloadBuild, WorkloadContext

if TYPE_CHECKING:
    from repro.coherence.directory import DirectoryController
    from repro.coherence.llc import LastLevelCache
    from repro.cpu.core import CpuCore
    from repro.cpu.corepair import CorePair
    from repro.dma.engine import DmaEngine
    from repro.gpu.compute_unit import ComputeUnit
    from repro.gpu.gpu_device import GpuDevice
    from repro.gpu.sqc import SqcCache
    from repro.gpu.tcc import TccController
    from repro.mem.main_memory import MainMemory
    from repro.sim.network import Network


@dataclass
class SimulationResult:
    """Outcome of one workload run: the metrics behind Figures 4-7."""

    workload: str
    ticks: int
    #: runtime in CPU-clock cycles (the paper reports simulated cycles)
    cycles: float
    #: probes sent from the directory (Figure 7)
    dir_probes: int
    #: directory<->memory reads/writes (Figure 5)
    mem_reads: int
    mem_writes: int
    #: total fabric messages/bytes (network activity)
    network_messages: int
    network_bytes: int
    llc_hits: int
    llc_misses: int
    check_errors: list[str] = field(default_factory=list)
    stats: dict[str, int | float] = field(default_factory=dict)

    @property
    def mem_accesses(self) -> int:
        return self.mem_reads + self.mem_writes

    @property
    def ok(self) -> bool:
        return not self.check_errors

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Paper-style improvement: % simulated cycles saved vs baseline."""
        return 100.0 * (baseline.cycles - self.cycles) / baseline.cycles

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.check_errors)} CHECK FAILURES"
        return (
            f"SimulationResult({self.workload}, cycles={self.cycles:.0f}, "
            f"probes={self.dir_probes}, mem={self.mem_accesses}, {status})"
        )


@functools.cache
def _declared_fields(cls: type) -> frozenset[str]:
    """The dataclass field names of ``cls`` (looked up once per class)."""
    return frozenset(spec.name for spec in fields(cls))


@dataclass
class ApuSystem:
    """Handles to every component of one built system."""

    sim: Simulator
    config: object
    network: "Network"
    memory: "MainMemory"
    #: first LLC slice / directory bank (the whole thing when dir_banks=1)
    llc: "LastLevelCache"
    directory: "DirectoryController"
    #: all banks (length = policy.dir_banks)
    llcs: list["LastLevelCache"]
    directories: list["DirectoryController"]
    corepairs: list["CorePair"]
    cores: list["CpuCore"]
    gpu: "GpuDevice"
    #: first TCC bank (the whole TCC when num_tccs=1)
    tcc: "TccController"
    tccs: list["TccController"]
    sqc: "SqcCache"
    cus: list["ComputeUnit"]
    dma: "DmaEngine"
    clocks: dict[str, ClockDomain]
    #: every component in registration order: the simulator's registry,
    #: kept here so a closed system still reports its stats
    components: list

    def arm_watchdog(self, window_cycles: float):
        """Arm the deadlock/starvation watchdog (idempotent): one liveness
        check per ``window_cycles`` uncore cycles, with the network's
        blocked-port and the memory controller's back-pressure snapshots as
        starvation probes and their wait-for/queue dumps wired into the
        trip report.  Returns the :class:`~repro.sim.watchdog.Watchdog`."""
        from repro.sim.watchdog import Watchdog

        if self.sim.watchdog is not None:
            return self.sim.watchdog
        watchdog = Watchdog(self.sim, self.clocks["uncore"], window_cycles)
        watchdog.add_probe("network", self.network.blocked_snapshot)
        watchdog.add_probe("memory", self.memory.blocked_snapshot)
        watchdog.add_dump("network ports", self.network.describe_ports)
        watchdog.add_dump("memory queues", self.memory.describe_queues)
        return watchdog

    def close(self) -> None:
        """Break every back-edge of this system, so that once the caller
        drops it, it is freed by reference count rather than by the cyclic
        garbage collector.  Whoever builds a system and throws it away
        closes it (DESIGN.md §4c).

        The edges dropped: the simulator's component registry, watchdog
        and leftover events; every component's in-flight work
        (:meth:`Component.close`: the network's endpoint, route and
        input-port tables and port queues, every controller's transition
        hooks -- the coherence monitor points back at the system -- and the
        MSHRs, pending victims, directory transactions and queues, TCC, DMA
        and GPU pending work and CPU programs a crashed or cut-off run left
        behind); and any attribute a post-build hook set on this instance
        (a wrapped ``run_workload`` closing over the system).  The cost is
        O(components).

        A closed system runs nothing more, but it still answers
        :meth:`all_stats`, :meth:`dump_stats`, :meth:`coherent_word`,
        ``sim.now``, ``sim.events.executed_events`` and every cache
        array's lookups.  Closing twice is harmless.
        """
        self.sim.close()
        for component in self.components:
            component.close()
        declared = _declared_fields(type(self))
        for name in [name for name in vars(self) if name not in declared]:
            delattr(self, name)

    # -- running workloads ----------------------------------------------------

    def run_workload(
        self,
        workload: Workload,
        seed: int = 0,
        scale: float = 1.0,
        verify: bool = False,
        max_events: int | None = None,
    ) -> SimulationResult:
        """Build ``workload`` for this system, run it to completion, and
        return the measured result (including functional check outcomes).

        With ``verify=True`` the run also attaches the coherence invariant
        monitor (which raises on any protocol invariant violation) and the
        value oracle (whose findings land in ``check_errors``).
        """
        from repro.verify import CoherenceMonitor, ValueOracle

        context = WorkloadContext(
            num_cpu_cores=len(self.cores),
            num_cus=len(self.cus),
            seed=seed,
            scale=scale,
        )
        build = workload.build(context)
        oracle = monitor = None
        if verify:
            oracle = ValueOracle()
            build = oracle.wrap_build(build)
            monitor = CoherenceMonitor(self)
        self.start_build(build)
        self.sim.run(max_events=max_events)
        result = self.collect_result(workload.name, build)
        if verify:
            assert oracle is not None and monitor is not None
            monitor.check_all_tracked()
            result.check_errors.extend(oracle.errors)
            result.stats["verify.invariant_checks"] = monitor.checks_run
            result.stats["verify.loads_checked"] = oracle.loads_checked
        return result

    def start_build(self, build: WorkloadBuild) -> None:
        """Load initial memory and start every program (without running)."""
        for addr, data in build.initial_memory.items():
            self.memory.poke(addr, data)
        if len(build.cpu_programs) > len(self.cores):
            raise ValueError(
                f"workload wants {len(build.cpu_programs)} CPU threads, "
                f"system has {len(self.cores)}"
            )
        for core, factory in zip(self.cores, build.cpu_programs):
            core.run_program(factory())
        if build.dma_transfers:
            self.dma.run_transfers(build.dma_transfers)

    def collect_result(self, name: str, build: WorkloadBuild | None = None) -> SimulationResult:
        errors: list[str] = []
        if build is not None:
            for check in build.checks:
                errors.extend(check(self))
        net_stats = self.network.stats

        def dir_total(counter: str) -> int:
            return int(sum(d.stats[counter] for d in self.directories))

        def llc_total(counter: str) -> int:
            return int(sum(llc.stats[counter] for llc in self.llcs))

        return SimulationResult(
            workload=name,
            ticks=self.sim.now,
            cycles=self.clocks["cpu"].ticks_to_cycles(self.sim.now),
            dir_probes=dir_total("probes_sent"),
            mem_reads=dir_total("mem_reads"),
            mem_writes=dir_total("mem_writes"),
            network_messages=int(net_stats["messages"]),
            network_bytes=int(net_stats["bytes"]),
            llc_hits=llc_total("read_hits"),
            llc_misses=llc_total("read_misses"),
            check_errors=errors,
            stats=self.all_stats(),
        )

    # -- coherent inspection ----------------------------------------------------

    def coherent_word(self, addr: int) -> int:
        """The current system-wide value of a word: a dirty CPU owner's copy
        wins, then a valid TCC copy that is dirty, then the LLC, then memory."""
        line = line_addr(addr)
        for corepair in self.corepairs:
            cached = corepair.l2.lookup(line, touch=False)
            if cached is not None and cached.state in (MoesiState.M, MoesiState.O):
                return cached.data.word(word_index(addr))
        for tcc in self.tccs:
            tcc_line = tcc.array.lookup(line, touch=False)
            if tcc_line is not None and tcc_line.dirty:
                return tcc_line.data.word(word_index(addr))
        for llc in self.llcs:
            llc_data = llc.peek(line)
            if llc_data is not None:
                return llc_data.word(word_index(addr))
        return self.memory.peek(line).word(word_index(addr))

    def dump_stats(self, path: str | None = None) -> str:
        """Render every counter as aligned ``name = value`` lines (the
        gem5 ``stats.txt`` analogue); optionally write to ``path``."""
        rows = sorted(self.all_stats().items())
        width = max((len(name) for name, _v in rows), default=0)
        text = "\n".join(f"{name:<{width}} = {value}" for name, value in rows)
        header = (
            f"# repro stats dump @ tick {self.sim.now} "
            f"({self.clocks['cpu'].ticks_to_cycles(self.sim.now):.0f} cpu cycles)\n"
        )
        output = header + text + "\n"
        if path is not None:
            with open(path, "w") as handle:
                handle.write(output)
        return output

    def all_stats(self) -> dict[str, int | float]:
        merged: dict[str, int | float] = {}
        for component in self.components:
            stats = getattr(component, "stats", None)
            if stats is not None:
                stats.flatten_into(merged)
        for index, llc in enumerate(self.llcs):
            llc.stats.flatten_into(merged, "" if index == 0 else f"bank{index}.")
        return merged
