"""Construct a full APU system from a :class:`SystemConfig`."""

from __future__ import annotations

from repro.coherence.banking import DirectoryMap
from repro.coherence.directory import DirectoryController
from repro.coherence.llc import LastLevelCache
from repro.coherence.precise import PreciseDirectory
from repro.cpu.core import CpuCore
from repro.cpu.corepair import CorePair
from repro.dma.engine import DmaEngine
from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.gpu_device import GpuDevice
from repro.gpu.sqc import SqcCache
from repro.gpu.tcc import TccController
from repro.gpu.tcc_group import TccGroup
from repro.mem.address import LINE_BYTES
from repro.mem.main_memory import MainMemory
from repro.sim.arbiter import class_of_kind
from repro.sim.clock import ClockDomain
from repro.sim.event_queue import Simulator
from repro.sim.network import Network
from repro.system.apu import ApuSystem
from repro.system.config import SystemConfig

#: CPU instruction lines live in a reserved high region of the address map.
CPU_CODE_BASE = 0x8000_0000


def build_system(config: SystemConfig | None = None) -> ApuSystem:
    """Build and wire every component; returns the ready-to-run system."""
    config = config or SystemConfig()
    config.validate()

    sim = Simulator()
    cpu_clock = ClockDomain("cpu", config.cpu_freq_ghz * 1e9)
    gpu_clock = ClockDomain("gpu", config.gpu_freq_ghz * 1e9)
    uncore_clock = ClockDomain("uncore", config.uncore_freq_ghz * 1e9)

    arbitrated_kinds = ("dir", "tcc") if config.arbitrate_tcc_ports else ("dir",)
    network = Network(
        sim, uncore_clock,
        default_latency_cycles=config.net_latency_cycles,
        link_bytes_per_cycle=config.link_bytes_per_cycle,
        arb_weights=config.arb_weights,
        arbitrated_kinds=arbitrated_kinds,
        input_queue_depth=config.input_queue_depth,
    )
    memory = MainMemory(
        sim, uncore_clock,
        latency_cycles=config.mem_latency_cycles,
        gap_cycles=config.mem_gap_cycles,
        num_banks=config.mem_banks,
        row_bytes=config.mem_row_bytes,
        row_hit_latency_cycles=config.mem_row_hit_latency_cycles,
        row_miss_latency_cycles=config.mem_row_miss_latency_cycles,
        arb_weights=config.arb_weights,
        queue_depth=config.mem_queue_depth,
        scheduler=config.mem_scheduler,
    )
    # Directory banks (§VII distributed directories; 1 = the paper's
    # monolithic directory).  Each bank owns an LLC slice; all banks share
    # the single ordered memory channel.
    num_banks = config.policy.dir_banks
    directory_cls = PreciseDirectory if config.policy.is_precise else DirectoryController
    llcs: list[LastLevelCache] = []
    directories = []
    for bank in range(num_banks):
        llc = LastLevelCache(
            size_bytes=max(64, config.llc.size_bytes // num_banks),
            assoc=config.llc.assoc,
            writeback=config.policy.llc_writeback,
            latency_cycles=config.llc.latency_cycles,
        )
        name = "dir" if num_banks == 1 else f"dir{bank}"
        directory = directory_cls(
            sim, name, uncore_clock, network, llc, memory, config.policy,
            latency_cycles=config.dir_latency_cycles,
            service_cycles=config.dir_service_cycles,
        )
        network.attach(directory, kind="dir")
        llcs.append(llc)
        directories.append(directory)
    dir_map = DirectoryMap([d.name for d in directories])

    # -- GPU cluster (built first so cores can hold a device reference) ----
    tcc_banks = []
    for tcc_index in range(config.num_tccs):
        bank = TccController(
            sim, f"tcc{tcc_index}", gpu_clock, network, dir_map,
            geometry=(
                max(128, config.tcc.size_bytes // config.num_tccs),
                config.tcc.assoc,
            ),
            latency_cycles=config.tcc.latency_cycles,
            writeback=config.gpu_tcc_writeback,
            service_cycles=config.tcc_service_cycles,
        )
        network.attach(bank, kind="tcc")
        tcc_banks.append(bank)
    tcc = TccGroup(tcc_banks)
    sqc = SqcCache(
        sim, "sqc0", gpu_clock, tcc,
        geometry=config.sqc.geometry,
        latency_cycles=config.sqc.latency_cycles,
    )
    cus = [
        ComputeUnit(
            sim, f"cu{i}", gpu_clock, tcc, sqc,
            tcp_geometry=config.tcp.geometry,
            tcp_latency=config.tcp.latency_cycles,
            tcp_writeback=config.gpu_tcp_writeback,
            lds_latency=config.lds_latency_cycles,
            max_wavefronts=config.max_wavefronts_per_cu,
            issue_cycles=config.cu_issue_cycles,
        )
        for i in range(config.num_cus)
    ]
    gpu = GpuDevice(
        sim, "gpu", gpu_clock, cus, tcc, sqc,
        launch_overhead_cycles=config.kernel_launch_overhead_cycles,
    )

    # -- CPU cluster --------------------------------------------------------
    corepairs: list[CorePair] = []
    cores: list[CpuCore] = []
    for pair_index in range(config.num_corepairs):
        corepair = CorePair(
            sim, f"l2.{pair_index}", cpu_clock, network, dir_map,
            l2_geometry=config.l2.geometry,
            l1d_geometry=config.l1d.geometry,
            l1i_geometry=config.l1i.geometry,
            l1_latency=config.l1d.latency_cycles,
            l2_latency=config.l2.latency_cycles,
            service_cycles=config.l2_service_cycles,
        )
        network.attach(corepair, kind="l2")
        corepairs.append(corepair)
        for slot in (0, 1):
            core_id = 2 * pair_index + slot
            code_addrs = tuple(
                CPU_CODE_BASE + (core_id * 8 + i) * LINE_BYTES for i in range(8)
            )
            cores.append(
                CpuCore(
                    sim, f"cpu{core_id}", cpu_clock, corepair, slot, gpu=gpu,
                    code_addrs=code_addrs,
                    ifetch_interval=config.cpu_ifetch_interval,
                )
            )

    dma = DmaEngine(
        sim, "dma0", uncore_clock, network, dir_map,
        max_outstanding=config.dma_max_outstanding,
    )
    network.attach(dma, kind="dma")

    # The banked memory controller classifies each access into a WRR
    # traffic class by the original requester's network endpoint kind
    # (l2 -> cpu, tcc -> gpu, dma -> dma, directory-internal -> cpu).
    memory.set_classifier(
        lambda source: class_of_kind(network._kinds.get(source, ""))
    )
    # Bounded bank queues push back on the fabric: while any bank's queue
    # has spilled, the directory input ports stop granting, so directory
    # traffic queues up and (under flow control) stalls its senders.  The
    # gate releases on memory timing alone, so it cannot deadlock.
    if config.mem_queue_depth:
        memory.set_stall_callback(
            lambda stalled: network.set_kind_gate("dir", stalled)
        )

    system = ApuSystem(
        sim=sim,
        config=config,
        network=network,
        memory=memory,
        llc=llcs[0],
        llcs=llcs,
        directory=directories[0],
        directories=directories,
        corepairs=corepairs,
        cores=cores,
        gpu=gpu,
        tcc=tcc_banks[0],
        tccs=tcc_banks,
        sqc=sqc,
        cus=cus,
        dma=dma,
        clocks={"cpu": cpu_clock, "gpu": gpu_clock, "uncore": uncore_clock},
        components=sim.components,
    )
    if config.watchdog_window_cycles:
        system.arm_watchdog(config.watchdog_window_cycles)
    return system
