"""System configuration — Tables II and III of the paper as dataclasses.

``SystemConfig.ryzen_2200g()`` reproduces the paper's evaluated
configuration (4 CorePairs / 8 CPUs at 3.5 GHz, 8 CUs at 1.1 GHz, the
Table II cache geometry).  ``SystemConfig.small()`` is a scaled-down
configuration for tests and fast sweeps that preserves every structural
property (multiple CorePairs, a GPU cluster, tiny caches that actually
evict).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

from repro.coherence.policies import DirectoryPolicy
from repro.mem.address import LINE_BYTES


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/latency of one cache level (one Table II column)."""

    size_bytes: int
    assoc: int
    latency_cycles: float

    @property
    def geometry(self) -> tuple[int, int]:
        return (self.size_bytes, self.assoc)


KIB = 2**10
MIB = 2**20

_DEFAULT_DIR_GEOMETRY = (
    DirectoryPolicy().dir_entries,
    DirectoryPolicy().dir_assoc,
)


def _scale_directory(
    policy: DirectoryPolicy | None, entries: int, assoc: int
) -> DirectoryPolicy:
    """Shrink the directory cache of scaled presets — but only when the
    caller left the Table II default, so explicit geometry (e.g. the
    tiny-directory ablations) is respected."""
    policy = policy or DirectoryPolicy()
    if (policy.dir_entries, policy.dir_assoc) == _DEFAULT_DIR_GEOMETRY:
        policy = policy.named(dir_entries=entries, dir_assoc=assoc)
    return policy


@dataclass
class SystemConfig:
    """Full system parameterization (Tables II & III)."""

    # Table III
    num_corepairs: int = 4            # 4 CorePairs -> 8 CPUs
    num_cus: int = 8                  # 8 CUs
    num_tccs: int = 1                 # 1 TCC (Table III); >1 = address-interleaved banks
    cpu_freq_ghz: float = 3.5
    gpu_freq_ghz: float = 1.1
    uncore_freq_ghz: float = 3.5

    # Table II
    l1d: CacheGeometry = field(default_factory=lambda: CacheGeometry(64 * KIB, 2, 1.0))
    l1i: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * KIB, 2, 1.0))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(2 * MIB, 8, 1.0))
    tcp: CacheGeometry = field(default_factory=lambda: CacheGeometry(16 * KIB, 16, 4.0))
    sqc: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * KIB, 8, 1.0))
    tcc: CacheGeometry = field(default_factory=lambda: CacheGeometry(256 * KIB, 16, 8.0))
    llc: CacheGeometry = field(default_factory=lambda: CacheGeometry(16 * MIB, 16, 20.0))
    dir_latency_cycles: float = 20.0
    dir_service_cycles: float = 2.0

    # Uncore / memory
    mem_latency_cycles: float = 160.0
    mem_gap_cycles: float = 10.0
    net_latency_cycles: float = 10.0

    # Contention model (defaults = the paper's zero-contention fabric: pure
    # latency links, one flat memory channel — bit-identical to the golden
    # stats).  ``link_bytes_per_cycle > 0`` turns on finite-bandwidth link
    # serialization plus WRR input arbitration at the directory;
    # ``mem_banks > 1`` / ``mem_row_bytes > 0`` turn on the banked,
    # open-row memory controller.
    link_bytes_per_cycle: int = 0
    arb_weight_cpu: int = 4
    arb_weight_gpu: int = 2
    arb_weight_dma: int = 1
    mem_banks: int = 1
    mem_row_bytes: int = 0
    mem_row_hit_latency_cycles: float = 100.0
    mem_row_miss_latency_cycles: float = 200.0

    # Flow control (opt-in extension of the contended fabric; defaults =
    # unbounded queues, bit-identical to the pre-flow-control model).
    # ``input_queue_depth > 0`` bounds every arbitrated input port and
    # turns on credit-based back-pressure that stalls the sender's output
    # port when a downstream queue is full; ``arbitrate_tcc_ports`` extends
    # WRR input arbitration from the directory to the TCC/LLC side;
    # ``mem_queue_depth > 0`` bounds the banked memory controller's bank
    # queues (overflow gates the directory's input ports);
    # ``mem_scheduler="frfcfs"`` picks first-ready FCFS over per-bank FIFO;
    # ``watchdog_window_cycles > 0`` arms the deadlock/starvation watchdog.
    input_queue_depth: int = 0
    arbitrate_tcc_ports: bool = False
    mem_queue_depth: int = 0
    mem_scheduler: str = "fifo"
    watchdog_window_cycles: float = 0.0

    # Protocol
    policy: DirectoryPolicy = field(default_factory=DirectoryPolicy)
    gpu_tcp_writeback: bool = False   # gem5's WB_L1
    gpu_tcc_writeback: bool = False   # gem5's WB_L2

    # Execution model
    max_wavefronts_per_cu: int = 8
    cu_issue_cycles: float = 1.0
    lds_latency_cycles: float = 2.0
    kernel_launch_overhead_cycles: float = 200.0
    dma_max_outstanding: int = 4
    cpu_ifetch_interval: int = 16
    l2_service_cycles: float = 1.0
    tcc_service_cycles: float = 1.0

    @property
    def num_cpu_cores(self) -> int:
        return 2 * self.num_corepairs

    @property
    def arb_weights(self) -> dict[str, int]:
        """WRR grant weights per traffic class (shared ports and banks)."""
        return {
            "cpu": self.arb_weight_cpu,
            "gpu": self.arb_weight_gpu,
            "dma": self.arb_weight_dma,
        }

    def with_policy(self, policy: DirectoryPolicy) -> "SystemConfig":
        return replace(self, policy=policy)

    def validate(self) -> None:
        if self.num_corepairs < 1:
            raise ValueError("need at least one CorePair")
        if self.num_cus < 1:
            raise ValueError("need at least one CU")
        if self.num_tccs < 1:
            raise ValueError("need at least one TCC")
        if self.link_bytes_per_cycle < 0:
            raise ValueError("link_bytes_per_cycle must be >= 0 (0 = infinite)")
        for cls, weight in self.arb_weights.items():
            if weight < 1:
                raise ValueError(f"arb_weight_{cls} must be >= 1, got {weight}")
        if self.mem_banks < 1:
            raise ValueError("need at least one memory bank")
        if self.mem_row_bytes < 0:
            raise ValueError("mem_row_bytes must be >= 0 (0 = no row model)")
        if self.mem_row_bytes % LINE_BYTES:
            raise ValueError(
                f"mem_row_bytes must be a multiple of the {LINE_BYTES}-byte "
                f"line size, got {self.mem_row_bytes}"
            )
        if self.input_queue_depth < 0:
            raise ValueError("input_queue_depth must be >= 0 (0 = unbounded)")
        if self.input_queue_depth and not self.link_bytes_per_cycle:
            raise ValueError(
                "bounded input queues need the finite-bandwidth link model "
                "(link_bytes_per_cycle > 0)"
            )
        if self.arbitrate_tcc_ports and not self.link_bytes_per_cycle:
            raise ValueError(
                "TCC port arbitration needs the finite-bandwidth link model "
                "(link_bytes_per_cycle > 0)"
            )
        if self.mem_queue_depth < 0:
            raise ValueError("mem_queue_depth must be >= 0 (0 = unbounded)")
        if self.mem_queue_depth and not (self.mem_banks > 1 or self.mem_row_bytes):
            raise ValueError(
                "bounded bank queues need the banked memory controller "
                "(mem_banks > 1 or mem_row_bytes > 0)"
            )
        if self.mem_scheduler not in ("fifo", "frfcfs"):
            raise ValueError(f"unknown mem_scheduler {self.mem_scheduler!r}")
        if self.mem_scheduler == "frfcfs" and not self.mem_row_bytes:
            raise ValueError(
                "the FR-FCFS scheduler needs the open-row model "
                "(mem_row_bytes > 0)"
            )
        if self.watchdog_window_cycles < 0:
            raise ValueError("watchdog_window_cycles must be >= 0 (0 = off)")
        # A negative latency still runs, to a silently different model;
        # a cache without a line or a way cannot be built.  Flat tuples,
        # not a dataclasses.fields() walk: every litmus build validates.
        for name, cycles in (
            ("dir_latency_cycles", self.dir_latency_cycles),
            ("dir_service_cycles", self.dir_service_cycles),
            ("mem_latency_cycles", self.mem_latency_cycles),
            ("mem_gap_cycles", self.mem_gap_cycles),
            ("net_latency_cycles", self.net_latency_cycles),
            ("mem_row_hit_latency_cycles", self.mem_row_hit_latency_cycles),
            ("mem_row_miss_latency_cycles", self.mem_row_miss_latency_cycles),
            ("cu_issue_cycles", self.cu_issue_cycles),
            ("lds_latency_cycles", self.lds_latency_cycles),
            ("kernel_launch_overhead_cycles", self.kernel_launch_overhead_cycles),
            ("l2_service_cycles", self.l2_service_cycles),
            ("tcc_service_cycles", self.tcc_service_cycles),
        ):
            if cycles < 0:
                raise ValueError(f"{name} must be >= 0, got {cycles}")
        for name, cache in (
            ("l1d", self.l1d), ("l1i", self.l1i), ("l2", self.l2),
            ("tcp", self.tcp), ("sqc", self.sqc), ("tcc", self.tcc),
            ("llc", self.llc),
        ):
            if cache.size_bytes < LINE_BYTES:
                raise ValueError(
                    f"{name}.size_bytes must be >= {LINE_BYTES} (one line), "
                    f"got {cache.size_bytes}"
                )
            if cache.assoc < 1:
                raise ValueError(f"{name}.assoc must be >= 1, got {cache.assoc}")
            if cache.latency_cycles < 0:
                raise ValueError(
                    f"{name}.latency_cycles must be >= 0, got {cache.latency_cycles}"
                )
        if self.dma_max_outstanding < 1:
            raise ValueError(
                f"dma_max_outstanding must be >= 1, got {self.dma_max_outstanding}"
            )
        if self.max_wavefronts_per_cu < 1:
            raise ValueError(
                f"max_wavefronts_per_cu must be >= 1, got {self.max_wavefronts_per_cu}"
            )
        self.policy.validate()

    # -- presets ----------------------------------------------------------------

    @classmethod
    def ryzen_2200g(cls, policy: DirectoryPolicy | None = None, **overrides) -> "SystemConfig":
        """The paper's evaluated configuration (Tables II & III)."""
        config = cls(**overrides)
        if policy is not None:
            config = config.with_policy(policy)
        return config

    @classmethod
    def benchmark(cls, policy: DirectoryPolicy | None = None, **overrides) -> "SystemConfig":
        """The experiment configuration: the paper's core/CU counts and
        latencies (Tables II & III) with every cache scaled down by a
        constant factor so the scaled-down CHAI working sets exercise the
        same capacity/eviction behaviour the full-size system sees with the
        full-size benchmarks.  Cache *ratios* (L1:L2:TCC:LLC) follow
        Table II; see EXPERIMENTS.md for the scaling rationale."""
        base_policy = _scale_directory(policy, entries=1024, assoc=8)
        defaults = dict(
            l1d=CacheGeometry(512, 2, 1.0),
            l1i=CacheGeometry(512, 2, 1.0),
            l2=CacheGeometry(2 * KIB, 4, 1.0),
            tcp=CacheGeometry(512, 4, 4.0),
            sqc=CacheGeometry(1 * KIB, 4, 1.0),
            tcc=CacheGeometry(2 * KIB, 8, 8.0),
            llc=CacheGeometry(16 * KIB, 8, 20.0),
            policy=base_policy,
        )
        defaults.update(overrides)
        return cls(**defaults)

    #: the contended-fabric knob set layered by :meth:`contended` — one
    #: place so tests, benchmarks, and the golden-stat pin agree exactly.
    CONTENDED_KNOBS = dict(
        link_bytes_per_cycle=8,     # ~1 cycle per control msg, 9 per data line
        mem_banks=4,
        mem_row_bytes=1024,         # 16 lines per row
        mem_row_hit_latency_cycles=100.0,
        mem_row_miss_latency_cycles=200.0,
    )

    @classmethod
    def contended(cls, policy: DirectoryPolicy | None = None, **overrides) -> "SystemConfig":
        """The :meth:`benchmark` system on a *contended* fabric: finite
        link bandwidth with WRR arbitration at the directory, and a banked
        open-row memory controller.  This is the configuration behind the
        contention ablation (how the paper's §III/§IV gains shift when
        bursts actually collide) and the contended golden-stats pin."""
        defaults = dict(cls.CONTENDED_KNOBS)
        defaults.update(overrides)
        return cls.benchmark(policy=policy, **defaults)

    #: :meth:`contended` plus end-to-end flow control: bounded arbitrated
    #: input queues (directory *and* TCC) with credit back-pressure, a
    #: bounded FR-FCFS memory controller that gates the directory ports
    #: when its bank queues overflow, and an armed liveness watchdog.
    BOUNDED_KNOBS = dict(
        CONTENDED_KNOBS,
        input_queue_depth=4,
        arbitrate_tcc_ports=True,
        mem_queue_depth=8,
        mem_scheduler="frfcfs",
        watchdog_window_cycles=200_000.0,
    )

    @classmethod
    def bounded(cls, policy: DirectoryPolicy | None = None, **overrides) -> "SystemConfig":
        """The :meth:`contended` fabric with finite queues and credit-based
        back-pressure everywhere — the configuration behind the
        bounded-vs-unbounded ablation and the bounded golden-stats pin."""
        defaults = dict(cls.BOUNDED_KNOBS)
        defaults.update(overrides)
        return cls.benchmark(policy=policy, **defaults)

    @classmethod
    def small(cls, policy: DirectoryPolicy | None = None, **overrides) -> "SystemConfig":
        """A scaled-down system for tests: 2 CorePairs, 2 CUs, small caches
        that exercise evictions, and a small directory cache."""
        base_policy = _scale_directory(policy, entries=4096, assoc=8)
        defaults = dict(
            num_corepairs=2,
            num_cus=2,
            l1d=CacheGeometry(1 * KIB, 2, 1.0),
            l1i=CacheGeometry(1 * KIB, 2, 1.0),
            l2=CacheGeometry(8 * KIB, 8, 1.0),
            tcp=CacheGeometry(1 * KIB, 4, 4.0),
            sqc=CacheGeometry(1 * KIB, 4, 1.0),
            tcc=CacheGeometry(4 * KIB, 8, 8.0),
            llc=CacheGeometry(64 * KIB, 8, 20.0),
            policy=base_policy,
            max_wavefronts_per_cu=4,
        )
        defaults.update(overrides)
        return cls(**defaults)


_POLICY_FIELDS = frozenset(f.name for f in fields(DirectoryPolicy))
_CONFIG_FIELDS = frozenset(f.name for f in fields(SystemConfig))


def with_knobs(preset: Callable[..., SystemConfig], policy: DirectoryPolicy,
               knobs: Mapping[str, object]) -> SystemConfig:
    """``preset(policy=policy)`` with ``knobs`` overridden by field name.

    A knob naming a :class:`DirectoryPolicy` field goes onto the policy
    before the preset scales it, so an explicit directory geometry
    survives the preset's scaling; every other knob goes onto the built
    config.  A name that is neither raises :class:`ValueError`.
    """
    policy_knobs = {}
    config_knobs = {}
    for name, value in knobs.items():
        if name in _POLICY_FIELDS:
            policy_knobs[name] = value
        elif name in _CONFIG_FIELDS:
            config_knobs[name] = value
        else:
            raise ValueError(
                f"unknown knob {name!r}: not a SystemConfig or "
                f"DirectoryPolicy field"
            )
    if policy_knobs:
        policy = policy.named(**policy_knobs)
    config = preset(policy=policy)
    return replace(config, **config_knobs) if config_knobs else config
