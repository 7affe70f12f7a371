"""Regeneration of every evaluation table and figure.

One function per paper artifact:

- :func:`table2_text` / :func:`table3_text` — the configuration tables.
- :func:`run_figure4` — % saved simulated cycles for the §III
  optimizations (earlyDirtyResp, noWBcleanVic, llcWB) over the baseline,
  per benchmark (paper average: 1.68 %).
- :func:`run_figure5` — directory↔memory reads+writes for baseline,
  noWBcleanVic, llcWB, llcWB+useL3OnWT (paper: 50.4 % average reduction).
- :func:`run_figure6` — % saved cycles for owner tracking and
  owner+sharer tracking over baseline, five most-collaborative benchmarks
  (paper average: 14.4 %).
- :func:`run_figure7` — % reduction in probes sent from the directory for
  the same configurations (paper average: 80.3 %).

All experiments run on :meth:`SystemConfig.benchmark` (the paper's system
structure with proportionally scaled caches; see EXPERIMENTS.md) and share
a result cache so overlapping bars reuse runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.report import format_table
from repro.coherence.policies import PRESETS, DirectoryPolicy
from repro.runner import Cell
from repro.store import ResultStore, resolve_cells
from repro.system.apu import SimulationResult
from repro.system.config import SystemConfig
from repro.workloads.base import Workload
from repro.workloads.registry import available_workloads, get_workload

#: the five most collaborative benchmarks, used for Figures 6 and 7.  The
#: paper evaluates five benchmarks there without naming them; we pick the
#: five with the heaviest cross-device coherence activity (recorded in
#: EXPERIMENTS.md).
FIGURE6_BENCHMARKS = ["cedd", "sc", "tq", "trns", "hsto"]


@dataclass
class ExperimentMatrix:
    """Runs and caches (workload, policy) cells on one configuration.

    Cells resolve through :func:`repro.store.resolve_cells`, the shared
    entry point: a :class:`ResultStore` answers warm cells from disk and
    the rest run inline or fan out locally with ``jobs > 1`` — all
    bit-identical to a serial in-process run (the simulator is
    deterministic and results round-trip exactly).  The in-memory
    ``_cache`` keeps object identity within one matrix.
    """

    config_factory: Callable[..., SystemConfig] = SystemConfig.benchmark
    scale: float = 1.0
    verify: bool = False
    #: worker processes for cell fan-out; None → ``os.cpu_count()``.
    #: ``jobs=1`` runs every cell serially in-process.
    jobs: int | None = None
    #: persistent results store; None → in-memory caching only.
    store: ResultStore | None = None
    #: optional sink for structured runner progress lines.
    progress: Callable[[str], None] | None = None
    #: optional per-cell wall-clock timeout (enforced in pool workers).
    timeout_s: float | None = None
    _cache: dict[tuple[str, str], SimulationResult] = field(default_factory=dict)

    def _cell(self, workload: str | Workload, policy: DirectoryPolicy,
              label: str) -> Cell:
        # Resolve registered names eagerly so typos raise KeyError here,
        # not inside a worker process.
        if isinstance(workload, str):
            get_workload(workload)
        return Cell(
            workload=workload,
            config=self.config_factory(policy=policy),
            scale=self.scale,
            verify=self.verify,
            label=label,
        )

    def _execute(self, items: Sequence[tuple[tuple[str, str], Cell]]) -> None:
        """Run not-yet-cached cells (possibly in parallel) into ``_cache``."""
        todo = [(key, cell) for key, cell in items if key not in self._cache]
        if not todo:
            return
        results = resolve_cells(
            [cell for _key, cell in todo],
            jobs=self.jobs if len(todo) > 1 else 1,
            store=self.store,
            timeout_s=self.timeout_s,
            progress=self.progress,
        )
        for (key, _cell), result in zip(todo, results):
            self._cache[key] = result

    def run_batch(self, pairs: Sequence[tuple[str, str]]) -> dict[tuple[str, str], SimulationResult]:
        """Run every (workload, policy-preset) pair, fanning misses out in
        parallel, and return the results keyed by pair."""
        unique = list(dict.fromkeys(pairs))
        self._execute([
            ((workload, policy),
             self._cell(workload, PRESETS[policy], f"{workload}/{policy}"))
            for workload, policy in unique
        ])
        out: dict[tuple[str, str], SimulationResult] = {}
        for pair in unique:
            result = self._cache[pair]
            if not result.ok:
                workload, policy = pair
                raise RuntimeError(
                    f"{workload}/{policy} failed verification: "
                    f"{result.check_errors[:3]}"
                )
            out[pair] = result
        return out

    def run(self, workload: str, policy: str) -> SimulationResult:
        return self.run_batch([(workload, policy)])[(workload, policy)]

    def run_policy_object(self, workload, policy: DirectoryPolicy, tag: str) -> SimulationResult:
        """Run with an ad-hoc policy (for ablations) under a cache tag.

        ``workload`` is a registered name or a Workload instance (e.g. a
        microbenchmark from :mod:`repro.workloads.micro`).
        """
        name = workload if isinstance(workload, str) else workload.name
        key = (name, tag)
        self._execute([(key, self._cell(workload, policy, f"{name}/{tag}"))])
        return self._cache[key]


@dataclass
class FigureResult:
    """One regenerated figure: per-benchmark series plus the average row."""

    name: str
    description: str
    benchmarks: list[str]
    series: dict[str, list[float]]       # series label -> value per benchmark
    unit: str
    paper_average: float | None = None

    def average(self, label: str) -> float:
        values = self.series[label]
        return sum(values) / len(values) if values else 0.0

    def to_json(self) -> str:
        """Machine-readable figure data (for external plotting)."""
        import json

        return json.dumps(
            {
                "name": self.name,
                "description": self.description,
                "unit": self.unit,
                "benchmarks": self.benchmarks,
                "series": self.series,
                "averages": {label: self.average(label) for label in self.series},
                "paper_average": self.paper_average,
            },
            indent=2,
        )

    def to_text(self) -> str:
        headers = ["benchmark"] + list(self.series)
        rows: list[list[object]] = []
        for index, benchmark in enumerate(self.benchmarks):
            rows.append([benchmark] + [self.series[s][index] for s in self.series])
        rows.append(["average"] + [self.average(s) for s in self.series])
        table = format_table(headers, rows, title=f"{self.name}: {self.description} ({self.unit})")
        if self.paper_average is not None:
            table += f"\npaper reports an average of {self.paper_average}{self.unit.split()[0] if self.unit.startswith('%') else ''}"
        return table


# -- Figure 4 -------------------------------------------------------------------

FIG4_POLICIES = ["earlyDirtyResp", "noWBcleanVic", "llcWB"]


def run_figure4(matrix: ExperimentMatrix | None = None,
                benchmarks: Sequence[str] | None = None) -> FigureResult:
    """% saved simulated cycles of each §III optimization over baseline."""
    matrix = matrix or ExperimentMatrix()
    benchmarks = list(benchmarks or available_workloads())
    series: dict[str, list[float]] = {p: [] for p in FIG4_POLICIES}
    matrix.run_batch([
        (benchmark, policy)
        for benchmark in benchmarks
        for policy in ["baseline"] + FIG4_POLICIES
    ])
    for benchmark in benchmarks:
        base = matrix.run(benchmark, "baseline")
        for policy in FIG4_POLICIES:
            series[policy].append(matrix.run(benchmark, policy).speedup_over(base))
    return FigureResult(
        name="Figure 4",
        description="performance increment of each optimization over baseline",
        benchmarks=benchmarks,
        series=series,
        unit="% saved simulated cycles",
        paper_average=1.68,
    )


# -- Figure 5 ---------------------------------------------------------------------

FIG5_POLICIES = ["baseline", "noWBcleanVic", "llcWB", "llcWB+useL3OnWT"]


def run_figure5(matrix: ExperimentMatrix | None = None,
                benchmarks: Sequence[str] | None = None) -> FigureResult:
    """Directory<->memory reads+writes per policy (absolute counts)."""
    matrix = matrix or ExperimentMatrix()
    benchmarks = list(benchmarks or available_workloads())
    series: dict[str, list[float]] = {p: [] for p in FIG5_POLICIES}
    matrix.run_batch([
        (benchmark, policy)
        for benchmark in benchmarks
        for policy in FIG5_POLICIES
    ])
    for benchmark in benchmarks:
        for policy in FIG5_POLICIES:
            series[policy].append(float(matrix.run(benchmark, policy).mem_accesses))
    return FigureResult(
        name="Figure 5",
        description="memory reads+writes from the directory",
        benchmarks=benchmarks,
        series=series,
        unit="#accesses",
        paper_average=None,
    )


def figure5_reduction(figure: FigureResult) -> float:
    """Average % reduction of the best policy vs baseline (paper: 50.4 %)."""
    reductions = []
    for index in range(len(figure.benchmarks)):
        base = figure.series["baseline"][index]
        best = figure.series["llcWB+useL3OnWT"][index]
        if base:
            reductions.append(100.0 * (base - best) / base)
    return sum(reductions) / len(reductions) if reductions else 0.0


# -- Figures 6 and 7 -------------------------------------------------------------------

TRACKING_POLICIES = ["owner", "sharers"]


def run_figure6(matrix: ExperimentMatrix | None = None,
                benchmarks: Sequence[str] | None = None) -> FigureResult:
    """% saved cycles with owner / owner+sharer tracking (paper avg 14.4 %)."""
    matrix = matrix or ExperimentMatrix()
    benchmarks = list(benchmarks or FIGURE6_BENCHMARKS)
    series: dict[str, list[float]] = {p: [] for p in TRACKING_POLICIES}
    matrix.run_batch([
        (benchmark, policy)
        for benchmark in benchmarks
        for policy in ["baseline"] + TRACKING_POLICIES
    ])
    for benchmark in benchmarks:
        base = matrix.run(benchmark, "baseline")
        for policy in TRACKING_POLICIES:
            series[policy].append(matrix.run(benchmark, policy).speedup_over(base))
    return FigureResult(
        name="Figure 6",
        description="performance increment of owner/sharers tracking over baseline",
        benchmarks=benchmarks,
        series=series,
        unit="% saved simulated cycles",
        paper_average=14.4,
    )


def run_figure7(matrix: ExperimentMatrix | None = None,
                benchmarks: Sequence[str] | None = None) -> FigureResult:
    """% reduction in probes sent from the directory (paper avg 80.3 %)."""
    matrix = matrix or ExperimentMatrix()
    benchmarks = list(benchmarks or FIGURE6_BENCHMARKS)
    series: dict[str, list[float]] = {p: [] for p in TRACKING_POLICIES}
    matrix.run_batch([
        (benchmark, policy)
        for benchmark in benchmarks
        for policy in ["baseline"] + TRACKING_POLICIES
    ])
    for benchmark in benchmarks:
        base = matrix.run(benchmark, "baseline")
        for policy in TRACKING_POLICIES:
            probes = matrix.run(benchmark, policy).dir_probes
            reduction = (
                100.0 * (base.dir_probes - probes) / base.dir_probes
                if base.dir_probes else 0.0
            )
            series[policy].append(reduction)
    return FigureResult(
        name="Figure 7",
        description="reduction in probes sent out from the directory",
        benchmarks=benchmarks,
        series=series,
        unit="% fewer probes",
        paper_average=80.3,
    )


# -- Tables II and III --------------------------------------------------------------------


def table2_text(config: SystemConfig | None = None) -> str:
    """Table II: cache configurations."""
    config = config or SystemConfig.ryzen_2200g()
    rows = [
        ["Directory", f"{config.policy.dir_entries} entries", config.policy.dir_assoc,
         config.dir_latency_cycles],
        ["LLC", _size(config.llc.size_bytes), config.llc.assoc, config.llc.latency_cycles],
        ["L2", _size(config.l2.size_bytes), config.l2.assoc, config.l2.latency_cycles],
        ["L1D", _size(config.l1d.size_bytes), config.l1d.assoc, config.l1d.latency_cycles],
        ["L1I", _size(config.l1i.size_bytes), config.l1i.assoc, config.l1i.latency_cycles],
        ["TCC", _size(config.tcc.size_bytes), config.tcc.assoc, config.tcc.latency_cycles],
        ["TCP", _size(config.tcp.size_bytes), config.tcp.assoc, config.tcp.latency_cycles],
        ["SQC", _size(config.sqc.size_bytes), config.sqc.assoc, config.sqc.latency_cycles],
    ]
    return format_table(
        ["cache", "size", "assoc", "latency (cy)"], rows,
        title="Table II — cache configurations",
    )


def table3_text(config: SystemConfig | None = None) -> str:
    """Table III: system configuration."""
    config = config or SystemConfig.ryzen_2200g()
    rows = [
        ["#CUs", config.num_cus],
        ["#CorePairs / #CPUs", f"{config.num_corepairs} / {config.num_cpu_cores}"],
        ["CPU freq.", f"{config.cpu_freq_ghz} GHz"],
        ["GPU freq.", f"{config.gpu_freq_ghz} GHz"],
        ["#TCCs", 1],
        ["memory latency", f"{config.mem_latency_cycles} cy"],
        ["directory kind", config.policy.kind.value],
    ]
    return format_table(["parameter", "assignment"], rows,
                        title="Table III — system configuration")


def _size(size_bytes: int) -> str:
    if size_bytes >= 2**20:
        return f"{size_bytes // 2**20} MB"
    if size_bytes >= 2**10:
        return f"{size_bytes // 2**10} KB"
    return f"{size_bytes} B"
