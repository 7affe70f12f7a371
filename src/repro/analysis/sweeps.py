"""Generic parameter sweeps over system configuration and policy knobs.

``sweep()`` runs one workload over the cross product of configuration
overrides and policies, returning a :class:`SweepResult` that renders as a
table — the engine behind design-space exploration like
`examples/directory_design_sweep.py`, generalized to any knob:

    sweep(
        workload="cedd",
        axis=("mem_latency_cycles", [80, 160, 320]),
        policies=["baseline", "sharers"],
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.coherence.policies import PRESETS, DirectoryPolicy
from repro.runner import Cell
from repro.store import ResultStore, resolve_cells
from repro.system.apu import SimulationResult
from repro.system.config import SystemConfig
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

#: knobs that live on the DirectoryPolicy rather than the SystemConfig
_POLICY_FIELDS = set(DirectoryPolicy.__dataclass_fields__)


@dataclass
class SweepResult:
    workload: str
    axis_name: str
    axis_values: list
    policies: list[str]
    #: results[policy][axis_index]
    results: dict[str, list[SimulationResult]] = field(default_factory=dict)

    def metric(self, policy: str, metric: str) -> list[float]:
        return [float(getattr(r, metric)) for r in self.results[policy]]

    def to_text(self, metric: str = "cycles") -> str:
        from repro.analysis.report import format_table

        rows = []
        for index, value in enumerate(self.axis_values):
            row: list[object] = [value]
            for policy in self.policies:
                row.append(f"{getattr(self.results[policy][index], metric):.0f}")
            rows.append(row)
        return format_table(
            [self.axis_name] + self.policies, rows,
            title=f"{self.workload}: {metric} vs {self.axis_name}",
        )

def sweep(
    workload: str | Workload,
    axis: tuple[str, Sequence],
    policies: Sequence[str] = ("baseline",),
    config_factory=SystemConfig.benchmark,
    scale: float = 1.0,
    verify: bool = False,
    jobs: int | None = None,
    progress=None,
    store: ResultStore | None = None,
) -> SweepResult:
    """Run ``workload`` over ``axis`` x ``policies``.

    ``axis`` is ``(field_name, values)``; the field may belong to
    :class:`SystemConfig` (e.g. ``mem_latency_cycles``, ``num_corepairs``)
    or to :class:`DirectoryPolicy` (e.g. ``dir_entries``, ``dir_banks``).

    The cross product is embarrassingly parallel: cells resolve through
    :func:`repro.store.resolve_cells` — a :class:`ResultStore` serves
    previously-simulated points from disk and the rest fan out over
    ``jobs`` local workers.
    """
    axis_name, axis_values = axis
    instance = get_workload(workload) if isinstance(workload, str) else workload
    result = SweepResult(
        workload=instance.name,
        axis_name=axis_name,
        axis_values=list(axis_values),
        policies=list(policies),
    )
    cells: list[Cell] = []
    labels: list[tuple[str, object]] = []
    for policy_name in policies:
        for value in axis_values:
            policy = PRESETS[policy_name]
            if axis_name in _POLICY_FIELDS:
                policy = policy.named(**{axis_name: value})
                config = config_factory(policy=policy)
            else:
                config = config_factory(policy=policy)
                config = replace(config, **{axis_name: value})
            cells.append(Cell(
                workload=instance,
                config=config,
                scale=scale,
                verify=verify,
                label=f"{instance.name}/{policy_name}/{axis_name}={value}",
            ))
            labels.append((policy_name, value))
    runs = resolve_cells(cells, jobs=jobs, store=store, progress=progress)
    for (policy_name, value), run in zip(labels, runs):
        if not run.ok:
            raise RuntimeError(
                f"{instance.name}/{policy_name}/{axis_name}={value} failed: "
                f"{run.check_errors[:3]}"
            )
        result.results.setdefault(policy_name, []).append(run)
    return result
