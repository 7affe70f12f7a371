"""``resolve_jobs`` — the one path from keyed jobs to results.

Every consumer (figures, sweeps, benchmarks, the litmus sweep, the fuzz
campaign, the CLI) resolves its work here.  A *job* is a figure cell
(:class:`CellJob`) or a litmus run
(:class:`repro.verify.litmus.harness.LitmusJob`); both expose

- ``kind`` and ``label`` — the store row kind and a progress label;
- ``key()`` — the content-addressed key (None: not content-addressable,
  e.g. a fault-injected run, so never looked up, shared or stored);
- ``run()`` — the simulation itself, inline or in a pool worker;
- ``decode(row)`` / ``row(result)`` — the store row round trip;
- ``share(result)`` — the result as seen by an identical duplicate.

For each job, in order: **store lookup** (warm jobs never simulate),
**in-batch dedup** (identical jobs simulate once), then **execution**
inline or on a local process pool, and finally **store put** of every
fresh result.  All paths are bit-identical: results round-trip exactly
through :mod:`repro.system.serialize` and the simulator is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from repro.runner import executor
from repro.runner.cache import cell_key, workload_token
from repro.runner.cells import Cell
from repro.store.store import KIND_CELL, ResultStore
from repro.system.apu import SimulationResult
from repro.system.serialize import config_to_dict, result_from_dict, result_to_dict


@dataclass
class CellJob:
    """One figure cell as a keyed job."""

    cell: Cell
    kind: ClassVar[str] = KIND_CELL
    decode = staticmethod(result_from_dict)

    @property
    def label(self) -> str:
        return self.cell.display

    def key(self) -> str:
        return cell_key(self.cell)

    def run(self) -> SimulationResult:
        return executor.run_cell_inline(self.cell)

    def row(self, result: SimulationResult) -> dict:
        cell = self.cell
        return {
            "workload": workload_token(cell.workload),
            "config": config_to_dict(cell.config),
            "result": result_to_dict(result),
            "scale": cell.scale,
            "verify": cell.verify,
            "seed": cell.seed,
        }

    def share(self, result: SimulationResult) -> SimulationResult:
        return result


def resolve_jobs(
    batch: Sequence,
    store: ResultStore | None = None,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list:
    """Resolve every job of ``batch``, returning results in input order.

    ``store`` serves warm jobs and receives every fresh result; ``jobs``
    is the worker count (None: one per CPU); ``timeout_s`` and
    ``retries`` bound each pool attempt.
    """
    emit = progress or (lambda line: None)
    total = len(batch)
    results: list = [None] * total
    # A lone job without a store has nothing to look up or share, so it
    # skips the key (hashing the sources costs ~0.2 s on first use).
    if store is not None or total > 1:
        keys = [job.key() for job in batch]
    else:
        keys = [None] * total

    pending: list[int] = []
    first: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []
    for index, (job, key) in enumerate(zip(batch, keys)):
        if key is not None:
            if store is not None:
                stored = store.get_row(key, job.kind, job.decode)
                if stored is not None:
                    results[index] = stored
                    emit(f"[runner] {index + 1}/{total} {job.label}: store hit")
                    continue
            if key in first:
                duplicates.append((index, first[key]))
                continue
            first[key] = index
        pending.append(index)

    if pending:
        executor.run_jobs(
            batch, pending, results, jobs, timeout_s,
            executor.DEFAULT_RETRIES if retries is None else retries, emit,
        )
    if store is not None:
        for index in pending:
            if keys[index] is not None:
                job = batch[index]
                store.put_row(keys[index], job.kind, **job.row(results[index]))
    for index, source in duplicates:
        results[index] = batch[index].share(results[source])
    return results


def resolve_cells(
    cells: Sequence[Cell],
    store: ResultStore | None = None,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    progress: Callable[[str], None] | None = None,
    serve=None,
) -> list[SimulationResult]:
    """Resolve figure cells through :func:`resolve_jobs`.

    ``serve`` is accepted only empty: the serve daemon it once named
    has been removed.
    """
    if serve:
        raise ValueError("the serve daemon was removed; resolve cells "
                         "locally, with a ResultStore for warm reuse")
    return resolve_jobs([CellJob(cell) for cell in cells], store, jobs,
                        timeout_s, retries, progress)


def resolve_litmus(
    runs: Sequence[tuple],
    store: ResultStore | None = None,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    progress: Callable[[str], None] | None = None,
    max_events: int | None = None,
    coverage: bool = False,
    mutate_system=None,
) -> list:
    """Resolve ``(test, policy_name, schedule)`` litmus runs (policies by
    :data:`POLICY_VARIANTS` name) through :func:`resolve_jobs`.

    ``mutate_system`` (fault injection) makes every run unkeyed, so the
    store is bypassed; a closure hook cannot be pickled, so its runs
    execute inline.
    """
    from repro.verify.litmus.harness import (
        LITMUS_MAX_EVENTS,
        POLICY_VARIANTS,
        LitmusJob,
    )

    if max_events is None:
        max_events = LITMUS_MAX_EVENTS
    batch = [
        LitmusJob(test, POLICY_VARIANTS[policy_name], schedule, policy_name,
                  max_events, coverage, mutate_system)
        for test, policy_name, schedule in runs
    ]
    return resolve_jobs(batch, store, jobs, timeout_s, retries, progress)


__all__ = ["CellJob", "resolve_cells", "resolve_jobs", "resolve_litmus"]
