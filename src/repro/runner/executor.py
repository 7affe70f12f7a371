"""Execution of keyed jobs: inline, or fanned out over a process pool.

:func:`repro.store.resolve_jobs` decides which jobs (figure cells,
litmus runs) must actually run; this module runs them:

- :func:`run_jobs` — inline for one worker or one job, else the pool;
- :func:`run_inline` — the serial in-process reference path;
- :func:`run_pool` — fan-out over a :class:`ProcessPoolExecutor` with a
  per-job timeout (an interval timer inside the worker, where available)
  and bounded retries for crashed *or* timed-out jobs;
- :func:`run_payload` — the worker entry point.

A job crosses the process boundary pickled: its inputs are plain
dataclasses (configs, policies, schedules, litmus programs) and so is its
result, so nothing simulator-internal crosses and parallel results are
bit-identical to serial ones.  A job that cannot be pickled (a workload
or postcondition holding a closure, a fault-injection hook) runs inline.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from typing import Callable, Sequence

from repro.runner.cells import Cell
from repro.system.apu import SimulationResult

#: how many times a crashed or timed-out job is resubmitted before giving up
DEFAULT_RETRIES = 1


class CellError(RuntimeError):
    """A job failed to execute (crash, timeout, or worker exception)."""


class CellTimeout(CellError):
    """A job exceeded its wall-clock timeout."""


def effective_jobs(jobs: int | None) -> int:
    """Resolve a ``--jobs`` value: None means one worker per CPU."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _alarm_handler(_signum, _frame):  # pragma: no cover - fires in workers
    raise CellTimeout("job exceeded its wall-clock timeout")


def run_cell_inline(cell: Cell) -> SimulationResult:
    """Run one cell in this process (the serial reference path)."""
    from repro.system.builder import build_system
    from repro.workloads.registry import get_workload

    workload = cell.workload
    if isinstance(workload, str):
        workload = get_workload(workload)
    system = build_system(cell.config)
    try:
        return system.run_workload(
            workload, seed=cell.seed, scale=cell.scale, verify=cell.verify
        )
    finally:
        system.close()


def run_payload(payload: bytes):
    """Worker entry point: unpickle one job, run it under its timeout."""
    job, timeout_s = pickle.loads(payload)
    use_timer = timeout_s is not None and hasattr(signal, "setitimer")
    if use_timer:
        signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return job.run()
    finally:
        if use_timer:
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_jobs(
    batch: Sequence,
    pending: Sequence[int],
    results: list,
    jobs: int | None,
    timeout_s: float | None,
    retries: int,
    emit: Callable[[str], None],
) -> None:
    """Run the ``pending`` jobs of ``batch`` into ``results``."""
    jobs = effective_jobs(jobs)
    if jobs <= 1 or len(pending) == 1:
        run_inline(batch, pending, results, emit)
    else:
        run_pool(batch, pending, results, jobs, timeout_s, retries, emit)


def run_inline(
    batch: Sequence,
    pending: Sequence[int],
    results: list,
    emit: Callable[[str], None],
) -> None:
    """Serial execution of ``pending`` into ``results`` (reference path)."""
    for position, index in enumerate(pending):
        start = time.perf_counter()
        results[index] = batch[index].run()
        emit(
            f"[runner] {position + 1}/{len(pending)} {batch[index].label}: "
            f"simulated inline in {time.perf_counter() - start:.2f}s"
        )


def run_pool(
    batch: Sequence,
    pending: Sequence[int],
    results: list,
    jobs: int,
    timeout_s: float | None,
    retries: int,
    emit: Callable[[str], None],
) -> None:
    """Fan ``pending`` out over a process pool with retry on crash/timeout.

    Progress accounting counts each *unique* job exactly once: a job that
    times out or crashes and then succeeds on retry contributes one
    ``done/total`` line, and ``total`` never inflates with re-attempts.
    """
    # Loaded here, not at module level: the pool's stack (multiprocessing,
    # logging, socket) costs every serial run ~2.5 MB and ~17 ms otherwise.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    payloads = {}
    for index in pending:
        try:
            payloads[index] = pickle.dumps((batch[index], timeout_s))
        except (pickle.PicklingError, AttributeError, TypeError):
            emit(f"[runner] {batch[index].label}: not picklable, running inline")
            results[index] = batch[index].run()

    attempts = dict.fromkeys(payloads, 0)
    done = 0
    total = len(payloads)
    queue = list(payloads)
    while queue:
        # A fresh pool per round also recovers from BrokenProcessPool.
        with ProcessPoolExecutor(max_workers=min(jobs, len(queue))) as pool:
            futures = {pool.submit(run_payload, payloads[i]): i for i in queue}
            queue = []
            for future in as_completed(futures):
                index = futures[future]
                label = batch[index].label
                try:
                    results[index] = future.result()
                except Exception as exc:  # timeout, crash, BrokenProcessPool
                    attempts[index] += 1
                    timed_out = isinstance(exc, CellTimeout)
                    if attempts[index] > retries:
                        if timed_out:
                            raise CellError(
                                f"cell {label} timed out after "
                                f"{timeout_s}s ({attempts[index]} attempt(s))"
                            ) from exc
                        raise CellError(
                            f"cell {label} failed after "
                            f"{attempts[index]} attempt(s): {exc}"
                        ) from exc
                    reason = (
                        "timed out" if timed_out
                        else f"crashed ({type(exc).__name__})"
                    )
                    emit(
                        f"[runner] {label}: {reason}, "
                        f"retry {attempts[index]}/{retries}"
                    )
                    queue.append(index)
                else:
                    done += 1
                    emit(f"[runner] {done}/{total} {label}: simulated on pool")


def default_progress(line: str) -> None:
    """A ready-made progress sink: one line per event on stderr."""
    print(line, file=sys.stderr, flush=True)
