"""Tests for the process-pool executor: serial/parallel equality, store
reuse, retry-on-crash, timeouts, and the matrix/sweep integration."""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.experiments import ExperimentMatrix, run_figure4
from repro.analysis.sweeps import sweep
from repro.coherence.policies import PRESETS
from repro.runner import Cell, CellError, effective_jobs
from repro.store import ResultStore, resolve_cells
from repro.system.config import SystemConfig
from repro.workloads.base import Workload, WorkloadBuild
from repro.workloads.micro import MigratoryCounter


def cells_for(names, policy="baseline", scale=0.25):
    return [
        Cell(
            workload=name,
            config=SystemConfig.small(policy=PRESETS[policy]),
            scale=scale,
            label=f"{name}/{policy}",
        )
        for name in names
    ]


class CrashingWorkload(Workload):
    """Raises during build on every attempt (deterministic crash)."""

    name = "crash_always"

    def build(self, ctx):
        raise RuntimeError("intentional crash for the retry test")


class FlakyWorkload(Workload):
    """Crashes the first time, succeeds on retry (via a marker file that
    survives the process boundary)."""

    name = "crash_once"

    def __init__(self, marker_path: str) -> None:
        self.marker_path = marker_path

    def build(self, ctx):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("crashed once")
            raise RuntimeError("intentional first-attempt crash")
        return MigratoryCounter(4).build(ctx)


class SleepyWorkload(Workload):
    """Sleeps long enough to trip the per-cell timeout."""

    name = "sleepy"

    def build(self, ctx):
        time.sleep(10)
        return WorkloadBuild(cpu_programs=[])  # pragma: no cover


class BriefSleepWorkload(Workload):
    """Sleeps 0.8 s: past a 0.5 s timeout, inside one rounded up to 1 s."""

    name = "brief_sleep"

    def build(self, ctx):
        time.sleep(0.8)
        return MigratoryCounter(4).build(ctx)


class TimeoutOnceWorkload(Workload):
    """Trips the per-cell timeout on the first attempt, succeeds on retry
    (marker file survives the process boundary)."""

    name = "timeout_once"

    def __init__(self, marker_path: str) -> None:
        self.marker_path = marker_path

    def build(self, ctx):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("timed out once")
            time.sleep(10)  # SIGALRM interrupts this
        return MigratoryCounter(4).build(ctx)


class UnpicklableWorkload(Workload):
    """Cannot cross the process boundary (lambda attribute)."""

    name = "unpicklable"

    def __init__(self) -> None:
        self.hook = lambda: None

    def build(self, ctx):
        return MigratoryCounter(4).build(ctx)


class TestEffectiveJobs:
    def test_none_means_cpu_count(self):
        assert effective_jobs(None) == (os.cpu_count() or 1)

    def test_explicit_value(self):
        assert effective_jobs(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_jobs(0)


class TestSerialParallelEquality:
    def test_pool_results_bit_identical_to_serial(self):
        batch = cells_for(["bs", "tq", "pad"])
        serial = resolve_cells(batch, jobs=1)
        parallel = resolve_cells(batch, jobs=2)
        assert serial == parallel  # dataclass equality over every field

    def test_order_preserved(self):
        batch = cells_for(["bs", "tq", "pad"])
        results = resolve_cells(batch, jobs=2)
        assert [r.workload for r in results] == ["bs", "tq", "pad"]


class TestCachedExecution:
    def test_warm_run_performs_zero_simulations(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite")
        batch = cells_for(["bs", "tq"])
        cold = resolve_cells(batch, jobs=2, store=store)
        assert store.misses == 2 and len(store) == 2

        # Any attempt to simulate on the warm run must blow up loudly.
        def boom(*_args, **_kwargs):
            raise AssertionError("warm run simulated a cell")

        monkeypatch.setattr("repro.runner.executor.run_jobs", boom)
        monkeypatch.setattr("repro.runner.executor.run_cell_inline", boom)
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = resolve_cells(cells_for(["bs", "tq"]), jobs=2, store=warm_store)
        assert warm_store.hits == 2 and warm_store.misses == 0
        assert warm == cold

    def test_duplicate_cells_simulated_once(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        batch = cells_for(["bs", "bs", "bs"])
        results = resolve_cells(batch, jobs=1, store=store)
        assert len(store) == 1  # one simulation backs all three cells
        assert results[0] == results[1] == results[2]


class TestFailureHandling:
    def test_deterministic_crash_raises_cell_error_after_retry(self):
        cell = Cell(
            workload=CrashingWorkload(),
            config=SystemConfig.small(policy=PRESETS["baseline"]),
            label="crash_always",
        )
        with pytest.raises(CellError, match="crash_always.*2 attempt"):
            resolve_cells([cell, *cells_for(["bs"])], jobs=2)

    def test_crash_once_recovers_via_retry(self, tmp_path):
        marker = tmp_path / "crashed.marker"
        cell = Cell(
            workload=FlakyWorkload(str(marker)),
            config=SystemConfig.small(policy=PRESETS["baseline"]),
            label="crash_once",
        )
        lines: list[str] = []
        results = resolve_cells(
            [cell, *cells_for(["bs"])], jobs=2, progress=lines.append
        )
        assert marker.exists()
        assert results[0].ok
        assert any("retry" in line for line in lines)

    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                        reason="needs SIGALRM")
    def test_per_cell_timeout(self):
        cell = Cell(
            workload=SleepyWorkload(),
            config=SystemConfig.small(policy=PRESETS["baseline"]),
            label="sleepy",
        )
        with pytest.raises(CellError, match="timed out"):
            resolve_cells([cell, *cells_for(["bs"])], jobs=2, timeout_s=1)

    @pytest.mark.skipif(not hasattr(__import__("signal"), "setitimer"),
                        reason="needs setitimer")
    def test_subsecond_timeout_is_not_rounded_up(self):
        cell = Cell(
            workload=BriefSleepWorkload(),
            config=SystemConfig.small(policy=PRESETS["baseline"]),
            label="brief_sleep",
        )
        with pytest.raises(CellError, match="timed out after 0.5s"):
            resolve_cells([cell, *cells_for(["bs"])], jobs=2, timeout_s=0.5)

    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                        reason="needs SIGALRM")
    def test_timeout_then_success_reported_once(self, tmp_path):
        """A cell that times out and then succeeds on retry contributes
        exactly one done line, and progress totals never inflate with the
        re-attempt."""
        marker = tmp_path / "timeout.marker"
        cell = Cell(
            workload=TimeoutOnceWorkload(str(marker)),
            config=SystemConfig.small(policy=PRESETS["baseline"]),
            label="timeout_once",
        )
        lines: list[str] = []
        results = resolve_cells(
            [cell, *cells_for(["bs"])], jobs=2, timeout_s=1,
            progress=lines.append,
        )
        assert marker.exists()
        assert results[0].ok and results[1].ok
        retries = [line for line in lines if "retry" in line]
        assert len(retries) == 1 and "timed out" in retries[0]
        done = [line for line in lines if "simulated on pool" in line]
        assert len(done) == 2  # each unique cell exactly once
        assert sorted(line.split()[1] for line in done) == ["1/2", "2/2"]
        cell = Cell(
            workload=UnpicklableWorkload(),
            config=SystemConfig.small(policy=PRESETS["baseline"]),
            label="unpicklable",
        )
        lines: list[str] = []
        results = resolve_cells(
            [cell, *cells_for(["bs"])], jobs=2, progress=lines.append
        )
        assert results[0].ok
        assert any("inline" in line for line in lines)


class TestMatrixIntegration:
    def test_parallel_matrix_matches_serial_figure(self, tmp_path):
        serial = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=1
        )
        parallel = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2,
            store=ResultStore(tmp_path / "s.sqlite"),
        )
        fig_serial = run_figure4(serial, benchmarks=["bs", "tq"])
        fig_parallel = run_figure4(parallel, benchmarks=["bs", "tq"])
        assert fig_serial.series == fig_parallel.series

        # Warm rerun from a fresh matrix: zero simulations, identical stats.
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2,
            store=warm_store,
        )
        fig_warm = run_figure4(warm, benchmarks=["bs", "tq"])
        assert fig_warm.series == fig_serial.series
        assert warm_store.misses == 0 and warm_store.hits == 8

    def test_run_batch_returns_every_pair(self):
        matrix = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2
        )
        pairs = [("bs", "baseline"), ("bs", "llcWB"), ("tq", "baseline")]
        results = matrix.run_batch(pairs)
        assert set(results) == set(pairs)
        assert all(result.ok for result in results.values())
        # in-memory identity caching still holds
        assert matrix.run("bs", "baseline") is results[("bs", "baseline")]

    def test_unknown_workload_still_raises_keyerror(self):
        matrix = ExperimentMatrix(config_factory=SystemConfig.small, scale=0.25)
        with pytest.raises(KeyError):
            matrix.run("not-a-workload", "baseline")


class TestSweepIntegration:
    def test_parallel_sweep_matches_serial(self, tmp_path):
        kwargs = dict(
            workload=MigratoryCounter(8),
            axis=("mem_latency_cycles", [50, 200]),
            policies=["baseline", "sharers"],
            config_factory=SystemConfig.small,
        )
        serial = sweep(jobs=1, **kwargs)
        parallel = sweep(
            jobs=2, store=ResultStore(tmp_path / "s.sqlite"), **kwargs
        )
        for policy in ("baseline", "sharers"):
            assert serial.results[policy] == parallel.results[policy]

    def test_sweep_cache_warm_rerun(self, tmp_path):
        kwargs = dict(
            workload=MigratoryCounter(8),
            axis=("dir_banks", [1, 2]),
            policies=["sharers"],
            config_factory=SystemConfig.small,
        )
        cold_store = ResultStore(tmp_path / "s.sqlite")
        cold = sweep(jobs=1, store=cold_store, **kwargs)
        assert cold_store.misses == 2
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = sweep(jobs=1, store=warm_store, **kwargs)
        assert warm_store.hits == 2 and warm_store.misses == 0
        assert warm.results["sharers"] == cold.results["sharers"]
