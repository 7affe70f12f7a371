"""Tests for the one job resolver: store-backed warm resolution and
inline/pool parity for both job kinds, in-batch dedup, the removed serve
daemon, and the acceptance criterion — a warm re-query of the full figure pipeline
performs zero simulations and is bit-identical to a cold serial run."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ExperimentMatrix,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
)
from repro.coherence.policies import PRESETS
from repro.runner import Cell
from repro.store import ResultStore, resolve_cells, resolve_litmus
from repro.system.config import SystemConfig
from repro.verify.litmus import Schedule, get_litmus

#: every function through which the resolver can simulate
SIMULATING = (
    "repro.runner.executor.run_jobs",
    "repro.runner.executor.run_inline",
    "repro.runner.executor.run_pool",
    "repro.runner.executor.run_payload",
    "repro.runner.executor.run_cell_inline",
    "repro.verify.litmus.harness.run_litmus",
)


def forbid_simulation(monkeypatch) -> None:
    def boom(*_args, **_kwargs):
        raise AssertionError("warm pass simulated")

    for target in SIMULATING:
        monkeypatch.setattr(target, boom)


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


def litmus_runs(names, policy="baseline", seed=0):
    return [(get_litmus(name), policy, Schedule(seed)) for name in names]


class TestStoreResolution:
    def test_duplicates_simulated_once(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        batch = cells_for(["bs", "bs", "bs"])
        results = resolve_cells(batch, store=store, jobs=1)
        assert store.puts == 1 and len(store) == 1
        assert results[0] == results[1] == results[2]

    def test_store_and_cacheless_runs_identical(self, tmp_path):
        plain = resolve_cells(cells_for(["bs", "tq"]), jobs=1)
        stored = resolve_cells(cells_for(["bs", "tq"]),
                               store=ResultStore(tmp_path / "s.sqlite"),
                               jobs=2)
        assert plain == stored

    def test_warm_rerun_zero_simulations(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite")
        cold = resolve_cells(cells_for(["bs", "tq"]), store=store, jobs=2)
        assert store.puts == 2

        forbid_simulation(monkeypatch)
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = resolve_cells(cells_for(["bs", "tq"]), store=warm_store,
                             jobs=2)
        assert warm_store.hits == 2 and warm_store.misses == 0
        assert warm == cold

    def test_duplicates_without_store_simulated_once(self, monkeypatch):
        from repro.runner import executor

        simulated = []
        run_cell_inline = executor.run_cell_inline

        def counting(cell):
            simulated.append(cell.display)
            return run_cell_inline(cell)

        monkeypatch.setattr("repro.runner.executor.run_cell_inline", counting)
        results = resolve_cells(cells_for(["bs", "bs", "bs"]), jobs=1)
        assert simulated == ["bs/baseline"]
        assert results[0] == results[1] == results[2]

    def test_lone_storeless_cell_computes_no_key(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("a lone store-less cell was keyed")

        monkeypatch.setattr("repro.store.resolve.cell_key", boom)
        [result] = resolve_cells(cells_for(["bs"]), jobs=1, serve="")
        assert result.ok

    def test_serve_daemon_is_gone(self):
        with pytest.raises(ValueError, match="serve daemon was removed"):
            resolve_cells(cells_for(["bs"]), jobs=1, serve="127.0.0.1:9")


class TestFigurePipelineWarmRequery:
    """Acceptance: the full figure pipeline, warm through the store, is
    zero-simulation and bit-identical to a cold serial (jobs=1) run."""

    FIGURES = (run_figure4, run_figure5, run_figure6, run_figure7)

    def _pipeline(self, matrix):
        return [regenerate(matrix).series for regenerate in self.FIGURES]

    def test_full_pipeline_warm_is_bit_identical(self, tmp_path, monkeypatch):
        serial = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=1
        )
        reference = self._pipeline(serial)

        store = ResultStore(tmp_path / "figures.sqlite")
        cold = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2,
            store=store,
        )
        assert self._pipeline(cold) == reference

        forbid_simulation(monkeypatch)
        warm_store = ResultStore(tmp_path / "figures.sqlite")
        warm = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2,
            store=warm_store,
        )
        assert self._pipeline(warm) == reference
        assert warm_store.misses == 0 and warm_store.hits > 0


class TestLitmusResolution:
    """``resolve_litmus`` mirrors the cell path for litmus runs: warm
    lookups, in-batch dedup, pool fan-out, the coverage flag in the key,
    and the fault-injection (unkeyed) mode."""

    def test_store_and_plain_runs_identical(self, tmp_path):
        plain = resolve_litmus(litmus_runs(["mp", "sb"]), jobs=1,
                               coverage=True)
        stored = resolve_litmus(
            litmus_runs(["mp", "sb"]),
            store=ResultStore(tmp_path / "s.sqlite"), jobs=2, coverage=True,
        )
        assert [r.ok for r in plain] == [r.ok for r in stored]
        assert [r.coverage for r in plain] == [r.coverage for r in stored]
        assert [r.ticks for r in plain] == [r.ticks for r in stored]

    def test_duplicates_simulated_once(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        results = resolve_litmus(litmus_runs(["mp", "mp", "mp"]),
                                 store=store, jobs=1)
        assert store.puts == 1 and len(store) == 1
        assert results[0].ticks == results[1].ticks == results[2].ticks

    def test_warm_rerun_zero_simulations(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite")
        cold = resolve_litmus(litmus_runs(["mp", "coww"]), store=store,
                              jobs=2, coverage=True)
        assert store.puts == 2

        forbid_simulation(monkeypatch)
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = resolve_litmus(litmus_runs(["mp", "coww"]), store=warm_store,
                              jobs=2, coverage=True)
        assert warm_store.misses == 0 and warm_store.hits == 2
        assert [r.ticks for r in warm] == [r.ticks for r in cold]
        assert [r.coverage for r in warm] == [r.coverage for r in cold]

    def test_coverage_flag_partitions_the_keyspace(self, tmp_path):
        """A row stored without coverage must not satisfy a coverage
        query — the key includes the flag."""
        store = ResultStore(tmp_path / "s.sqlite")
        resolve_litmus(litmus_runs(["mp"]), store=store, jobs=1)
        resolve_litmus(litmus_runs(["mp"]), store=store, jobs=1,
                       coverage=True)
        assert store.puts == 2 and len(store) == 2

    def test_fault_injection_bypasses_the_store(self, tmp_path):
        def mutate(system):
            pass  # identity fault: exercises the unkeyed inline path

        store = ResultStore(tmp_path / "s.sqlite")
        results = resolve_litmus(litmus_runs(["mp"]), store=store, jobs=4,
                                 mutate_system=mutate)
        assert results[0].ok
        assert store.puts == 0 and len(store) == 0

    def test_duplicate_outcomes_carry_their_own_policy_name(self):
        """Two runs that dedup to one key still report the policy each
        caller asked for."""
        test = get_litmus("mp")
        runs = [(test, "baseline", Schedule(0)),
                (test, "baseline", Schedule(0))]
        results = resolve_litmus(runs, jobs=1)
        assert all(r.policy == "baseline" for r in results)
