"""Tests for content-addressed cell keys and their invalidation."""

from __future__ import annotations

from repro.coherence.policies import PRESETS
from repro.runner import Cell, cell_key, workload_token
from repro.system.config import SystemConfig
from repro.workloads.micro import MigratoryCounter


def small_cell(**overrides) -> Cell:
    defaults = dict(
        workload="bs",
        config=SystemConfig.small(policy=PRESETS["baseline"]),
        scale=0.25,
    )
    defaults.update(overrides)
    return Cell(**defaults)


class TestCellKey:
    def test_stable_for_identical_cells(self):
        assert cell_key(small_cell()) == cell_key(small_cell())

    def test_workload_changes_key(self):
        assert cell_key(small_cell()) != cell_key(small_cell(workload="tq"))

    def test_policy_changes_key(self):
        other = small_cell(config=SystemConfig.small(policy=PRESETS["sharers"]))
        assert cell_key(small_cell()) != cell_key(other)

    def test_scale_verify_seed_change_key(self):
        base = cell_key(small_cell())
        assert base != cell_key(small_cell(scale=0.5))
        assert base != cell_key(small_cell(verify=True))
        assert base != cell_key(small_cell(seed=7))

    def test_label_does_not_change_key(self):
        assert cell_key(small_cell()) == cell_key(small_cell(label="display-only"))

    def test_source_digest_invalidates_key(self, monkeypatch):
        base = cell_key(small_cell())
        monkeypatch.setattr(
            "repro.runner.cache.source_digest", lambda: "different-code"
        )
        assert cell_key(small_cell()) != base

    def test_workload_instance_token_includes_parameters(self):
        assert workload_token(MigratoryCounter(4)) != workload_token(MigratoryCounter(8))
        assert workload_token(MigratoryCounter(4)) == workload_token(MigratoryCounter(4))

    def test_instance_parameters_change_key(self):
        a = cell_key(small_cell(workload=MigratoryCounter(4)))
        b = cell_key(small_cell(workload=MigratoryCounter(8)))
        assert a != b
