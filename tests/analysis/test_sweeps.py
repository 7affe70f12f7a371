"""Tests for the parameter-sweep engine."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import sweep
from repro.system.config import SystemConfig
from repro.workloads.micro import MigratoryCounter


def small_factory(policy=None):
    return SystemConfig.small(policy=policy)


class TestSweep:
    def test_config_axis(self):
        result = sweep(
            MigratoryCounter(10),
            axis=("mem_latency_cycles", [50, 400]),
            policies=["baseline"],
            config_factory=small_factory,
        )
        cycles = result.metric("baseline", "cycles")
        assert len(cycles) == 2
        assert cycles[1] > cycles[0]  # slower memory, slower run

    def test_policy_axis(self):
        result = sweep(
            "bs",
            axis=("dir_banks", [1, 2]),
            policies=["sharers"],
            config_factory=small_factory,
            scale=0.25,
        )
        assert len(result.results["sharers"]) == 2

    def test_multiple_policies_and_render(self):
        result = sweep(
            MigratoryCounter(8),
            axis=("num_corepairs", [1, 2]),
            policies=["baseline", "owner"],
            config_factory=small_factory,
        )
        text = result.to_text("dir_probes")
        assert "num_corepairs" in text
        assert "owner" in text

    def test_probe_metric_shows_tracking_win(self):
        result = sweep(
            MigratoryCounter(10),
            axis=("num_corepairs", [2]),
            policies=["baseline", "sharers"],
            config_factory=small_factory,
        )
        baseline_probes = result.metric("baseline", "dir_probes")[0]
        precise_probes = result.metric("sharers", "dir_probes")[0]
        assert precise_probes < baseline_probes

    def test_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="not_a_field"):
            sweep(
                MigratoryCounter(4),
                axis=("not_a_field", [1]),
                config_factory=small_factory,
            )
