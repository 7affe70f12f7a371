"""Tests for transaction-latency reporting."""

from __future__ import annotations

from repro import SystemConfig, build_system, get_workload
from repro.analysis.latency import average_latency
from repro.coherence.policies import PRESETS


def run(policy_name: str):
    system = build_system(SystemConfig.benchmark(policy=PRESETS[policy_name]))
    return system.run_workload(get_workload("cedd"), scale=0.5)


class TestLatencyReporting:
    def test_average_latency_positive_for_used_types(self):
        result = run("baseline")
        assert average_latency(result, "RdBlk") > 0
        assert average_latency(result, "Atomic") > 0

    def test_unused_type_is_zero(self):
        result = run("baseline")
        assert average_latency(result, "DMARd") == 0.0

    def test_owner_tracking_cuts_read_latency(self):
        """The mechanism behind Figure 6: eliding probes + the
        always-missing LLC read collapses RdBlk transaction latency."""
        baseline = run("baseline")
        precise = run("sharers")
        assert average_latency(precise, "RdBlk") < average_latency(baseline, "RdBlk")

    def test_counts_survive_banking(self):
        system = build_system(SystemConfig.benchmark(
            policy=PRESETS["sharers"].named(dir_banks=2)
        ))
        result = system.run_workload(get_workload("cedd"), scale=0.5)
        assert result.ok
        assert average_latency(result, "RdBlk") > 0
        banks = {key.split(".txn.")[0] for key in result.stats if ".txn." in key}
        assert {"dir0", "dir1"} <= banks
