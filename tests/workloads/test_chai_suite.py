"""The CHAI-like suite must run to completion AND verify its outputs on a
small system under representative directory policies — this is the
reproduction's equivalent of the benchmarks' output verification."""

from __future__ import annotations

import pytest

from repro import SystemConfig, available_workloads, build_system, get_workload
from repro.coherence.policies import PRESETS

ALL = available_workloads()
#: policies spanning the design space (baseline, best §III combo, precise)
POLICY_SAMPLE = ["baseline", "llcWB+useL3OnWT", "owner", "sharers"]


class TestRegistry:
    def test_paper_suite_is_registered(self):
        assert ALL == [
            "bs", "cedd", "pad", "sc", "tq", "hsti", "hsto", "trns", "rscd", "rsct",
        ]

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_metadata_present(self):
        for name in ALL:
            workload = get_workload(name)
            assert workload.description, name


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("policy", POLICY_SAMPLE)
class TestSuiteVerifies:
    def test_runs_and_verifies(self, name, policy):
        system = build_system(SystemConfig.small(policy=PRESETS[policy]))
        result = system.run_workload(get_workload(name), scale=0.25, verify=True)
        assert result.ok, result.check_errors[:5]
        assert result.cycles > 0
        assert result.dir_probes >= 0


@pytest.mark.parametrize("name", ALL)
class TestDeterminism:
    def test_same_seed_same_cycles(self, name):
        runs = []
        for _ in range(2):
            system = build_system(SystemConfig.small())
            result = system.run_workload(get_workload(name), scale=0.25)
            runs.append((result.cycles, result.dir_probes, result.mem_accesses))
        assert runs[0] == runs[1]
