"""Tests for the workload framework utilities and the microbenchmarks."""

from __future__ import annotations

import pytest

from repro import SystemConfig, build_system
from repro.coherence.policies import PRESETS
from repro.mem.address import LINE_BYTES
from repro.workloads.base import AddressSpace, WorkloadContext, checker
from repro.workloads.chai.common import partition, token
from repro.workloads.micro import MigratoryCounter, ReadersWriterSweep, StreamingScan


class TestAddressSpace:
    def test_lines_are_disjoint_and_aligned(self):
        space = AddressSpace()
        a = space.lines(2)
        b = space.lines(1)
        assert a % LINE_BYTES == 0
        assert b == a + 2 * LINE_BYTES

    def test_words_one_per_line(self):
        space = AddressSpace()
        words = space.words(3)
        lines = {w // LINE_BYTES for w in words}
        assert len(lines) == 3

    def test_array_is_dense(self):
        space = AddressSpace()
        array = space.array(20)
        assert array[1] - array[0] == 4
        assert len(array) == 20

    def test_line_zero_reserved(self):
        space = AddressSpace()
        assert space.lines(1) >= 16 * LINE_BYTES

    def test_bad_allocation(self):
        with pytest.raises(ValueError):
            AddressSpace().lines(0)


class TestPartitioning:
    def test_partition_covers_range(self):
        spans = partition(10, 3)
        assert spans == [(0, 4), (4, 7), (7, 10)]

    def test_partition_more_parts_than_items(self):
        spans = partition(2, 4)
        assert [hi - lo for lo, hi in spans] == [1, 1, 0, 0]

    def test_tokens_are_distinct(self):
        seen = {token(a, i) for a in range(4) for i in range(100)}
        assert len(seen) == 400


class TestContext:
    def test_scaled(self):
        ctx = WorkloadContext(num_cpu_cores=4, num_cus=2, scale=0.5)
        assert ctx.scaled(100) == 50
        assert ctx.scaled(1, minimum=4) == 4

    def test_rng_deterministic_per_seed(self):
        a = WorkloadContext(4, 2, seed=7).rng().random()
        b = WorkloadContext(4, 2, seed=7).rng().random()
        assert a == b


class TestChecker:
    def test_checker_reports_mismatches(self):
        class FakeSystem:
            def coherent_word(self, addr):
                return 0

        check = checker({0x40: 5}, "demo")
        errors = check(FakeSystem())
        assert len(errors) == 1 and "demo" in errors[0]


@pytest.mark.parametrize("policy", ["baseline", "sharers"])
class TestMicrobenchmarks:
    def run(self, workload, policy):
        system = build_system(SystemConfig.small(policy=PRESETS[policy]))
        return system.run_workload(workload, verify=True)

    def test_readers_writer(self, policy):
        result = self.run(ReadersWriterSweep(lines=4, rounds=3), policy)
        assert result.ok, result.check_errors[:3]

    def test_migratory(self, policy):
        result = self.run(MigratoryCounter(increments_per_thread=10), policy)
        assert result.ok

    def test_streaming(self, policy):
        # 150 lines/thread x 2 threads per 128-line L2: guaranteed evictions
        result = self.run(StreamingScan(lines_per_thread=150), policy)
        assert result.ok
        dirty = result.stats.get("l2.0.victims.dirty", 0)
        clean = result.stats.get("l2.0.victims.clean", 0)
        assert dirty > 0   # write pass evicts modified lines
        assert clean > 0   # read passes evict clean refills
