"""Tests for the bundled litmus registry: shape and canonical-run health."""

from __future__ import annotations

import pytest

from repro.verify.litmus import (
    REGISTRY,
    all_litmus_tests,
    get_litmus,
    run_litmus,
)
from repro.verify.litmus.registry import L2_CONFLICT_STRIDE


class TestRegistryShape:
    def test_at_least_fifteen_tests(self):
        assert len(REGISTRY) >= 15

    def test_all_tests_validate(self):
        for test in REGISTRY.values():
            test.validate()

    def test_covers_heterogeneous_agents(self):
        has_gpu = [t for t in REGISTRY.values() if t.gpu_waves]
        has_dma = [t for t in REGISTRY.values() if t.dma]
        has_cross_pair = [
            t for t in REGISTRY.values() if len(t.threads) >= 3
        ]
        assert len(has_gpu) >= 4
        assert len(has_dma) >= 2
        assert len(has_cross_pair) >= 4

    def test_classic_shapes_present(self):
        for name in ("mp", "sb", "corr", "coww", "iriw", "dirty_handoff",
                     "vicdirty_race", "atomic_chain"):
            assert name in REGISTRY, name

    def test_every_test_has_postcondition(self):
        for name, test in REGISTRY.items():
            assert test.postcondition is not None, name

    def test_eviction_races_use_conflict_stride(self):
        test = get_litmus("vicdirty_race")
        lines = sorted(line for line, _word in test.layout.values())
        assert lines[1] - lines[0] == L2_CONFLICT_STRIDE

    def test_back_pressure_shapes_present(self):
        for name in ("bp_store_store", "bp_victim_vs_full_port",
                     "bp_dma_burst"):
            assert name in REGISTRY, name

    def test_get_litmus_unknown_name(self):
        with pytest.raises(KeyError, match="unknown litmus"):
            get_litmus("nope")

    def test_all_litmus_tests_returns_copy(self):
        tests = all_litmus_tests()
        tests.clear()
        assert len(REGISTRY) >= 15


class TestCanonicalRuns:
    """Every bundled litmus passes under the canonical schedule on the
    baseline policy — the cheap always-on slice of what `repro litmus --all`
    sweeps in CI."""

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_passes_canonically(self, name):
        outcome = run_litmus(get_litmus(name))
        assert outcome.ok, outcome.describe()

    def test_registers_observed(self):
        outcome = run_litmus(get_litmus("mp"))
        assert outcome.regs["t2:r1"] == 1
        assert outcome.final_memory == {"x": 1, "flag": 1}


class TestBackPressureShapes:
    """The bp_* shapes exist to stress the bounded-queue fabric: under a
    tight credit pool they must actually stall on credits (otherwise the
    shape degenerated into ordinary traffic), and under the rotation's
    bounded slot they must still pass with zero watchdog trips."""

    def _bounded_run(self, name, schedule):
        captured = {}
        assert dict(schedule.knobs)["input_queue_depth"]
        outcome = run_litmus(
            get_litmus(name), schedule=schedule,
            mutate_system=lambda system: captured.update(system=system),
        )
        return outcome, captured["system"]

    def _tight(self, depth):
        from repro.verify.litmus import Schedule

        # depth 2 is tighter than the rotation default: CPU cores have a
        # single outstanding miss each, so exhausting a 4-deep pool needs
        # a DMA burst, but 2 credits vanish under any two-sender overlap
        return Schedule(4, tie_break=True, link_bytes_per_cycle=8,
                        input_queue_depth=depth,
                        watchdog_window_cycles=100_000.0)

    @pytest.mark.parametrize(
        "name,depth",
        [("bp_store_store", 2), ("bp_victim_vs_full_port", 2),
         ("bp_dma_burst", 4)],
    )
    def test_shapes_stall_on_credits(self, name, depth):
        outcome, system = self._bounded_run(name, self._tight(depth))
        assert outcome.ok, outcome.describe()
        stats = system.all_stats()
        blocks = sum(
            value for key, value in stats.items()
            if key.endswith(".credit_blocks")
        )
        assert blocks > 0, f"{name}: no credit stall at queue depth {depth}"
        assert stats.get("watchdog.trips", 0) == 0

    @pytest.mark.parametrize(
        "name", ["bp_store_store", "bp_victim_vs_full_port", "bp_dma_burst"]
    )
    def test_shapes_pass_the_bounded_rotation_slot(self, name):
        from repro.verify.litmus.schedule import variant_of

        outcome, system = self._bounded_run(name, variant_of(4).schedule(4))
        assert outcome.ok, outcome.describe()
        assert system.all_stats().get("watchdog.trips", 0) == 0
