"""Tests for schedule exploration: determinism, perturbation, canonicality."""

from __future__ import annotations

import pytest

from repro import build_system
from repro.verify.litmus import (
    POLICY_VARIANTS,
    SCHEDULE_VARIANTS,
    Schedule,
    bounded_schedules,
    default_schedules,
    get_litmus,
    run_litmus,
    run_schedules,
    variant_of,
)
from repro.verify.litmus.harness import litmus_config
from repro.verify.litmus.schedule import (
    DEFAULT_JITTER_CYCLES,
    DEFAULT_SCHEDULE_BANDWIDTH,
    DEFAULT_SCHEDULE_QUEUE_DEPTH,
    DEFAULT_SCHEDULE_WATCHDOG_CYCLES,
)


class TestScheduleObjects:
    def test_canonical_detection(self):
        assert Schedule(0).is_canonical
        assert not Schedule(1, jitter_cycles=3).is_canonical
        assert not Schedule(1, tie_break=True).is_canonical
        assert not Schedule(
            1, link_bytes_per_cycle=8, input_queue_depth=4
        ).is_canonical
        assert not Schedule(1, watchdog_window_cycles=1000.0).is_canonical
        assert not Schedule(1, dir_entries=8).is_canonical

    def test_default_set_size_and_uniqueness(self):
        schedules = default_schedules(8)
        assert len(schedules) == 8
        assert len(set(schedules)) == 8
        assert schedules[0].is_canonical

    def test_default_set_mixes_all_knob_combinations(self):
        schedules = default_schedules(8)
        assert any(s.jitter_cycles and not s.tie_break for s in schedules)
        assert any(s.tie_break and not s.jitter_cycles for s in schedules)
        assert any(s.jitter_cycles and s.tie_break for s in schedules)
        assert any(s.link_bytes_per_cycle for s in schedules)
        assert any(s.input_queue_depth for s in schedules)
        assert any(s.watchdog_window_cycles for s in schedules)

    def test_bounded_set_arms_every_schedule(self):
        """``--bounded`` sweep: same count and same jitter/tie-break
        exploration as the default set, but every schedule runs on the
        bounded fabric with the watchdog armed."""
        schedules = bounded_schedules(8)
        assert len(schedules) == 8
        assert len(set(schedules)) == 8
        for schedule in schedules:
            assert schedule.link_bytes_per_cycle == DEFAULT_SCHEDULE_BANDWIDTH
            assert schedule.input_queue_depth == DEFAULT_SCHEDULE_QUEUE_DEPTH
            assert (
                schedule.watchdog_window_cycles
                == DEFAULT_SCHEDULE_WATCHDOG_CYCLES
            )
        # the perturbation shapes still vary underneath the bounding
        assert any(s.jitter_cycles for s in schedules)
        assert any(s.tie_break and not s.jitter_cycles for s in schedules)

    def test_contended_schedules_are_not_canonical(self):
        assert not Schedule(1, link_bytes_per_cycle=8).is_canonical
        assert "bw8" in Schedule(1, link_bytes_per_cycle=8).label()

    def test_bounded_schedule_label_tokens(self):
        bounded = Schedule(4, tie_break=True, link_bytes_per_cycle=8,
                           input_queue_depth=4,
                           watchdog_window_cycles=100_000.0)
        label = bounded.label()
        assert "q4" in label and "wd" in label and "bw8" in label
        assert "dir8" in Schedule(2, dir_entries=8).label()

    def test_json_round_trip(self):
        schedule = Schedule(5, jitter_cycles=3, tie_break=True)
        assert Schedule.from_json(schedule.to_json()) == schedule
        contended = Schedule(2, link_bytes_per_cycle=8)
        assert Schedule.from_json(contended.to_json()) == contended
        bounded = Schedule(4, link_bytes_per_cycle=8, input_queue_depth=4,
                           watchdog_window_cycles=50_000.0, dir_entries=16)
        assert Schedule.from_json(bounded.to_json()) == bounded

    def test_from_json_accepts_pre_bandwidth_schedules(self):
        # schedules saved before the bandwidth knob must load unchanged
        old = {"seed": 3, "jitter_cycles": 4, "tie_break": True}
        assert Schedule.from_json(old) == Schedule(3, 4, True)

    def test_from_json_accepts_pre_flow_control_schedules(self):
        # schedules saved before the flow-control / tiny-dir knobs
        old = {"seed": 3, "jitter_cycles": 4, "tie_break": True,
               "link_bytes_per_cycle": 8}
        assert Schedule.from_json(old) == Schedule(3, 4, True, 8)

    def test_apply_enables_link_bandwidth(self):
        """Fabric knobs reach the system through the built config."""
        system = build_system(litmus_config(
            POLICY_VARIANTS["baseline"], Schedule(1, link_bytes_per_cycle=8)
        ))
        assert system.network.link_bytes_per_cycle == 8

    def test_apply_enables_flow_control_and_watchdog(self):
        system = build_system(litmus_config(
            POLICY_VARIANTS["baseline"],
            Schedule(1, link_bytes_per_cycle=8, input_queue_depth=4,
                     watchdog_window_cycles=1000.0),
        ))
        assert system.network.input_queue_depth == 4
        assert system.sim.watchdog is not None
        assert system.sim.watchdog.window_cycles == 1000.0

    def test_queue_depth_without_bandwidth_rejected_at_build(self):
        """Bounded queues without the finite-bandwidth fabric are a
        contradictory config; the build refuses it instead of silently
        running the flat fabric."""
        config = litmus_config(POLICY_VARIANTS["baseline"],
                               Schedule(1, input_queue_depth=4))
        with pytest.raises(ValueError, match="bounded input queues need"):
            build_system(config)

    def test_labels_are_distinct(self):
        labels = [s.label() for s in default_schedules(8)]
        assert len(set(labels)) == 8


class TestScheduleVariants:
    """The named rotation table that replaced the ``seed % 4`` magic."""

    def test_every_variant_enumerated(self):
        """All five rotation shapes, by name, with their exact knobs."""
        by_name = {variant.name: variant for variant in SCHEDULE_VARIANTS}
        assert sorted(by_name) == ["jitter", "jitter+tie", "tie",
                                   "tie+bounded", "tie+contended"]
        assert by_name["jitter+tie"].jitter and by_name["jitter+tie"].tie_break
        assert not by_name["jitter+tie"].contended
        assert by_name["jitter"].jitter and not by_name["jitter"].tie_break
        assert by_name["tie"].tie_break and not by_name["tie"].jitter
        contended = by_name["tie+contended"]
        assert contended.tie_break and contended.contended
        assert not contended.jitter and not contended.bounded
        bounded = by_name["tie+bounded"]
        assert bounded.tie_break and bounded.contended and bounded.bounded
        assert not bounded.jitter

    def test_variant_schedules_cover_every_knob_shape(self):
        for variant in SCHEDULE_VARIANTS:
            schedule = variant.schedule(7)
            assert schedule.seed == 7
            assert bool(schedule.jitter_cycles) == variant.jitter
            assert schedule.tie_break == variant.tie_break
            assert bool(schedule.link_bytes_per_cycle) == variant.contended
            assert bool(schedule.input_queue_depth) == variant.bounded
            assert bool(schedule.watchdog_window_cycles) == variant.bounded
            if variant.jitter:
                assert schedule.jitter_cycles == DEFAULT_JITTER_CYCLES
            if variant.contended:
                assert (schedule.link_bytes_per_cycle
                        == DEFAULT_SCHEDULE_BANDWIDTH)
            if variant.bounded:
                assert (schedule.input_queue_depth
                        == DEFAULT_SCHEDULE_QUEUE_DEPTH)
                assert (schedule.watchdog_window_cycles
                        == DEFAULT_SCHEDULE_WATCHDOG_CYCLES)

    def test_rotation_order(self):
        """Seed 1 -> jitter-only, 2 -> tie-only, 3 -> contended,
        4 -> bounded, 5 -> jitter+tie (wrap).  ``litmus_key`` includes the
        source digest, so regrowing the rotation invalidates stored
        outcomes rather than colliding with them."""
        assert variant_of(1).name == "jitter"
        assert variant_of(2).name == "tie"
        assert variant_of(3).name == "tie+contended"
        assert variant_of(4).name == "tie+bounded"
        assert variant_of(5).name == "jitter+tie"
        expected = [
            Schedule(0),
            Schedule(1, jitter_cycles=4),
            Schedule(2, tie_break=True),
            Schedule(3, tie_break=True, link_bytes_per_cycle=8),
            Schedule(4, tie_break=True, link_bytes_per_cycle=8,
                     input_queue_depth=DEFAULT_SCHEDULE_QUEUE_DEPTH,
                     watchdog_window_cycles=DEFAULT_SCHEDULE_WATCHDOG_CYCLES),
            Schedule(5, jitter_cycles=4, tie_break=True),
            Schedule(6, jitter_cycles=4),
            Schedule(7, tie_break=True),
        ]
        assert default_schedules(8) == expected


class TestScheduleExecution:
    def test_same_schedule_is_deterministic(self):
        test = get_litmus("dirty_handoff")
        schedule = Schedule(3, jitter_cycles=4, tie_break=True)
        first = run_litmus(test, schedule=schedule)
        second = run_litmus(test, schedule=schedule)
        assert first.ok and second.ok
        assert first.ticks == second.ticks
        assert first.regs == second.regs

    def test_canonical_schedule_matches_plain_run(self):
        """Schedule(0) must be a no-op: bit-identical to an unperturbed
        run, so litmus results compose with the golden-stats world."""
        test = get_litmus("mp")
        plain = run_litmus(test)  # run_litmus defaults to Schedule(0)
        explicit = run_litmus(test, schedule=Schedule(0))
        assert plain.ticks == explicit.ticks

    def test_perturbed_schedules_reach_different_interleavings(self):
        test = get_litmus("dirty_handoff")
        ticks = {
            run_litmus(test, schedule=s).ticks for s in default_schedules(8)
        }
        # at least some of the 8 schedules change end-to-end timing
        assert len(ticks) > 1

    def test_bounded_schedule_runs_clean(self):
        """The bounded-fabric rotation slot (credit back-pressure + armed
        watchdog) completes without a single watchdog trip."""
        test = get_litmus("dirty_handoff")
        schedule = variant_of(4).schedule(4)
        assert schedule.input_queue_depth and schedule.watchdog_window_cycles
        outcome = run_litmus(test, schedule=schedule)
        assert outcome.ok

    def test_tiny_directory_schedule_runs_clean(self):
        """dir_entries shrinks the directory at build time, forcing
        directory-cache replacement (B-state transients) mid-test."""
        test = get_litmus("dirty_handoff")
        outcome = run_litmus(
            test, schedule=Schedule(2, tie_break=True, dir_entries=8)
        )
        assert outcome.ok

    def test_run_schedules_sweeps_all(self):
        outcomes = run_schedules(get_litmus("coww"), "baseline",
                                 default_schedules(4))
        assert len(outcomes) == 4
        assert all(outcome.ok for outcome in outcomes)
        assert outcomes[0].schedule.is_canonical
