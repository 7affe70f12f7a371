"""Tests for schedule exploration: determinism, perturbation, canonicality."""

from __future__ import annotations

import json

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
    BOUNDED_SCHEDULE_KNOBS,
    DEFAULT_JITTER_CYCLES,
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
        knobs = {name for s in schedules for name, _ in s.knobs}
        assert {"link_bytes_per_cycle", "input_queue_depth",
                "watchdog_window_cycles"} <= knobs

    def test_bounded_set_arms_every_schedule(self):
        """``--bounded`` sweep: same count and same jitter/tie-break
        exploration as the default set, but every schedule runs on the
        bounded fabric with the watchdog armed."""
        schedules = bounded_schedules(8)
        assert len(schedules) == 8
        assert len(set(schedules)) == 8
        for schedule in schedules:
            assert dict(schedule.knobs) == BOUNDED_SCHEDULE_KNOBS
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
        assert Schedule.from_json(old) == Schedule(
            3, 4, True, link_bytes_per_cycle=8
        )

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

    def test_any_config_knob_builds_without_code(self):
        """A knob the label table does not name still reaches the system
        by field name, and labels as ``name=value`` in sorted order."""
        schedule = Schedule(1, tie_break=True, link_bytes_per_cycle=8,
                            mem_banks=2, mem_row_bytes=1024)
        assert schedule.label() == "s1:tie+bw8+mem_banks=2+mem_row_bytes=1024"
        system = build_system(
            litmus_config(POLICY_VARIANTS["baseline"], schedule)
        )
        assert system.memory.num_banks == 2
        assert system.memory.row_bytes == 1024
        assert Schedule.from_json(schedule.to_json()) == schedule

    def test_policy_knob_lands_on_the_policy(self):
        config = litmus_config(POLICY_VARIANTS["baseline"],
                               Schedule(1, dir_entries=8, dir_banks=2))
        assert config.policy.dir_entries == 8
        assert config.policy.dir_banks == 2

    def test_unknown_knob_rejected_by_name(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            litmus_config(POLICY_VARIANTS["baseline"],
                          Schedule(1, no_such_knob=3))

    def test_labels_are_distinct(self):
        labels = [s.label() for s in default_schedules(8)]
        assert len(set(labels)) == 8


class TestScheduleVariants:
    """The named rotation table that replaced the ``seed % 4`` magic."""

    def test_every_variant_enumerated(self):
        """All five rotation shapes, by name, with their exact knobs."""
        shapes = {
            variant.name: (variant.jitter, variant.tie_break,
                           dict(variant.knobs))
            for variant in SCHEDULE_VARIANTS
        }
        assert shapes == {
            "jitter+tie": (True, True, {}),
            "jitter": (True, False, {}),
            "tie": (False, True, {}),
            "tie+contended": (False, True, {"link_bytes_per_cycle": 8}),
            "tie+bounded": (False, True, BOUNDED_SCHEDULE_KNOBS),
        }

    def test_variant_schedules_cover_every_knob_shape(self):
        for variant in SCHEDULE_VARIANTS:
            schedule = variant.schedule(7)
            assert schedule.seed == 7
            assert bool(schedule.jitter_cycles) == variant.jitter
            assert schedule.tie_break == variant.tie_break
            assert dict(schedule.knobs) == variant.knobs
            if variant.jitter:
                assert schedule.jitter_cycles == DEFAULT_JITTER_CYCLES

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
                     input_queue_depth=4, watchdog_window_cycles=100_000.0),
            Schedule(5, jitter_cycles=4, tie_break=True),
            Schedule(6, jitter_cycles=4),
            Schedule(7, tie_break=True),
        ]
        assert default_schedules(8) == expected


#: every schedule record's keys, in the order ``to_json`` writes them
SCHEDULE_JSON_KEYS = [
    "seed", "jitter_cycles", "tie_break", "link_bytes_per_cycle",
    "input_queue_depth", "watchdog_window_cycles", "dir_entries",
]

#: (label, JSON values in key order) of ``default_schedules(8)``
DEFAULT_SET = [
    ("s0:canonical", "[0, 0, false, 0, 0, 0.0, 0]"),
    ("s1:jitter4", "[1, 4, false, 0, 0, 0.0, 0]"),
    ("s2:tie", "[2, 0, true, 0, 0, 0.0, 0]"),
    ("s3:tie+bw8", "[3, 0, true, 8, 0, 0.0, 0]"),
    ("s4:tie+bw8+q4+wd", "[4, 0, true, 8, 4, 100000.0, 0]"),
    ("s5:jitter4+tie", "[5, 4, true, 0, 0, 0.0, 0]"),
    ("s6:jitter4", "[6, 4, false, 0, 0, 0.0, 0]"),
    ("s7:tie", "[7, 0, true, 0, 0, 0.0, 0]"),
]

#: the same for ``bounded_schedules(8)``
BOUNDED_SET = [
    ("s0:jitter4+tie+bw8+q4+wd", "[0, 4, true, 8, 4, 100000.0, 0]"),
    ("s1:jitter4+bw8+q4+wd", "[1, 4, false, 8, 4, 100000.0, 0]"),
    ("s2:tie+bw8+q4+wd", "[2, 0, true, 8, 4, 100000.0, 0]"),
    ("s3:tie+bw8+q4+wd", "[3, 0, true, 8, 4, 100000.0, 0]"),
    ("s4:tie+bw8+q4+wd", "[4, 0, true, 8, 4, 100000.0, 0]"),
    ("s5:jitter4+tie+bw8+q4+wd", "[5, 4, true, 8, 4, 100000.0, 0]"),
    ("s6:jitter4+bw8+q4+wd", "[6, 4, false, 8, 4, 100000.0, 0]"),
    ("s7:tie+bw8+q4+wd", "[7, 0, true, 8, 4, 100000.0, 0]"),
]

#: the same for seed 7 on every ``SCHEDULE_VARIANTS`` shape, in order
VARIANT_SET = [
    ("s7:jitter4+tie", "[7, 4, true, 0, 0, 0.0, 0]"),
    ("s7:jitter4", "[7, 4, false, 0, 0, 0.0, 0]"),
    ("s7:tie", "[7, 0, true, 0, 0, 0.0, 0]"),
    ("s7:tie+bw8", "[7, 0, true, 8, 0, 0.0, 0]"),
    ("s7:tie+bw8+q4+wd", "[7, 0, true, 8, 4, 100000.0, 0]"),
]


class TestScheduleRecordPin:
    """Labels and JSON records of the standard schedule sets, byte for
    byte: stored litmus outcomes, fuzz corpora and minimizer artifacts
    key on them, so no refactor of :class:`Schedule` may move one."""

    @staticmethod
    def records(schedules):
        out = []
        for schedule in schedules:
            data = schedule.to_json()
            assert list(data) == SCHEDULE_JSON_KEYS
            out.append((schedule.label(), json.dumps(list(data.values()))))
        return out

    def test_default_set(self):
        assert self.records(default_schedules(8)) == DEFAULT_SET

    def test_bounded_set(self):
        assert self.records(bounded_schedules(8)) == BOUNDED_SET

    def test_every_variant_shape(self):
        shapes = [variant.schedule(7) for variant in SCHEDULE_VARIANTS]
        assert self.records(shapes) == VARIANT_SET


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
        knobs = dict(schedule.knobs)
        assert knobs["input_queue_depth"] and knobs["watchdog_window_cycles"]
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
