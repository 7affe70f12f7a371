"""Generator determinism and the DSL round-trip property (satellite 2)."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.verify.fuzz.generate import (
    CPU_KINDS,
    DEFAULT_PROFILE,
    GPU_KINDS,
    MAX_DMA,
    MAX_LOCS,
    MAX_THREADS,
    MAX_WAVES,
    FuzzProfile,
    generate_case,
    profile_for_targets,
)
from repro.verify.litmus import LitmusTest, Schedule, run_litmus
from repro.verify.litmus.dsl import CompiledLitmus


class TestDeterminism:
    def test_same_seed_iteration_is_byte_identical(self):
        for iteration in (0, 7, 123):
            first_test, first_schedule = generate_case(3, iteration)
            second_test, second_schedule = generate_case(3, iteration)
            assert first_test.to_json() == second_test.to_json()
            assert first_schedule == second_schedule
            # canonical JSON, not just dict equality
            assert (json.dumps(first_test.to_json(), sort_keys=True)
                    == json.dumps(second_test.to_json(), sort_keys=True))

    def test_different_iterations_differ(self):
        programs = {
            json.dumps(generate_case(0, i)[0].to_json(), sort_keys=True)
            for i in range(20)
        }
        assert len(programs) > 15  # collisions would shrink the search

    def test_names_encode_the_slot(self):
        test, _ = generate_case(5, 17)
        assert test.name == "fuzz_5_17"


class TestShape:
    def test_bounds_hold_over_many_cases(self):
        for iteration in range(50):
            test, schedule = generate_case(1, iteration)
            test.validate()
            assert 2 <= len(test.layout) <= MAX_LOCS
            assert 1 <= len(test.threads) <= MAX_THREADS
            assert len(test.gpu_waves) <= MAX_WAVES
            assert len(test.dma) <= MAX_DMA
            assert test.postcondition is None
            assert isinstance(schedule, Schedule)

    def test_never_emits_spins(self):
        """A generated spin without its writer would drown the campaign
        in spin_timeout noise; the generator must not produce any."""
        for iteration in range(80):
            test, _ = generate_case(2, iteration)
            for _agent, script in test.agents():
                assert not any(op[0] in ("spin", "spin_ge") for op in script)

    def test_dma_stays_inside_the_layout(self):
        """A transfer past the last layout line would trample the
        workload's code region."""
        for iteration in range(80):
            test, _ = generate_case(4, iteration)
            num_lines = 1 + max(line for line, _ in test.layout.values())
            for spec in test.dma:
                start = test.layout[spec.loc][0]
                assert start + spec.lines <= num_lines


class TestProfiles:
    def test_default_profile_emits_flush_and_tiny_dir(self):
        """The default stream must carry the eviction-pressure shapes:
        flush ops on both agent kinds and occasional tiny-dir schedules."""
        cpu_flush = gpu_flush = tiny = 0
        for iteration in range(60):
            test, schedule = generate_case(0, iteration)
            cpu_flush += sum(
                op[0] == "flush" for script in test.threads for op in script
            )
            gpu_flush += sum(
                op[0] == "flush" for wave in test.gpu_waves for op in wave
            )
            tiny += "dir_entries" in dict(schedule.knobs)
        assert cpu_flush > 0 and gpu_flush > 0
        assert tiny > 0

    def test_profile_changes_the_stream_but_not_determinism(self):
        directed = profile_for_targets([("dir-table1", "S", "DirEvict")])
        for iteration in (0, 9, 31):
            a_test, a_sched = generate_case(2, iteration, directed)
            b_test, b_sched = generate_case(2, iteration, directed)
            assert a_test.to_json() == b_test.to_json()
            assert a_sched == b_sched

    def test_profile_for_targets_biases_the_right_knobs(self):
        flush_cpu = CPU_KINDS.index("flush")
        flush_gpu = GPU_KINDS.index("flush")
        rel_gpu = GPU_KINDS.index("rel")
        evict = profile_for_targets([("corepair-moesi", "M", "Evict")])
        assert (evict.cpu_weights[flush_cpu]
                > DEFAULT_PROFILE.cpu_weights[flush_cpu])
        tiny = profile_for_targets([("dir-fig2/stateless", "B_U", "Atomic")])
        assert tiny.tiny_dir_chance > DEFAULT_PROFILE.tiny_dir_chance
        tcc = profile_for_targets([("tcc-vi", "V", "Evict")])
        assert (tcc.gpu_weights[flush_gpu]
                > DEFAULT_PROFILE.gpu_weights[flush_gpu])
        fence = profile_for_targets([("dir-fig2/stateless", "P", "Flush")])
        assert (fence.gpu_weights[rel_gpu]
                > DEFAULT_PROFILE.gpu_weights[rel_gpu])
        assert profile_for_targets([]) is DEFAULT_PROFILE

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FuzzProfile(cpu_weights=(1, 2))
        with pytest.raises(ValueError):
            FuzzProfile(tiny_dir_chance=1.5)


class TestCoverageRegression:
    def test_flush_generation_reaches_eviction_rows(self):
        """Rows no pre-flush campaign could hit (no generated op evicted
        anything, so ``Evict``/``Vic*`` never fired) are now reached
        within the first few slots of the seed-0 stream."""
        targets = {
            ("corepair-moesi", "M", "Evict"),
            ("dir-fig2/stateless", "U", "VicClean"),
            ("dir-fig2/stateless", "U", "VicDirty"),
        }
        covered: set = set()
        for iteration in range(6):
            test, schedule = generate_case(0, iteration)
            outcome = run_litmus(test, policy_name="baseline",
                                 schedule=schedule, coverage=True)
            if outcome.ok:
                covered |= set(outcome.coverage or ())
        assert targets <= covered, sorted(targets - covered)


class TestDirectedMode:
    def test_directed_hits_a_named_row_faster_than_undirected(self):
        """Satellite: at an equal 24-slot budget, the directed profile
        reaches a previously-unhit row the undirected stream misses.
        (Measured: directed first hit at slot 11, undirected at 37.)"""
        target = ("dir-table1", "S", "DirEvict")
        directed = profile_for_targets([target])

        def first_hit(profile):
            for iteration in range(24):
                test, schedule = generate_case(1, iteration, profile)
                outcome = run_litmus(test, policy_name="sharers",
                                     schedule=schedule, coverage=True)
                if outcome.ok and target in set(outcome.coverage or ()):
                    return iteration
            return None

        directed_hit = first_hit(directed)
        undirected_hit = first_hit(DEFAULT_PROFILE)
        assert directed_hit is not None
        assert undirected_hit is None or directed_hit < undirected_hit


@st.composite
def campaign_slots(draw):
    return (draw(st.integers(min_value=0, max_value=50)),
            draw(st.integers(min_value=0, max_value=200)))


class TestRoundTripProperty:
    @given(campaign_slots())
    @settings(max_examples=30, deadline=None)
    def test_generated_programs_round_trip_and_compile(self, slot):
        """Satellite 2: any generated DSL program round-trips through JSON
        and compiles to a runnable CompiledLitmus."""
        seed, iteration = slot
        test, _schedule = generate_case(seed, iteration)
        data = json.loads(json.dumps(test.to_json()))
        rebuilt = LitmusTest.from_json(data)
        assert rebuilt.to_json() == test.to_json()
        compiled = CompiledLitmus(rebuilt)
        assert compiled.name == f"litmus_{test.name}"

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=8, deadline=None)
    def test_no_oracle_divergence_on_canonical_schedule(self, iteration):
        """Satellite 2 (dynamic half): generated programs run clean on the
        canonical schedule — no invariant violation, no oracle error
        (random finals are racy, but every read must still see a written
        value)."""
        test, _ = generate_case(0, iteration)
        outcome = run_litmus(test, policy_name="baseline",
                             schedule=Schedule(0))
        assert outcome.ok, outcome.describe()
