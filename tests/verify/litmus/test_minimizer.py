"""Tests for the failing-trace minimizer and its replayable artifacts.

The protocol fault is injected through the CorePair's per-instance
``moesi_table`` overlay point: a copy of the MOESI table whose
``(M/O, PrbInv)`` row acks the invalidation (with data) but *keeps the
cached copy*, manufacturing two simultaneous write-permission holders —
exactly the bug class the coherence invariant monitor exists to catch.
"""

from __future__ import annotations

import pytest

from repro.cpu.corepair import _COREPAIR_TABLE, EV_PRB_INV
from repro.protocol.types import MoesiState
from repro.verify.litmus import (
    Schedule,
    dump_artifact,
    get_litmus,
    load_artifact,
    minimize_failure,
    replay_artifact,
    run_litmus,
)
from repro.verify.litmus.dsl import DmaSpec, LitmusTest
from repro.verify.litmus.minimize import (
    _Budget,
    _ddmin,
    _has_agents,
    shrink_agents,
)

M, O = MoesiState.M, MoesiState.O


def _broken_inv(corepair, ctx):
    msg, cached = ctx
    dirty = cached.state in (M, O)
    corepair._ack(msg, data=cached.data if dirty else None, dirty=dirty,
                  had_copy=True)
    return cached.state  # the bug: the copy survives its own invalidation


_BROKEN_TABLE = _COREPAIR_TABLE.copy("corepair-moesi-broken")
_BROKEN_TABLE.replace((M, O), EV_PRB_INV, (M, O), action=_broken_inv)


def _inject(system) -> None:
    system.corepairs[0].moesi_table = _BROKEN_TABLE


class TestFaultInjection:
    def test_broken_table_trips_invariant_monitor(self):
        outcome = run_litmus(get_litmus("dirty_handoff"),
                             mutate_system=_inject)
        assert outcome.failure_kind == "invariant"
        assert "coexists" in outcome.messages[0]

    def test_without_fault_same_triple_passes(self):
        outcome = run_litmus(get_litmus("dirty_handoff"))
        assert outcome.ok


class TestMinimizer:
    def test_passing_run_returns_none(self):
        assert minimize_failure(get_litmus("mp"), "baseline",
                                Schedule(0)) is None

    def test_shrinks_seeded_fault_to_small_reproducer(self):
        """ISSUE acceptance: the injected-fault reproducer shrinks to <= 10
        ops and still fails with the original kind."""
        result = minimize_failure(
            get_litmus("dirty_handoff"),
            "baseline",
            Schedule(3, jitter_cycles=4, tie_break=True),
            mutate_system=_inject,
        )
        assert result is not None
        assert result.failure_kind == "invariant"
        assert result.minimized_ops <= 10
        assert result.minimized_ops < result.original_ops
        # the shrunk test still reproduces stand-alone
        outcome = run_litmus(
            result.minimized,
            policy_name=result.policy_name,
            schedule=result.schedule,
            mutate_system=_inject,
        )
        assert outcome.failure_kind == "invariant"

    def test_schedule_simplifies_when_failure_is_schedule_free(self):
        result = minimize_failure(
            get_litmus("dirty_handoff"),
            "baseline",
            Schedule(3, jitter_cycles=4, tie_break=True),
            mutate_system=_inject,
        )
        assert result is not None
        assert result.schedule.is_canonical

    def test_degenerate_shrink_keeps_empty_program(self):
        """A failure needing no ops at all (postcondition contradicts the
        initial state) must shrink to zero ops, not resurrect the
        original program."""
        test = get_litmus("coww")
        broken = test.with_agents(
            [[("store", "x", 1), ("load", "x", "r")]], [], []
        )
        result = minimize_failure(broken, "baseline", Schedule(0))
        assert result is not None
        assert result.failure_kind == "postcondition"
        assert result.minimized_ops == 0
        # still a valid, runnable litmus (placeholder thread keeps it legal)
        result.minimized.validate()
        outcome = run_litmus(result.minimized, policy_name="baseline",
                             schedule=result.schedule)
        assert outcome.failure_kind == "postcondition"

    def test_preserves_failure_kind_not_just_any_failure(self):
        """Shrinking away the flag writer turns MP into a spin timeout —
        a *different* kind, so ddmin must keep the writer."""
        result = minimize_failure(
            get_litmus("dirty_handoff"),
            "baseline",
            Schedule(0),
            mutate_system=_inject,
        )
        assert result is not None
        flat = [op for script in result.minimized.threads for op in script]
        assert ("store", "x", 1) in flat  # the M-holder the probe hits


class TestArtifacts:
    @pytest.fixture()
    def result(self):
        result = minimize_failure(
            get_litmus("dirty_handoff"), "baseline", Schedule(0),
            mutate_system=_inject,
        )
        assert result is not None
        return result

    def test_artifact_round_trip(self, result, tmp_path):
        path = str(tmp_path / "repro.json")
        data = dump_artifact(result, path)
        assert data["failure"]["kind"] == "invariant"
        assert data["minimized_ops"] <= data["original_ops"]
        assert load_artifact(path)["litmus"]["name"] == "dirty_handoff"

    def test_artifact_replays_with_fault(self, result, tmp_path):
        path = str(tmp_path / "repro.json")
        dump_artifact(result, path)
        outcome = replay_artifact(path, mutate_system=_inject)
        assert outcome.failure_kind == "invariant"

    def test_artifact_replays_clean_without_fault(self, result, tmp_path):
        path = str(tmp_path / "repro.json")
        dump_artifact(result, path)
        outcome = replay_artifact(path)
        assert outcome.ok

    def test_artifact_carries_protocol_trace(self, result, tmp_path):
        path = str(tmp_path / "repro.json")
        data = dump_artifact(result, path)
        assert data["trace"] and "PrbInv" in data["trace"]

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a litmus"):
            load_artifact(str(path))


class TestFuzzerFindsSeededFault:
    """Satellite: the coverage-guided fuzzer, pointed at the same broken
    MOESI table, must find the invariant violation within a fixed
    seed/budget and hand back a ddmin-shrunk artifact."""

    def test_campaign_finds_and_minimizes_the_broken_row(self, tmp_path):
        from repro.verify.fuzz import run_campaign
        from repro.verify.litmus import load_artifact, replay_artifact

        result = run_campaign(
            seed=0, budget=40, corpus_dir=str(tmp_path / "fault"),
            policies=["baseline"], mutate_system=_inject,
        )
        assert len(result.failures) == 1
        artifact = load_artifact(result.failures[0])
        assert artifact["failure"]["kind"] == "invariant"
        # ISSUE acceptance: minimized to <= 3 ops within the smoke budget
        assert artifact["minimized_ops"] <= 3
        outcome = replay_artifact(result.failures[0], mutate_system=_inject)
        assert outcome.failure_kind == "invariant"

    def test_fault_campaign_leaves_no_corpus_droppings(self, tmp_path):
        from repro.verify.fuzz import Corpus, run_campaign
        from repro.verify.fuzz.campaign import COVERAGE_FILE

        corpus_dir = str(tmp_path / "fault")
        run_campaign(
            seed=0, budget=10, corpus_dir=corpus_dir,
            policies=["baseline"], mutate_system=_inject,
        )
        assert len(Corpus(corpus_dir)) == 0
        import os

        assert not os.path.exists(os.path.join(corpus_dir, COVERAGE_FILE))


class TestDdmin:
    """The shrinking kernel in isolation, with a cheap predicate."""

    def test_finds_single_failing_op(self):
        items = list(range(20))
        shrunk = _ddmin(items, lambda xs: 13 in xs, _Budget(500))
        assert shrunk == [13]

    def test_finds_failing_pair(self):
        items = list(range(16))
        shrunk = _ddmin(items, lambda xs: 3 in xs and 12 in xs, _Budget(500))
        assert sorted(shrunk) == [3, 12]

    def test_empty_when_anything_fails(self):
        assert _ddmin([1, 2, 3], lambda xs: True, _Budget(100)) == []

    def test_budget_exhaustion_returns_current_best(self):
        shrunk = _ddmin(list(range(32)), lambda xs: 7 in xs, _Budget(3))
        assert 7 in shrunk


class TestShrinkAgents:
    """The shared shrink driver with a pure predicate (no simulation)."""

    @staticmethod
    def _gpu_only() -> LitmusTest:
        ops = [("store", "x", 1), ("load", "x", "r"), ("store", "y", 2),
               ("load", "y", "s")]
        return LitmusTest("gpu_only", "", {"x": (0, 0), "y": (1, 0)},
                          gpu_waves=[ops])

    @staticmethod
    def _dma_only() -> LitmusTest:
        return LitmusTest("dma_only", "", {"x": (0, 0)},
                          dma=[DmaSpec("write", "x", value=1),
                               DmaSpec("read", "x")])

    @staticmethod
    def _recording(predicate):
        seen = []

        def keeps(candidate):
            seen.append(candidate)
            return predicate(candidate)

        return keeps, seen

    @pytest.mark.parametrize("make", ["_gpu_only", "_dma_only"])
    def test_keeps_never_sees_an_agentless_candidate(self, make):
        keeps, seen = self._recording(lambda candidate: True)
        budget = _Budget(500)
        shrunk = shrink_agents(getattr(self, make)(), keeps, budget)
        assert seen
        assert all(_has_agents(candidate) for candidate in seen)
        assert _has_agents(shrunk)
        assert budget.used == len(seen)

    def test_gpu_wave_shrinks_to_the_needed_op(self):
        keeps, seen = self._recording(
            lambda candidate: ("store", "y", 2) in candidate.gpu_waves[0]
        )
        budget = _Budget(500)
        shrunk = shrink_agents(self._gpu_only(), keeps, budget)
        assert shrunk.gpu_waves == [[("store", "y", 2)]]
        assert budget.used == len(seen)

    def test_dma_only_keeps_one_transfer(self):
        keeps, seen = self._recording(lambda candidate: True)
        budget = _Budget(500)
        shrunk = shrink_agents(self._dma_only(), keeps, budget)
        assert shrunk.dma == [DmaSpec("read", "x")]
        assert budget.used == len(seen) == 1

    @pytest.mark.parametrize("make", ["_gpu_only", "_dma_only"])
    def test_exhausted_budget_returns_shape_unchanged(self, make):
        test = getattr(self, make)()
        keeps, seen = self._recording(lambda candidate: True)
        budget = _Budget(0)
        shrunk = shrink_agents(test, keeps, budget)
        assert shrunk.to_json() == test.to_json()
        assert seen == [] and budget.used == 0
