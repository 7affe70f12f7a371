"""Litmus outcomes memoized in the results store through the job
resolver: a warm (test, policy, schedule) triple is a lookup, not a
simulation, and round-trips the outcome exactly."""

from __future__ import annotations

import pytest

from repro.store import KIND_LITMUS, ResultStore, resolve_litmus
from repro.verify.litmus import (
    POLICY_VARIANTS,
    Schedule,
    get_litmus,
    litmus_key,
    outcome_from_dict,
    outcome_to_dict,
    run_litmus,
    run_schedules,
)
from repro.verify.litmus.harness import LITMUS_MAX_EVENTS


@pytest.fixture
def store(tmp_path) -> ResultStore:
    with ResultStore(tmp_path / "litmus.sqlite") as store:
        yield store


def _forbid_live_runs(monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("warm litmus run simulated")

    monkeypatch.setattr("repro.verify.litmus.harness.run_litmus", boom)


class TestOutcomeRoundTrip:
    def test_exact_round_trip(self):
        outcome = run_litmus(get_litmus("mp"), schedule=Schedule(3, 2, True))
        assert outcome_from_dict(outcome_to_dict(outcome)) == outcome


class TestMemoization:
    def test_warm_triple_is_a_lookup(self, store, monkeypatch):
        runs = [(get_litmus("mp"), "baseline", Schedule(0))]
        cold = resolve_litmus(runs, store=store, jobs=1)
        assert store.puts == 1 and store.stats()["by_kind"] == {"litmus": 1}

        _forbid_live_runs(monkeypatch)
        warm = resolve_litmus(runs, store=store, jobs=1)
        assert warm == cold
        assert store.hits == 1

    def test_key_separates_schedules_and_policies(self):
        test = get_litmus("sb")
        baseline = POLICY_VARIANTS["baseline"]
        key = litmus_key(test, baseline, Schedule(0), LITMUS_MAX_EVENTS)
        for schedule in (Schedule(1), Schedule(0, 2), Schedule(0, 0, True)):
            assert litmus_key(test, baseline, schedule,
                              LITMUS_MAX_EVENTS) != key
        other_policy = POLICY_VARIANTS["sharers"]
        assert litmus_key(test, other_policy, Schedule(0),
                          LITMUS_MAX_EVENTS) != key
        assert litmus_key(get_litmus("mp"), baseline, Schedule(0),
                          LITMUS_MAX_EVENTS) != key

    def test_run_schedules_threads_the_store(self, store, monkeypatch):
        test = get_litmus("mp")
        schedules = [Schedule(0), Schedule(1, 2)]
        cold = run_schedules(test, schedules=schedules, store=store)
        assert store.puts == 2

        _forbid_live_runs(monkeypatch)
        warm = run_schedules(test, schedules=schedules, store=store)
        assert warm == cold

    def test_traced_runs_bypass_the_store(self, store):
        """Tracing lives only on the per-run primitive, which takes no
        store, so a stored outcome never carries a trace."""
        test = get_litmus("mp")
        assert run_litmus(test, trace=True).trace_text is not None
        with pytest.raises(TypeError):
            run_litmus(test, store=store)
        [stored] = run_schedules(test, schedules=[Schedule(0)], store=store)
        assert stored.trace_text is None and len(store) == 1

    def test_fault_injected_runs_bypass_the_store(self, store):
        test = get_litmus("mp")
        run_schedules(test, schedules=[Schedule(0)], store=store,
                      mutate_system=lambda system: None)
        assert len(store) == 0

    def test_corrupt_row_falls_through_to_live_run(self, store):
        test = get_litmus("mp")
        [cold] = run_schedules(test, schedules=[Schedule(0)], store=store)
        # clobber the stored payload with a wrong shape
        key = litmus_key(test, POLICY_VARIANTS["baseline"], Schedule(0),
                         LITMUS_MAX_EVENTS)
        store.put_row(key, KIND_LITMUS, workload=test.name, config={},
                      result={"not": "an outcome"})
        [rerun] = run_schedules(test, schedules=[Schedule(0)], store=store)
        assert rerun == cold
        assert store.evicted == 1
