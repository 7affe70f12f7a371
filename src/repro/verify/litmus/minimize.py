"""Failing-trace minimization: shrink a violating (litmus, policy, schedule)
triple to a minimal reproducer and dump it as a replayable artifact.

The shrinker is classic delta debugging (ddmin) applied at three levels, in
order of payoff:

1. **agents** — drop whole CPU threads, GPU waves, or DMA transfers;
2. **ops** — ddmin each surviving agent's op list;
3. **schedule** — drop the jitter / tie-break knobs if the failure
   reproduces on a simpler (ideally canonical) schedule.

Levels 1-2 live in :func:`shrink_agents`, the one driver shared with the
fuzz corpus minimizer (:func:`repro.verify.fuzz.corpus.minimize_entry`);
only the acceptance predicate differs.  Here every candidate is re-run
with :func:`~repro.verify.litmus.harness.run_litmus` and accepted only if
it fails with the *same failure kind* as the original — a shrink may not
wander from an invariant violation to, say, the spin timeout it caused by
deleting a flag store.  Bounded spins
(:data:`~repro.verify.litmus.dsl.MAX_SPIN_ROUNDS`) keep even degenerate
candidates fast, so a full minimization is hundreds of short runs, not
hours.

The artifact is plain JSON — the shrunk litmus (ops are tuples of
primitives by construction), the exact policy knobs, the schedule seed, the
failure classification, and a :class:`ProtocolTrace` tail — and
:func:`replay_artifact` turns it back into a live run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.system.serialize import policy_from_dict, policy_to_dict
from repro.verify.litmus.dsl import DmaSpec, LitmusTest
from repro.verify.litmus.harness import (
    LITMUS_MAX_EVENTS,
    POLICY_VARIANTS,
    LitmusOutcome,
    run_litmus,
)
from repro.verify.litmus.schedule import Schedule

ARTIFACT_FORMAT = "repro-litmus-repro/1"


@dataclass
class MinimizationResult:
    """A shrunk reproducer plus the bookkeeping of how it was found."""

    original: LitmusTest
    minimized: LitmusTest
    policy_name: str
    schedule: Schedule
    failure_kind: str
    messages: list[str]
    runs: int  #: candidate executions spent shrinking
    trace_text: str | None = None

    @property
    def original_ops(self) -> int:
        return self.original.total_ops()

    @property
    def minimized_ops(self) -> int:
        return self.minimized.total_ops()

    def describe(self) -> str:
        return (
            f"{self.original.name}: {self.failure_kind} reproduced with "
            f"{self.minimized_ops}/{self.original_ops} ops "
            f"(policy {self.policy_name}, schedule {self.schedule.label()}, "
            f"{self.runs} shrink runs)"
        )


class _Budget:
    """Counts candidate runs and stops the shrink loop when exhausted."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def take(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _ddmin(items: list, still_fails: Callable[[list], bool],
           budget: _Budget) -> list:
    """Zeller's ddmin: smallest sublist (to complement granularity) that
    still fails.  ``still_fails`` must be True for ``items`` itself."""
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk:]
            if not candidate:  # dropping everything is the final pass's job
                start += chunk
                continue
            if not budget.take():
                return items
            if still_fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0  # re-scan from the front at the same granularity
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(items))
    # final pass: a single op may still be droppable entirely
    if len(items) == 1 and budget.take() and still_fails([]):
        return []
    return items


def _has_agents(test: LitmusTest) -> bool:
    return bool(test.threads or test.gpu_waves or test.dma)


def shrink_agents(test: LitmusTest, keeps: Callable[[LitmusTest], bool],
                  budget: _Budget) -> LitmusTest:
    """The shared shrink driver: levels 1-2 plus the empty-slot strip.

    ``keeps`` is the acceptance predicate ("fails the same way" for
    :func:`minimize_failure`, "still fires every claimed row" for the fuzz
    corpus); it must hold for ``test`` itself.  Each ``keeps`` call costs
    one budget unit, and a candidate with no agent left is rejected before
    any unit is spent.  An exhausted budget returns the current shape.
    """

    def accept(candidate: LitmusTest) -> bool:
        return _has_agents(candidate) and budget.take() and keeps(candidate)

    current = test

    # level 1: drop whole agents (empty thread slots keep core placement)
    changed = True
    while changed:
        changed = False
        for index in range(len(current.threads)):
            if not current.threads[index]:
                continue
            threads = [list(s) for s in current.threads]
            threads[index] = []
            candidate = current.with_agents(
                threads, current.gpu_waves, current.dma
            )
            if accept(candidate):
                current = candidate
                changed = True
        for index in range(len(current.gpu_waves)):
            waves = [list(s) for s in current.gpu_waves]
            del waves[index]
            candidate = current.with_agents(current.threads, waves, current.dma)
            if accept(candidate):
                current = candidate
                changed = True
                break  # indices shifted; restart the wave scan
        for index in range(len(current.dma)):
            dma = list(current.dma)
            del dma[index]
            candidate = current.with_agents(
                current.threads, current.gpu_waves, dma
            )
            if accept(candidate):
                current = candidate
                changed = True
                break

    # level 2: ddmin each surviving agent's op list (the slot itself stays,
    # so no candidate here is agent-less)
    for index in range(len(current.threads)):
        if not current.threads[index]:
            continue

        def keeps_thread(ops_list: list, slot: int = index) -> bool:
            threads = [list(s) for s in current.threads]
            threads[slot] = list(ops_list)
            return keeps(
                current.with_agents(threads, current.gpu_waves, current.dma)
            )

        shrunk = _ddmin(list(current.threads[index]), keeps_thread, budget)
        threads = [list(s) for s in current.threads]
        threads[index] = shrunk
        current = current.with_agents(threads, current.gpu_waves, current.dma)
    for index in range(len(current.gpu_waves)):

        def keeps_wave(ops_list: list, slot: int = index) -> bool:
            waves = [list(s) for s in current.gpu_waves]
            waves[slot] = list(ops_list)
            return keeps(
                current.with_agents(current.threads, waves, current.dma)
            )

        shrunk = _ddmin(list(current.gpu_waves[index]), keeps_wave, budget)
        waves = [list(s) for s in current.gpu_waves]
        waves[index] = shrunk
        current = current.with_agents(current.threads, waves, current.dma)

    # drop now-empty waves / trailing empty threads — but agent count is
    # itself a schedule input (it shifts downstream tie-breaks), so only
    # adopt the stripped form if ``keeps`` still holds for it
    stripped = current.with_agents(
        _rstrip_empty(current.threads),
        [wave for wave in current.gpu_waves if wave],
        current.dma,
    )
    if stripped.to_json() != current.to_json() and accept(stripped):
        current = stripped
    return current


def minimize_failure(
    test: LitmusTest,
    policy_name: str,
    schedule: Schedule,
    mutate_system: Callable[[object], None] | None = None,
    max_events: int = LITMUS_MAX_EVENTS,
    max_runs: int = 400,
) -> MinimizationResult | None:
    """Shrink a failing triple; returns None if the original run passes.

    ``mutate_system`` (the fault-injection hook) is applied to every
    candidate run, so table-overlay faults shrink like organic ones.
    """

    def run(candidate: LitmusTest, run_schedule: Schedule,
            trace: bool = False) -> LitmusOutcome:
        return run_litmus(
            candidate,
            policy=POLICY_VARIANTS[policy_name],
            policy_name=policy_name,
            schedule=run_schedule,
            max_events=max_events,
            trace=trace,
            mutate_system=mutate_system,
        )

    first = run(test, schedule)
    if first.ok:
        return None
    kind = first.failure_kind
    budget = _Budget(max_runs)
    # if every op shrinks away (the failure needs no agent at all, e.g. a
    # broken init-state postcondition) the last verified shape is kept
    current = shrink_agents(
        test, lambda candidate: run(candidate, schedule).failure_kind == kind,
        budget,
    )

    # level 3: simplify the schedule
    final_schedule = schedule
    for simpler in _simpler_schedules(schedule):
        if budget.take() and run(current, simpler).failure_kind == kind:
            final_schedule = simpler
            break

    final = run(current, final_schedule, trace=True)
    return MinimizationResult(
        original=test,
        minimized=current,
        policy_name=policy_name,
        schedule=final_schedule,
        failure_kind=kind,
        messages=list(final.messages or first.messages),
        runs=budget.used,
        trace_text=final.trace_text,
    )


def _rstrip_empty(threads: list[list]) -> list[list]:
    out = [list(script) for script in threads]
    while out and not out[-1]:
        out.pop()
    return out


def _simpler_schedules(schedule: Schedule) -> list[Schedule]:
    """Candidate schedules strictly simpler than ``schedule``, simplest
    first (canonical, then single-knob versions)."""
    if schedule.is_canonical:
        return []
    candidates = [Schedule(0)]
    if schedule.jitter_cycles and schedule.tie_break:
        candidates.append(Schedule(schedule.seed, schedule.jitter_cycles, False))
        candidates.append(Schedule(schedule.seed, 0, True))
    return candidates


# -- artifacts -----------------------------------------------------------------


def artifact_to_dict(result: MinimizationResult) -> dict:
    return {
        "format": ARTIFACT_FORMAT,
        "litmus": result.minimized.to_json(),
        "original_ops": result.original_ops,
        "minimized_ops": result.minimized_ops,
        "policy_name": result.policy_name,
        "policy": policy_to_dict(POLICY_VARIANTS[result.policy_name])
        if result.policy_name in POLICY_VARIANTS
        else None,
        "schedule": result.schedule.to_json(),
        "failure": {"kind": result.failure_kind, "messages": result.messages},
        "trace": result.trace_text,
    }


def dump_artifact(result: MinimizationResult, path: str) -> dict:
    """Write the replayable JSON artifact; returns the written dict."""
    data = artifact_to_dict(result)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
    return data


def load_artifact(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: not a litmus reproducer artifact "
            f"(format {data.get('format')!r})"
        )
    return data


def replay_artifact(
    path: str,
    mutate_system: Callable[[object], None] | None = None,
    trace: bool = False,
) -> LitmusOutcome:
    """Re-run a dumped reproducer and return the live outcome.

    Serialized artifacts carry no code, so for a ``postcondition``-kind
    failure the registry postcondition is re-attached by litmus name (other
    kinds skip it: a shrunk op list rarely still satisfies the original
    exact postcondition, and the recorded failure reproduces without it).
    Fault-injection failures need the same ``mutate_system`` hook passed
    again.
    """
    from repro.verify.litmus.registry import REGISTRY

    data = load_artifact(path)
    test = LitmusTest.from_json(data["litmus"])
    registered = REGISTRY.get(test.name)
    if registered is not None and data["failure"]["kind"] == "postcondition":
        test.postcondition = registered.postcondition
    policy = (
        policy_from_dict(data["policy"])
        if data.get("policy")
        else POLICY_VARIANTS[data["policy_name"]]
    )
    return run_litmus(
        test,
        policy=policy,
        policy_name=data.get("policy_name", "artifact"),
        schedule=Schedule.from_json(data["schedule"]),
        trace=trace,
        mutate_system=mutate_system,
    )


__all__ = [
    "ARTIFACT_FORMAT",
    "MinimizationResult",
    "artifact_to_dict",
    "dump_artifact",
    "load_artifact",
    "minimize_failure",
    "replay_artifact",
    "shrink_agents",
    "DmaSpec",
]
