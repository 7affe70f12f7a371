"""Litmus execution harness: one run, schedule sweeps, policy differentials.

:func:`run_litmus` executes one ``(test, policy, schedule)`` triple on a
freshly built small system with full verification attached (coherence
invariant monitor + value oracle) and classifies the outcome into a
*failure kind*:

================  ============================================================
``invariant``     the :class:`CoherenceMonitor` raised mid-run
``spin_timeout``  a litmus spin exhausted its polling budget (lost flag store)
``crash``         any other exception (deadlock, event backstop, harness bug)
``oracle``        a load observed a value nobody wrote
``postcondition`` the test's own exact postcondition failed
================  ============================================================

Kinds are ordered by severity and preserved by the minimizer, so shrinking
cannot wander from (say) an invariant violation to an unrelated spin
timeout.

:func:`run_differential` is the cross-policy oracle: the same litmus, swept
over every schedule and every :data:`POLICY_VARIANTS` entry, must converge
to identical final memory — the litmus suite only contains tests whose
final state is schedule-independent, so *any* divergence between policy
variants is a bug in one of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterable

from repro.coherence.policies import (
    OWNER_TRACKING,
    PRESETS,
    SHARER_TRACKING,
    DirectoryPolicy,
)
from repro.runner.cache import CACHE_VERSION, source_digest
from repro.sim.tracing import ProtocolTrace
from repro.store.store import KIND_LITMUS
from repro.system.builder import build_system
from repro.system.config import SystemConfig
from repro.system.serialize import policy_to_dict
from repro.verify.invariants import InvariantViolation
from repro.verify.litmus.dsl import CompiledLitmus, LitmusEnv, LitmusTest, SpinTimeout
from repro.verify.litmus.schedule import Schedule, default_schedules

#: every policy the differential harness sweeps: the eight named presets
#: plus four §VII variants that stress distinct protocol paths (conservative
#: VicDirty handling, limited-pointer overflow broadcasts, state-aware
#: directory replacement, and address-interleaved directory banks).
POLICY_VARIANTS: dict[str, DirectoryPolicy] = {
    **PRESETS,
    "sharers+conservativeVicDirty": SHARER_TRACKING.named(
        vicdirty_invalidates_sharers=True
    ),
    "sharers+limitedPtr": SHARER_TRACKING.named(sharer_pointer_limit=1),
    "owner+stateAwareRepl": OWNER_TRACKING.named(
        state_aware_dir_replacement=True
    ),
    "sharers+banked": SHARER_TRACKING.named(dir_banks=2),
}

#: event backstop per litmus run — far above any legitimate litmus (which
#: completes in thousands of events) yet cheap to hit on a livelock
LITMUS_MAX_EVENTS = 2_000_000


@dataclass
class LitmusOutcome:
    """What one ``(test, policy, schedule)`` run produced."""

    test: str
    policy: str
    schedule: Schedule
    failure_kind: str | None = None
    messages: list[str] = field(default_factory=list)
    regs: dict[str, object] = field(default_factory=dict)
    final_memory: dict[str, int] | None = None
    ticks: int | None = None
    trace_text: str | None = None
    #: sorted ``(table, state, event)`` triples the run fired, when the
    #: run was made with ``coverage=True`` (None otherwise)
    coverage: list[tuple[str, str, str]] | None = None

    @property
    def ok(self) -> bool:
        return self.failure_kind is None

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL[{self.failure_kind}]"
        head = f"{self.test} @ {self.policy} @ {self.schedule.label()}: {status}"
        if self.messages:
            head += "\n  " + "\n  ".join(self.messages[:8])
        return head


def _classify_exception(exc: BaseException) -> str:
    if isinstance(exc, InvariantViolation):
        return "invariant"
    if isinstance(exc, SpinTimeout):
        return "spin_timeout"
    return "crash"


def litmus_config(policy: DirectoryPolicy,
                  schedule: Schedule | None = None) -> SystemConfig:
    """The system every litmus runs on: the scaled-down test config whose
    small caches make evictions (and their races) reachable in a few ops.

    A schedule's fabric knobs (``link_bytes_per_cycle``,
    ``input_queue_depth``, ``watchdog_window_cycles``) and its
    ``dir_entries`` are built into the config here, so they reach the
    system the one way every other config knob does and
    :meth:`SystemConfig.validate` checks them.  Tiny directories force
    directory-cache replacement (the B-state eviction transients) under
    otherwise ordinary litmus traffic.  Only the per-run perturbations
    (latency jitter, tie-break) are left to :meth:`Schedule.apply`.
    """
    schedule = schedule or Schedule(0)
    if schedule.dir_entries:
        policy = policy.named(
            dir_entries=schedule.dir_entries,
            dir_assoc=min(policy.dir_assoc, schedule.dir_entries),
        )
    return SystemConfig.small(
        policy=policy,
        link_bytes_per_cycle=schedule.link_bytes_per_cycle,
        input_queue_depth=schedule.input_queue_depth,
        watchdog_window_cycles=schedule.watchdog_window_cycles,
    )


def litmus_key(test: LitmusTest, policy: DirectoryPolicy,
               schedule: Schedule, max_events: int,
               coverage: bool = False) -> str:
    """Content-addressed key for one (litmus, policy, schedule) triple.

    Mirrors :func:`repro.runner.cache.cell_key`: everything determining
    the outcome — the serialized test, the full policy, the schedule
    knobs, the event backstop, and the source digest — so code changes
    invalidate stored outcomes the same way they invalidate cells.
    """
    payload = {
        "version": CACHE_VERSION,
        "source": source_digest(),
        "test": test.to_json(),
        "policy": policy_to_dict(policy),
        "schedule": schedule.to_json(),
        "max_events": max_events,
        "coverage": coverage,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def outcome_to_dict(outcome: LitmusOutcome) -> dict:
    """JSON-able capture of a :class:`LitmusOutcome` (exact round-trip)."""
    return {
        "test": outcome.test,
        "policy": outcome.policy,
        "schedule": outcome.schedule.to_json(),
        "failure_kind": outcome.failure_kind,
        "messages": list(outcome.messages),
        "regs": dict(outcome.regs),
        "final_memory": (
            dict(outcome.final_memory)
            if outcome.final_memory is not None else None
        ),
        "ticks": outcome.ticks,
        "trace_text": outcome.trace_text,
        "coverage": (
            [list(triple) for triple in outcome.coverage]
            if outcome.coverage is not None else None
        ),
    }


def outcome_from_dict(data: dict) -> LitmusOutcome:
    return LitmusOutcome(
        test=data["test"],
        policy=data["policy"],
        schedule=Schedule.from_json(data["schedule"]),
        failure_kind=data.get("failure_kind"),
        messages=list(data.get("messages", [])),
        regs=dict(data.get("regs", {})),
        final_memory=(
            dict(data["final_memory"])
            if data.get("final_memory") is not None else None
        ),
        ticks=data.get("ticks"),
        trace_text=data.get("trace_text"),
        coverage=(
            [tuple(triple) for triple in data["coverage"]]
            if data.get("coverage") is not None else None
        ),
    )


def run_litmus(
    test: LitmusTest,
    policy: DirectoryPolicy | None = None,
    schedule: Schedule | None = None,
    policy_name: str = "baseline",
    max_events: int = LITMUS_MAX_EVENTS,
    trace: bool = False,
    trace_capacity: int = 4_000,
    mutate_system: Callable[[object], None] | None = None,
    coverage: bool = False,
) -> LitmusOutcome:
    """Run one litmus under one policy and one schedule.

    ``mutate_system`` is a post-build hook (used by the fault-injection
    tests to overlay a broken transition table on a controller); it runs
    after the schedule's perturbations and before any traffic.  The system
    is closed (:meth:`ApuSystem.close`) once the outcome is extracted, on
    the crash path too; a hook that keeps the system gets a closed one,
    which still answers its stats and coherent values.

    ``coverage`` attaches a :class:`TransitionCoverage` hook and records
    the set of ``(table, state, event)`` triples the run fired in the
    outcome.

    This is the plain per-run primitive; batches that should reuse
    stored outcomes go through :class:`LitmusJob` and the resolver
    (:func:`run_schedules`, :func:`run_differential`,
    :func:`repro.store.resolve_litmus`).
    """
    policy = POLICY_VARIANTS[policy_name] if policy is None else policy
    schedule = schedule or Schedule(0)
    system = build_system(litmus_config(policy, schedule))
    try:
        schedule.apply(system)
        if mutate_system is not None:
            mutate_system(system)
        protocol_trace = None
        if trace:
            protocol_trace = ProtocolTrace(capacity=trace_capacity)
            protocol_trace.attach_system(system)
        coverage_hook = None
        if coverage:
            from repro.coherence.engine import TransitionCoverage

            coverage_hook = TransitionCoverage().attach_system(system)

        workload = CompiledLitmus(test)
        outcome = LitmusOutcome(test.name, policy_name, schedule)
        try:
            result = system.run_workload(
                workload, verify=True, max_events=max_events
            )
        except Exception as exc:  # classified, not swallowed: it IS the result
            outcome.failure_kind = _classify_exception(exc)
            outcome.messages.append(f"{type(exc).__name__}: {exc}")
        else:
            outcome.ticks = result.ticks
            if result.check_errors:
                outcome.failure_kind = "oracle"
                outcome.messages.extend(result.check_errors)
            elif test.postcondition is not None:
                env = LitmusEnv(
                    dict(workload.regs),
                    lambda loc: system.coherent_word(workload.addr_of(loc)),
                )
                errors = test.postcondition(env)
                if errors:
                    outcome.failure_kind = "postcondition"
                    outcome.messages.extend(errors)
        outcome.regs = dict(workload.regs)
        try:
            outcome.final_memory = {
                loc: system.coherent_word(workload.addr_of(loc))
                for loc in test.layout
            }
        except Exception:  # mid-crash state may not be inspectable
            outcome.final_memory = None
        if protocol_trace is not None:
            outcome.trace_text = protocol_trace.dump(limit=200)
        if coverage_hook is not None:
            outcome.coverage = coverage_hook.triples()
    finally:
        system.close()
    return outcome


@dataclass
class LitmusJob:
    """One litmus run as a keyed job for :func:`repro.store.resolve_jobs`.

    The job carries the policy itself, not only its name, so any policy
    (a :data:`POLICY_VARIANTS` entry or an ad-hoc one) keys, pickles and
    stores the same way.  A fault-injected job (``mutate_system``) is not
    content-addressable: its outcome depends on the hook, which the key
    cannot see.
    """

    test: LitmusTest
    policy: DirectoryPolicy
    schedule: Schedule
    policy_name: str
    max_events: int = LITMUS_MAX_EVENTS
    coverage: bool = False
    mutate_system: Callable[[object], None] | None = None
    kind: ClassVar[str] = KIND_LITMUS

    @property
    def label(self) -> str:
        return f"{self.test.name}@{self.policy_name}@{self.schedule.label()}"

    def key(self) -> str | None:
        if self.mutate_system is not None:
            return None
        return litmus_key(self.test, self.policy, self.schedule,
                          self.max_events, self.coverage)

    def run(self) -> LitmusOutcome:
        return run_litmus(
            self.test, self.policy, self.schedule, self.policy_name,
            self.max_events, mutate_system=self.mutate_system,
            coverage=self.coverage,
        )

    def row(self, outcome: LitmusOutcome) -> dict:
        return {
            "workload": self.test.name,
            "config": {"policy": policy_to_dict(self.policy),
                       "schedule": self.schedule.to_json(),
                       "max_events": self.max_events},
            "result": outcome_to_dict(outcome),
            "verify": True,
            "seed": self.schedule.seed,
        }

    def decode(self, data: dict) -> LitmusOutcome:
        return self.share(outcome_from_dict(data))

    def share(self, outcome: LitmusOutcome) -> LitmusOutcome:
        # one key may serve several policy *names*: keep this job's name
        return replace(outcome, policy=self.policy_name)


def _resolve_runs(test: LitmusTest, pairs, schedules, store,
                  **options) -> list[LitmusOutcome]:
    """Every ``(policy name, policy)`` x schedule run of ``test``, in
    order, through the resolver (warm runs are store lookups)."""
    from repro.store.resolve import resolve_jobs

    schedules = list(schedules) if schedules is not None else default_schedules()
    return resolve_jobs(
        [LitmusJob(test, policy, schedule, name, **options)
         for name, policy in pairs for schedule in schedules],
        store=store, jobs=1,
    )


def run_schedules(
    test: LitmusTest,
    policy_name: str = "baseline",
    schedules: Iterable[Schedule] | None = None,
    store=None,
    **options,
) -> list[LitmusOutcome]:
    """One litmus, one policy, every schedule.

    ``store`` (a :class:`repro.store.ResultStore`) memoizes outcomes;
    ``options`` are the :class:`LitmusJob` fields ``max_events``,
    ``coverage`` and ``mutate_system``.
    """
    return _resolve_runs(test, [(policy_name, POLICY_VARIANTS[policy_name])],
                         schedules, store, **options)


@dataclass
class DifferentialReport:
    """All outcomes of one litmus across policies × schedules, plus the
    cross-run final-memory comparison."""

    test: str
    outcomes: list[LitmusOutcome]
    mismatches: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[LitmusOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.mismatches

    def describe(self) -> str:
        lines = [
            f"{self.test}: {len(self.outcomes)} runs, "
            f"{len(self.failures)} failures, "
            f"{len(self.mismatches)} differential mismatches"
        ]
        lines.extend(outcome.describe() for outcome in self.failures)
        lines.extend(self.mismatches)
        return "\n".join(lines)


def run_differential(
    test: LitmusTest,
    policies: dict[str, DirectoryPolicy] | None = None,
    schedules: Iterable[Schedule] | None = None,
    store=None,
    **options,
) -> DifferentialReport:
    """Sweep one litmus over every (policy, schedule) pair and demand that
    all completed runs agree on final memory.

    The suite's tests order their conflicting writes (spin flags, atomics),
    so final memory is schedule- *and* policy-independent by construction;
    the first completed run is the reference and every divergence is
    reported as a mismatch.  ``store`` and ``options`` are as for
    :func:`run_schedules`.
    """
    policies = policies if policies is not None else POLICY_VARIANTS
    report = DifferentialReport(test.name, _resolve_runs(
        test, policies.items(), schedules, store, **options
    ))
    reference: tuple[str, dict[str, int]] | None = None
    for outcome in report.outcomes:
        if outcome.final_memory is None or outcome.failure_kind in (
            "invariant", "spin_timeout", "crash",
        ):
            continue
        label = f"{outcome.policy} @ {outcome.schedule.label()}"
        if reference is None:
            reference = (label, outcome.final_memory)
        elif outcome.final_memory != reference[1]:
            diffs = {
                loc: (reference[1].get(loc), outcome.final_memory.get(loc))
                for loc in sorted(set(reference[1]) | set(outcome.final_memory))
                if reference[1].get(loc) != outcome.final_memory.get(loc)
            }
            report.mismatches.append(
                f"{test.name}: final memory of {label} diverges from "
                f"{reference[0]}: {diffs}"
            )
    return report
