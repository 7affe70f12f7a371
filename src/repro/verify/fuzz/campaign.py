"""The budgeted coverage-guided campaign loop.

One campaign is a deterministic function of ``(seed, budget, policies)``:
iteration *i* generates ``generate_case(seed, i)`` and runs it under every
selected policy, batched through :func:`resolve_litmus` (store-backed, so
a re-run or a resumed campaign replays warm iterations as lookups).
Outcomes are processed strictly in input order:

- every run's ``(table, state, event)`` triples merge into the per-policy
  :class:`CoverageState`; a run that claimed *new* rows is shrunk with the
  coverage-preserving ddmin and added to the corpus;
- every *failing* run is shrunk with the failure-kind-preserving ddmin and
  dumped as a replayable artifact under ``<corpus>/failures/`` (one per
  ``(policy, failure kind)`` signature — later duplicates are counted,
  not re-minimized).

The coverage state persists as ``<corpus>/coverage.json`` after every
batch, so an interrupted campaign resumes by simply re-running: warm
iterations come back from the store, already-claimed rows add no corpus
entries, and the walk continues where it stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.verify.fuzz.corpus import Corpus, CorpusEntry, minimize_entry
from repro.verify.fuzz.coverage import CoverageState, coverage_report
from repro.verify.fuzz.generate import generate_case, profile_for_targets

#: programs per resolve_litmus batch (each fans out over the policies)
BATCH_PROGRAMS = 25

#: default shrink budgets (candidate runs each)
MINIMIZE_RUNS = 120
FAILURE_MINIMIZE_RUNS = 400

#: default policy selection: one representative per tracking mode — the
#: stateless baseline, owner-only, and full sharer tracking
DEFAULT_POLICIES = ("baseline", "owner", "sharers")

COVERAGE_FILE = "coverage.json"
REPORT_FILE = "report.json"


@dataclass
class CampaignResult:
    """What one campaign did, plus where the artifacts live."""

    seed: int
    budget: int
    policies: list[str]
    runs: int = 0
    iterations: int = 0
    new_entries: int = 0
    failures: list[str] = field(default_factory=list)  # artifact paths
    corpus_digest: str = ""
    report_text: str = ""
    report_data: dict = field(default_factory=dict)
    targets: list[tuple] = field(default_factory=list)
    targets_hit: list[tuple] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} budget={self.budget} "
            f"({self.iterations} programs x {len(self.policies)} policies, "
            f"{self.runs} runs)",
            f"corpus: {self.new_entries} new entries, "
            f"digest {self.corpus_digest}",
        ]
        if self.targets:
            hit = set(self.targets_hit)
            for target in self.targets:
                table, state, event = target
                status = "HIT" if target in hit else "unhit"
                lines.append(f"target {table}:{state}:{event} — {status}")
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)} minimized):")
            lines.extend(f"  {path}" for path in self.failures)
        lines.append(self.report_text)
        return "\n".join(lines)


def _chunks(sequence, size):
    for start in range(0, len(sequence), size):
        yield sequence[start:start + size]


def run_campaign(
    seed: int,
    budget: int,
    corpus_dir: str,
    policies=None,
    store=None,
    jobs: int | None = None,
    timeout_s: float | None = None,
    minimize_runs: int = MINIMIZE_RUNS,
    failure_minimize_runs: int = FAILURE_MINIMIZE_RUNS,
    progress=None,
    mutate_system=None,
    max_events: int | None = None,
    targets=None,
) -> CampaignResult:
    """Run one coverage-guided campaign of ``budget`` litmus runs.

    ``budget`` counts ``(litmus, policy, schedule)`` runs, not generated
    programs: each iteration consumes ``len(policies)`` runs, so the same
    budget means the same wall-clock class regardless of how many
    policies are swept.  Shrink runs (corpus and failure minimization)
    are not budgeted — they are the campaign's output, not its search.

    ``mutate_system`` injects a protocol fault into every run (and every
    shrink candidate); it disables both the store (fault-injected runs
    are unkeyed) and corpus writes — a fault-injection campaign only
    looks for the failure, it must not pollute the shared coverage
    corpus.

    ``targets`` — an iterable of ``(table, state, event)`` triples —
    switches the campaign to **directed** mode: generation uses
    :func:`profile_for_targets` to bias op weights and tiny-directory
    schedules toward the named rows, and the result reports which
    targets any policy hit.
    """
    from repro.store.resolve import resolve_litmus
    from repro.verify.litmus.minimize import (
        artifact_to_dict,
        minimize_failure,
    )

    policies = list(policies) if policies is not None else list(DEFAULT_POLICIES)
    if not policies:
        raise ValueError("need at least one policy")
    emit = progress or (lambda line: None)
    fault_mode = mutate_system is not None
    targets = [tuple(target) for target in targets or ()]
    profile = profile_for_targets(targets) if targets else None
    if targets:
        emit(f"[fuzz] directed mode: {len(targets)} target row(s), "
             f"profile {profile.name}")

    corpus = Corpus(corpus_dir)
    coverage_path = os.path.join(corpus_dir, COVERAGE_FILE)
    state = CoverageState()
    if not fault_mode and os.path.exists(coverage_path):
        state = CoverageState.load(coverage_path)
        emit(f"[fuzz] resuming: {state.total()} rows already covered")

    result = CampaignResult(seed=seed, budget=budget, policies=policies,
                            targets=targets)
    iterations = budget // len(policies)
    result.iterations = iterations
    minimized_failures: set[tuple[str, str]] = set()

    for batch_start in _chunks(range(iterations), BATCH_PROGRAMS):
        cases = [
            generate_case(seed, iteration, profile)
            for iteration in batch_start
        ]
        runs = [
            (test, policy, schedule)
            for test, schedule in cases
            for policy in policies
        ]
        outcomes = resolve_litmus(
            runs,
            store=store,
            jobs=jobs,
            timeout_s=timeout_s,
            progress=progress,
            coverage=True,
            max_events=max_events,
            mutate_system=mutate_system,
        )
        result.runs += len(runs)

        for (test, policy, schedule), outcome in zip(runs, outcomes):
            fresh = state.add(policy, outcome.coverage or ())
            if not outcome.ok:
                signature = (policy, outcome.failure_kind)
                if signature not in minimized_failures:
                    minimized_failures.add(signature)
                    emit(f"[fuzz] {test.name}@{policy}: "
                         f"{outcome.failure_kind} — minimizing")
                    shrunk = minimize_failure(
                        test, policy, schedule,
                        mutate_system=mutate_system,
                        max_runs=failure_minimize_runs,
                    )
                    if shrunk is not None:
                        path = _dump_failure(
                            corpus_dir, artifact_to_dict(shrunk)
                        )
                        result.failures.append(path)
                        emit(f"[fuzz] {shrunk.describe()}")
                        emit(f"[fuzz] artifact: {path}")
                continue
            if fresh and not fault_mode:
                entry = CorpusEntry.make(
                    test, schedule, policy, fresh,
                    seed=seed, iteration=_iteration_of(test),
                )
                entry = minimize_entry(entry, max_runs=minimize_runs)
                if corpus.add(entry):
                    result.new_entries += 1
                    emit(f"[fuzz] corpus += {entry.describe()}")
        if not fault_mode:
            state.save(coverage_path)

    if targets:
        covered = set()
        for policy in policies:
            covered |= state.policy_hits(policy)
        result.targets_hit = [t for t in targets if t in covered]

    report_text, report_data = coverage_report(state, policies)
    result.report_text = report_text
    result.report_data = report_data
    result.corpus_digest = corpus.corpus_digest()
    if not fault_mode:
        state.save(coverage_path)
        from repro.verify.fuzz.coverage import report_json

        with open(os.path.join(corpus_dir, REPORT_FILE), "w") as handle:
            handle.write(report_json(report_data))
    return result


def _iteration_of(test) -> int:
    """Recover the campaign iteration from a generated test's name."""
    try:
        return int(test.name.rsplit("_", 1)[1])
    except (IndexError, ValueError):
        return -1


def _dump_failure(corpus_dir: str, artifact: dict) -> str:
    """Write one minimized failure artifact, content-addressed."""
    failures_dir = os.path.join(corpus_dir, "failures")
    os.makedirs(failures_dir, exist_ok=True)
    digest = hashlib.sha256(
        json.dumps(artifact, sort_keys=True, default=str).encode()
    ).hexdigest()
    path = os.path.join(failures_dir, f"fail-{digest[:16]}.json")
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    return path
