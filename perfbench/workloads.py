"""The benchmark's workloads: how each op is generated, run and checked.

An op is one figure cell (``figures_flat``, ``figures_bounded``) or one
verified litmus run (``litmus_sweep``).  Every op goes through the public
API a user calls: figure cells through ``resolve_cells`` (the path
``repro figures`` takes, here serial and with no store, so every cell is
a cold simulation), litmus runs through ``run_litmus`` with the value
oracle and the invariant monitor on.  Every cell starts with empty
modelled caches, as in the paper's runs.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

from repro import PRESETS, SimulationResult, SystemConfig, build_system, get_workload
from repro.analysis.experiments import (
    figure5_reduction,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
)
from repro.runner import Cell
from repro.store import resolve_cells
from repro.verify.litmus.dsl import CompiledLitmus
from repro.verify.litmus.harness import POLICY_VARIANTS, run_litmus
from repro.verify.litmus.registry import all_litmus_tests
from repro.verify.litmus.schedule import Schedule, variant_of

#: the paper's published averages for Figs. 4-7 (Fig. 4: best §III
#: optimization; Fig. 5: directory-memory access reduction; Figs. 6-7:
#: owner+sharer tracking) -- the only reference results the repo holds
PAPER_AVERAGES = (1.68, 50.4, 14.4, 80.3)

#: litmus schedules per (test, policy), as in ``default_schedules()``
LITMUS_SCHEDULES = 8

#: a held-out litmus seed shifts every schedule seed by a multiple of the
#: rotation length, so each schedule keeps its perturbation variant
LITMUS_SEED_STRIDE = 5

#: simulated counters summed per op for the per-layer metrics
COUNTERS = (
    "cycles", "events",
    "net.messages", "net.bytes", "net.port_wait_ticks", "net.arb_wait_ticks",
    "net.credit_blocks", "net.credit_blocked_ticks", "watchdog.trips",
    "mem.accesses", "mem.row_hits", "mem.row_misses", "mem.bank_wait_ticks",
    "dir.requests", "dir.probes", "dir.queue_wait_ticks",
    "llc.hits", "llc.misses",
    "verify.loads_checked", "verify.invariant_checks", "litmus.mismatches",
)

_DIR_COUNTER = re.compile(r"dir\d*\.(requests|queue_wait_ticks)")
_MEMORY_COUNTERS = {
    "memory.reads": "mem.accesses",
    "memory.writes": "mem.accesses",
    "memory.row_hits": "mem.row_hits",
    "memory.row_misses": "mem.row_misses",
    "memory.bank_wait_ticks": "mem.bank_wait_ticks",
    "watchdog.trips": "watchdog.trips",
    "verify.loads_checked": "verify.loads_checked",
    "verify.invariant_checks": "verify.invariant_checks",
}


@dataclass
class OpOutcome:
    """What one op produced: pass/fail, a digest of its simulated
    counters, and the counters the per-layer metrics sum."""

    error: str | None
    digest: str
    counters: dict[str, float] = field(default_factory=dict)
    #: the cell's result (figure workloads only; feeds ``paper_gap_pp``)
    result: SimulationResult | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _counters(result: SimulationResult) -> dict[str, float]:
    """Reduce a result's public stats to the per-layer counters."""
    counters = dict.fromkeys(COUNTERS, 0)
    counters["cycles"] = result.cycles
    counters["net.messages"] = result.network_messages
    counters["net.bytes"] = result.network_bytes
    counters["dir.probes"] = result.dir_probes
    counters["llc.hits"] = result.llc_hits
    counters["llc.misses"] = result.llc_misses
    for key, value in result.stats.items():
        if key in _MEMORY_COUNTERS:
            counters[_MEMORY_COUNTERS[key]] += value
        elif key.startswith("network.ports."):
            name = key.rsplit(".", 1)[1]
            if name == "wait_ticks":
                counters["net.port_wait_ticks"] += value
            elif name in ("credit_blocks", "credit_blocked_ticks"):
                counters[f"net.{name}"] += value
        elif key.startswith("network.arb.") and key.endswith(".wait_ticks"):
            counters["net.arb_wait_ticks"] += value
        else:
            match = _DIR_COUNTER.fullmatch(key)
            if match:
                counters[f"dir.{match.group(1)}"] += value
    return counters


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _result_digest(result: SimulationResult) -> str:
    return _digest(result.ticks, result.cycles, sorted(result.stats.items()))


def _failure(exc: Exception) -> OpOutcome:
    return OpOutcome(f"{type(exc).__name__}: {exc}", "", dict.fromkeys(COUNTERS, 0))


def _shuffled(count: int, seed: int) -> list[int]:
    """Op order for a run: a seeded permutation, so any prefix of a pass
    is a fair sample of the workload's ops."""
    order = list(range(count))
    random.Random(f"perfbench-order:{seed}").shuffle(order)
    return order


class _FigureMatrix:
    """Stands in for ``ExperimentMatrix`` in the ``run_figure*``
    functions: it records the (workload, policy) pairs a figure asks for
    and answers them from ``results`` (a placeholder before any run)."""

    _PLACEHOLDER = SimulationResult("", 0, 1.0, 0, 0, 0, 0, 0, 0, 0)

    def __init__(self, results: dict | None = None) -> None:
        self.results = results
        self.pairs: dict[tuple[str, str], None] = {}

    def run_batch(self, pairs):
        self.pairs.update(dict.fromkeys(pairs))

    def run(self, workload: str, policy: str) -> SimulationResult:
        if self.results is None:
            return self._PLACEHOLDER
        return self.results[(workload, policy)]


def figure_averages(matrix: _FigureMatrix) -> tuple[float, float, float, float]:
    """The four headline averages, by the figure definitions."""
    figure4 = run_figure4(matrix)
    return (
        max(figure4.average("noWBcleanVic"), figure4.average("llcWB")),
        figure5_reduction(run_figure5(matrix)),
        run_figure6(matrix).average("sharers"),
        run_figure7(matrix).average("sharers"),
    )


class FigureWorkload:
    """The unique (CHAI workload, policy preset) cells behind Figs. 4-7."""

    def __init__(self, name: str, config_factory, seed: int) -> None:
        recorder = _FigureMatrix()
        figure_averages(recorder)
        self.name = name
        self.seed = seed
        self.pairs = list(recorder.pairs)
        self.cells = [
            Cell(workload=workload, config=config_factory(policy=PRESETS[policy]),
                 seed=seed, label=f"{workload}/{policy}")
            for workload, policy in self.pairs
        ]
        self.order = _shuffled(len(self.cells), seed)

    def run_op(self, index: int) -> OpOutcome:
        try:
            [result] = resolve_cells([self.cells[index]], jobs=1, serve="")
        except Exception as exc:  # a failed op is counted, not fatal
            return _failure(exc)
        counters = _counters(result)
        error = None
        if not result.ok:
            error = f"check errors: {result.check_errors[:3]}"
        elif counters["watchdog.trips"]:
            error = "watchdog tripped"
        return OpOutcome(error, _result_digest(result), counters, result)

    def builds(self) -> list:
        """The ``build`` methods of the workloads the cells run."""
        return [type(get_workload(name)).build
                for name in dict.fromkeys(cell.workload for cell in self.cells)]

    def count_events(self, index: int, outcome: OpOutcome) -> int:
        """Simulated events of one cell.  ``resolve_cells`` hides the
        system, so the cell is replayed through ``build_system`` and
        ``run_workload``; the replay must give the same counters."""
        cell = self.cells[index]
        system = build_system(cell.config)
        result = system.run_workload(get_workload(cell.workload), seed=cell.seed)
        if _result_digest(result) != outcome.digest:
            raise RuntimeError(f"{cell.display}: replay diverges from resolve_cells")
        return system.sim.events.executed_events

    def simulated(self, outcomes: dict[int, OpOutcome]) -> dict[str, float]:
        """Deterministic figures over one pass of every cell."""
        results = {self.pairs[i]: outcome.result for i, outcome in outcomes.items()}
        averages = figure_averages(_FigureMatrix(results))
        gaps = [abs(got - paper) for got, paper in zip(averages, PAPER_AVERAGES)]
        return {"paper_gap_pp": sum(gaps) / len(gaps)}


def litmus_schedules(seed: int) -> list[Schedule]:
    """``default_schedules()`` for seed 0; other seeds move every
    perturbed schedule to a new seed on the same rotation variant."""
    offset = LITMUS_SEED_STRIDE * seed
    return [Schedule(0)] + [
        variant_of(index).schedule(index + offset)
        for index in range(1, LITMUS_SCHEDULES)
    ]


class LitmusWorkload:
    """Every registered litmus x every policy variant x 8 schedules."""

    name = "litmus_sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        schedules = litmus_schedules(seed)
        self.runs = [
            (test, policy_name, schedule)
            for test in all_litmus_tests().values()
            for policy_name in POLICY_VARIANTS
            for schedule in schedules
        ]
        self.order = _shuffled(len(self.runs), seed)
        #: per test, the final memory every completed run must agree on
        self.reference: dict[str, dict] = {}

    def run_op(self, index: int) -> OpOutcome:
        test, policy_name, schedule = self.runs[index]
        captured: dict = {}

        def capture(system) -> None:
            # run_litmus keeps only the outcome; wrap this system's
            # run_workload to read its result and event count too.
            run_workload = system.run_workload

            def run_and_capture(*args, **kwargs):
                captured["result"] = run_workload(*args, **kwargs)
                captured["events"] = system.sim.events.executed_events
                return captured["result"]

            system.run_workload = run_and_capture

        try:
            outcome = run_litmus(test, policy_name=policy_name,
                                 schedule=schedule, mutate_system=capture)
        except Exception as exc:  # a failed op is counted, not fatal
            return _failure(exc)
        result = captured.get("result")
        counters = _counters(result) if result is not None else dict.fromkeys(COUNTERS, 0)
        counters["events"] = captured.get("events", 0)
        error = None if outcome.ok else outcome.describe()
        # run_differential's rule: every run that completed agrees on
        # final memory with the first one that did.
        if outcome.final_memory is not None and outcome.failure_kind not in (
            "invariant", "spin_timeout", "crash",
        ):
            reference = self.reference.setdefault(test.name, outcome.final_memory)
            if outcome.final_memory != reference:
                counters["litmus.mismatches"] = 1
                error = error or (
                    f"{test.name}@{policy_name}@{schedule.label()}: final memory "
                    f"{outcome.final_memory} diverges from {reference}"
                )
        if error is None and counters["watchdog.trips"]:
            error = "watchdog tripped"
        digest = _digest(outcome.failure_kind, outcome.ticks,
                         sorted(outcome.regs.items()),
                         sorted((outcome.final_memory or {}).items()),
                         result and _result_digest(result))
        return OpOutcome(error, digest, counters)

    def builds(self) -> list:
        return [CompiledLitmus.build]

    def count_events(self, index: int, outcome: OpOutcome) -> int:
        return int(outcome.counters["events"])

    def simulated(self, outcomes: dict[int, OpOutcome]) -> dict[str, float]:
        return {}


WORKLOADS = {
    "figures_flat": lambda seed: FigureWorkload("figures_flat", SystemConfig.benchmark, seed),
    "figures_bounded": lambda seed: FigureWorkload("figures_bounded", SystemConfig.bounded, seed),
    "litmus_sweep": LitmusWorkload,
}
