"""Controlled schedule exploration for litmus runs.

One litmus outcome under one arbitrary schedule proves little; the classic
Ruby-random-tester lineage replays each test under *many* interleavings.  A
:class:`Schedule` names one deterministic interleaving via its knobs:

- **latency jitter** — every ``(src_kind, dst_kind)`` fabric latency gains
  a seeded 0..``jitter_cycles`` cycles (per direction), skewing request,
  probe, response and victim paths against each other
  (:meth:`Network.jitter_latencies`);
- **tie-break permutation** — same-tick events run in a seeded-random
  order instead of FIFO (:meth:`EventQueue.set_tie_break`);
- **link bandwidth** — finite-bandwidth link serialization plus WRR input
  arbitration at the directory, so bursts queue instead of overlapping — a
  whole family of interleavings (back-pressure reordering) latency jitter
  alone cannot reach;
- **bounded queues** — finite input-port queues with credit back-pressure
  on top of the finite-bandwidth fabric, so a full downstream port stalls
  its senders' output ports and transitively the components behind them;
  combined with a **watchdog window** that arms the deadlock/starvation
  watchdog, every explored interleaving doubles as a liveness proof;
- **directory entries** — a tiny directory cache that forces
  directory-cache replacement under ordinary litmus traffic.

Jitter and tie-break perturb a built system (:meth:`Schedule.apply`); every
other knob is a :class:`~repro.system.config.SystemConfig` or
:class:`~repro.coherence.policies.DirectoryPolicy` field, kept by name in
:attr:`Schedule.knobs` and built into the system's configuration by
:func:`~repro.verify.litmus.harness.litmus_config`, so a new knob costs no
code here.

All perturbations stay inside the simulator's legal behaviours (latency and
bandwidth are free parameters; tie order among simultaneous events is
unspecified), so any violation they expose is a real protocol bug, not a
harness artifact.  ``Schedule(0)`` — no jitter, FIFO ties, infinite
bandwidth — is the canonical schedule every other test in the repo runs
under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

#: label token and JSON off value of the knobs every saved schedule
#: records, in label order; any other knob labels as ``name=value`` and
#: reaches the JSON record only when set
_LABELED_KNOBS = {
    "link_bytes_per_cycle": ("bw{}", 0),
    "input_queue_depth": ("q{}", 0),
    "watchdog_window_cycles": ("wd", 0.0),
    "dir_entries": ("dir{}", 0),
}


@dataclass(frozen=True, init=False)
class Schedule:
    """One deterministic interleaving: a seed, the two per-run
    perturbations, and the system knobs it runs on."""

    seed: int
    jitter_cycles: int           #: max extra fabric latency per kind pair
    tie_break: bool              #: permute same-tick event order
    #: system knobs as sorted ``(name, value)`` pairs; a falsy value is off
    knobs: tuple[tuple[str, object], ...]

    def __init__(self, seed: int = 0, jitter_cycles: int = 0,
                 tie_break: bool = False, **knobs: object) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "jitter_cycles", jitter_cycles)
        object.__setattr__(self, "tie_break", tie_break)
        object.__setattr__(self, "knobs", tuple(sorted(
            (name, value) for name, value in knobs.items() if value
        )))

    @property
    def is_canonical(self) -> bool:
        return not (self.jitter_cycles or self.tie_break or self.knobs)

    def apply(self, system) -> None:
        """Install this schedule's per-run perturbations (latency jitter,
        tie-break) on a freshly built system.

        Must run before any workload starts (routes are precomputed and the
        tie-break only affects newly scheduled events).  The knobs are not
        perturbations of a built system but part of its configuration:
        :func:`~repro.verify.litmus.harness.litmus_config` builds them into
        the :class:`~repro.system.config.SystemConfig`.
        """
        if self.jitter_cycles:
            system.network.jitter_latencies(
                random.Random(self.seed * 2 + 1), self.jitter_cycles
            )
        if self.tie_break:
            system.sim.events.set_tie_break(random.Random(self.seed * 2))

    def label(self) -> str:
        if self.is_canonical:
            return f"s{self.seed}:canonical"
        tokens = []
        if self.jitter_cycles:
            tokens.append(f"jitter{self.jitter_cycles}")
        if self.tie_break:
            tokens.append("tie")
        knobs = dict(self.knobs)
        for name, (token, _) in _LABELED_KNOBS.items():
            if name in knobs:
                tokens.append(token.format(knobs.pop(name)))
        tokens.extend(f"{name}={value}" for name, value in knobs.items())
        return f"s{self.seed}:" + "+".join(tokens)

    def to_json(self) -> dict:
        data = {"seed": self.seed, "jitter_cycles": self.jitter_cycles,
                "tie_break": self.tie_break}
        data.update((name, off) for name, (_, off) in _LABELED_KNOBS.items())
        data.update(self.knobs)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        # off knobs drop out, so records saved before a knob existed load
        # unchanged
        return cls(**data)


#: default per-kind-pair jitter range (cycles) for explored schedules
DEFAULT_JITTER_CYCLES = 4

#: the bounded exploration fabric: finite link bandwidth and input-queue
#: depth matching ``SystemConfig.BOUNDED_KNOBS``, and a watchdog window
#: (uncore cycles) generous next to litmus runtimes, so a trip means a
#: genuine stall
BOUNDED_SCHEDULE_KNOBS = {
    "link_bytes_per_cycle": 8,
    "input_queue_depth": 4,
    "watchdog_window_cycles": 100_000.0,
}


@dataclass(frozen=True)
class ScheduleVariant:
    """One perturbation shape in the exploration rotation."""

    name: str
    jitter: bool            #: apply per-kind-pair latency jitter
    tie_break: bool         #: permute same-tick event order
    #: system knobs every schedule of this shape runs on
    knobs: Mapping[str, object] = field(default_factory=dict)

    def schedule(self, seed: int, jitter_cycles: int = DEFAULT_JITTER_CYCLES,
                 **knobs: object) -> Schedule:
        """This shape under ``seed``; ``knobs`` add to (or override) the
        shape's own."""
        return Schedule(seed, jitter_cycles if self.jitter else 0,
                        self.tie_break, **{**self.knobs, **knobs})


#: the exploration rotation, indexed by ``seed % len(SCHEDULE_VARIANTS)``.
#: Order is load-bearing: seed 1 lands on index 1 (jitter-only), seed 2 on
#: index 2 (tie-only), seed 3 on index 3 (finite link bandwidth + WRR
#: arbitration), seed 4 on index 4 (bounded fabric + watchdog), seed 5
#: wraps to index 0 (jitter+tie).  ``litmus_key`` folds the source digest
#: into every stored result key, so growing the rotation safely
#: invalidates stale stored outcomes.
SCHEDULE_VARIANTS: tuple[ScheduleVariant, ...] = (
    ScheduleVariant("jitter+tie", jitter=True, tie_break=True),
    ScheduleVariant("jitter", jitter=True, tie_break=False),
    ScheduleVariant("tie", jitter=False, tie_break=True),
    ScheduleVariant("tie+contended", jitter=False, tie_break=True,
                    knobs={"link_bytes_per_cycle": 8}),
    ScheduleVariant("tie+bounded", jitter=False, tie_break=True,
                    knobs=BOUNDED_SCHEDULE_KNOBS),
)


def variant_of(seed: int) -> ScheduleVariant:
    """The rotation slot a non-canonical seed lands on."""
    return SCHEDULE_VARIANTS[seed % len(SCHEDULE_VARIANTS)]


def default_schedules(count: int = 8,
                      jitter_cycles: int = DEFAULT_JITTER_CYCLES) -> list[Schedule]:
    """The standard exploration set: the canonical schedule plus the
    :data:`SCHEDULE_VARIANTS` rotation (jitter+tie, jitter-only, tie-only,
    contended fabric, bounded fabric with watchdog).

    Distinct seeds land on distinct schedules, so ``count`` is also the
    number of genuinely different interleavings attempted (>= 8 in CI).
    """
    if count < 1:
        raise ValueError("need at least one schedule")
    schedules = [Schedule(0)]
    for seed in range(1, count):
        schedules.append(variant_of(seed).schedule(seed, jitter_cycles))
    return schedules


def bounded_schedules(count: int = 8,
                      jitter_cycles: int = DEFAULT_JITTER_CYCLES) -> list[Schedule]:
    """The watchdog sweep set: the rotation's perturbation shapes, but
    every schedule forced onto the bounded fabric with the watchdog armed.

    Seeds still land on distinct jitter/tie-break combinations, so the
    sweep explores the same interleavings as :func:`default_schedules` —
    only now every run is also a liveness proof: a credit cycle that
    never drains trips the watchdog instead of passing silently on an
    unbounded queue.
    """
    if count < 1:
        raise ValueError("need at least one schedule")
    return [
        variant_of(seed).schedule(seed, jitter_cycles, **BOUNDED_SCHEDULE_KNOBS)
        for seed in range(count)
    ]
