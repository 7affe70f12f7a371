"""Controlled schedule exploration for litmus runs.

One litmus outcome under one arbitrary schedule proves little; the classic
Ruby-random-tester lineage replays each test under *many* interleavings.  A
:class:`Schedule` names one deterministic interleaving via its knobs:

- **latency jitter** — every ``(src_kind, dst_kind)`` fabric latency gains
  a seeded 0..``jitter_cycles`` cycles (per direction), skewing request,
  probe, response and victim paths against each other
  (:meth:`Network.jitter_latencies`);
- **tie-break permutation** — same-tick, same-priority events run in a
  seeded-random order instead of FIFO
  (:meth:`EventQueue.set_tie_break`);
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

Jitter and tie-break perturb a built system (:meth:`Schedule.apply`); the
other knobs are system configuration, built into the
:class:`~repro.system.config.SystemConfig` by
:func:`~repro.verify.litmus.harness.litmus_config`.

All perturbations stay inside the simulator's legal behaviours (latency and
bandwidth are free parameters; tie order among simultaneous events is
unspecified), so any violation they expose is a real protocol bug, not a
harness artifact.  ``Schedule(0)`` — no jitter, FIFO ties, infinite
bandwidth — is the canonical schedule every other test in the repo runs
under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Schedule:
    """One deterministic interleaving: a seed plus perturbation knobs."""

    seed: int = 0
    jitter_cycles: int = 0       #: max extra fabric latency per kind pair
    tie_break: bool = False      #: permute same-tick event order
    link_bytes_per_cycle: int = 0  #: finite link bandwidth (0 = infinite)
    input_queue_depth: int = 0   #: bounded input ports + credit back-pressure
    watchdog_window_cycles: float = 0.0  #: arm the liveness watchdog
    dir_entries: int = 0         #: shrink the directory cache (0 = leave)

    @property
    def is_canonical(self) -> bool:
        return (
            not self.jitter_cycles
            and not self.tie_break
            and not self.link_bytes_per_cycle
            and not self.input_queue_depth
            and not self.watchdog_window_cycles
            and not self.dir_entries
        )

    def apply(self, system) -> None:
        """Install this schedule's per-run perturbations (latency jitter,
        tie-break) on a freshly built system.

        Must run before any workload starts (routes are precomputed and the
        tie-break only affects newly scheduled events).  The fabric knobs
        and ``dir_entries`` are not perturbations of a built system but
        part of its configuration:
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
        knobs = []
        if self.jitter_cycles:
            knobs.append(f"jitter{self.jitter_cycles}")
        if self.tie_break:
            knobs.append("tie")
        if self.link_bytes_per_cycle:
            knobs.append(f"bw{self.link_bytes_per_cycle}")
        if self.input_queue_depth:
            knobs.append(f"q{self.input_queue_depth}")
        if self.watchdog_window_cycles:
            knobs.append("wd")
        if self.dir_entries:
            knobs.append(f"dir{self.dir_entries}")
        return f"s{self.seed}:" + "+".join(knobs)

    def to_json(self) -> dict:
        return {"seed": self.seed, "jitter_cycles": self.jitter_cycles,
                "tie_break": self.tie_break,
                "link_bytes_per_cycle": self.link_bytes_per_cycle,
                "input_queue_depth": self.input_queue_depth,
                "watchdog_window_cycles": self.watchdog_window_cycles,
                "dir_entries": self.dir_entries}

    @classmethod
    def from_json(cls, data: dict) -> "Schedule":
        data = dict(data)
        # schedules saved before the bandwidth / flow-control / tiny-dir
        # knobs existed load unchanged
        data.setdefault("link_bytes_per_cycle", 0)
        data.setdefault("input_queue_depth", 0)
        data.setdefault("watchdog_window_cycles", 0.0)
        data.setdefault("dir_entries", 0)
        return cls(**data)


#: default per-kind-pair jitter range (cycles) for explored schedules
DEFAULT_JITTER_CYCLES = 4

#: link bandwidth used by contended exploration schedules (bytes/cycle,
#: matching ``SystemConfig.CONTENDED_KNOBS``)
DEFAULT_SCHEDULE_BANDWIDTH = 8

#: input-port queue depth used by bounded exploration schedules (matching
#: ``SystemConfig.BOUNDED_KNOBS``)
DEFAULT_SCHEDULE_QUEUE_DEPTH = 4

#: watchdog window for bounded exploration schedules (uncore cycles) —
#: generous next to litmus runtimes, so a trip means a genuine stall
DEFAULT_SCHEDULE_WATCHDOG_CYCLES = 100_000.0


@dataclass(frozen=True)
class ScheduleVariant:
    """One perturbation shape in the exploration rotation, knobs by name."""

    name: str
    jitter: bool            #: apply per-kind-pair latency jitter
    tie_break: bool         #: permute same-tick event order
    contended: bool         #: finite link bandwidth + WRR arbitration
    bounded: bool = False   #: bounded input queues + armed watchdog

    def schedule(self, seed: int,
                 jitter_cycles: int = DEFAULT_JITTER_CYCLES) -> Schedule:
        return Schedule(
            seed,
            jitter_cycles=jitter_cycles if self.jitter else 0,
            tie_break=self.tie_break,
            link_bytes_per_cycle=(
                DEFAULT_SCHEDULE_BANDWIDTH if self.contended else 0
            ),
            input_queue_depth=(
                DEFAULT_SCHEDULE_QUEUE_DEPTH if self.bounded else 0
            ),
            watchdog_window_cycles=(
                DEFAULT_SCHEDULE_WATCHDOG_CYCLES if self.bounded else 0.0
            ),
        )


#: the exploration rotation, indexed by ``seed % len(SCHEDULE_VARIANTS)``.
#: Order is load-bearing: seed 1 lands on index 1 (jitter-only), seed 2 on
#: index 2 (tie-only), seed 3 on index 3 (contended), seed 4 on index 4
#: (bounded fabric + watchdog), seed 5 wraps to index 0 (jitter+tie).
#: ``litmus_key`` folds the source digest into every stored result key, so
#: growing the rotation safely invalidates stale stored outcomes.
SCHEDULE_VARIANTS: tuple[ScheduleVariant, ...] = (
    ScheduleVariant("jitter+tie", jitter=True, tie_break=True, contended=False),
    ScheduleVariant("jitter", jitter=True, tie_break=False, contended=False),
    ScheduleVariant("tie", jitter=False, tie_break=True, contended=False),
    ScheduleVariant("tie+contended", jitter=False, tie_break=True, contended=True),
    ScheduleVariant("tie+bounded", jitter=False, tie_break=True, contended=True,
                    bounded=True),
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
    schedules = []
    for seed in range(count):
        base = variant_of(seed)
        variant = replace(
            base,
            name=base.name if base.bounded else f"{base.name}+bounded",
            contended=True,
            bounded=True,
        )
        schedules.append(variant.schedule(seed, jitter_cycles))
    return schedules
