"""Deterministic litmus-program generation.

``generate_case(seed, iteration)`` is a pure function: the pair seeds a
private :class:`random.Random` (string seeding, which hashes through
SHA-512 and is stable across processes and platforms), so the same seed
and iteration always produce byte-identical tests and schedules — the
property the corpus-digest regression tests pin.

Generated programs are **verifier-only** (``postcondition=None``): random
racing writes have schedule-dependent finals, so the exact-postcondition
discipline of the hand-written suite cannot apply.  The invariant monitor
and the value oracle stay attached and are the fuzzer's bug detectors.
Spins are deliberately never emitted: a generated spin whose writer was
never generated would drown the campaign in ``spin_timeout`` noise.

Layout placement mirrors the hand-written suite's three interesting
shapes: fresh contiguous lines, same-line words (false sharing), and
``L2_CONFLICT_STRIDE``-apart lines (same L2 set, forcing evictions).

A :class:`FuzzProfile` parameterizes the op-kind weights and the
tiny-directory schedule chance.  The default profile emits ``flush``
ops (conflict-load eviction pressure — the only way to reach the
``Evict``/``Vic*`` protocol rows from a litmus program) and occasionally
shrinks the directory cache (a ``dir_entries`` schedule knob), which is
what drives the directory's ``B*``-state replacement transients.
:func:`profile_for_targets` biases a profile toward a set of
``(table, state, event)`` rows for directed campaigns
(``repro fuzz run --target``).
"""

from __future__ import annotations

import dataclasses
import random

from repro.mem.address import WORDS_PER_LINE
from repro.verify.litmus.dsl import DmaSpec, LitmusTest
from repro.verify.litmus.registry import L2_CONFLICT_STRIDE
from repro.verify.litmus.schedule import SCHEDULE_VARIANTS, Schedule

#: atomic RMW kinds the generator draws from (CAS compares against the
#: interpreter's default 0, which is still a legal, racy RMW)
ATOMIC_OPS = ("add", "inc", "exch", "cas", "max", "min", "and", "or")

#: op-kind vocabularies, index-aligned with the profile weight tuples
CPU_KINDS = ("store", "load", "atomic", "think", "flush")
GPU_KINDS = ("store", "load", "atomic", "vstore", "vload",
             "acq", "rel", "think", "flush")


@dataclasses.dataclass(frozen=True)
class FuzzProfile:
    """Generator bias knobs: op-kind weights plus schedule shaping.

    Weights are index-aligned with :data:`CPU_KINDS` / :data:`GPU_KINDS`.
    ``tiny_dir_chance`` is the probability a generated schedule carries a
    ``dir_entries`` override drawn from ``tiny_dir_entries``, shrinking
    the directory cache so entry replacement (``DirEvict`` / ``B*``
    transients) happens under ordinary traffic.
    """

    name: str = "default"
    cpu_weights: tuple[int, ...] = (4, 3, 2, 1, 1)
    gpu_weights: tuple[int, ...] = (3, 3, 2, 2, 2, 1, 1, 1, 1)
    tiny_dir_chance: float = 0.15
    tiny_dir_entries: tuple[int, ...] = (8, 16)

    def __post_init__(self) -> None:
        if len(self.cpu_weights) != len(CPU_KINDS):
            raise ValueError(f"cpu_weights needs {len(CPU_KINDS)} entries")
        if len(self.gpu_weights) != len(GPU_KINDS):
            raise ValueError(f"gpu_weights needs {len(GPU_KINDS)} entries")
        if not 0.0 <= self.tiny_dir_chance <= 1.0:
            raise ValueError("tiny_dir_chance must be a probability")


DEFAULT_PROFILE = FuzzProfile()

#: event names whose rows need eviction pressure (flush ops) to fire
_EVICTION_EVENTS = frozenset(
    {"Evict", "EvictDone", "VicClean", "VicDirty", "WBAck"}
)
#: directory states/events that only appear while a directory-cache
#: entry is being replaced or refilled — tiny directories force them
_DIR_PRESSURE_EVENTS = frozenset({"DirEvict", "MemData", "LlcData"})


def profile_for_targets(targets) -> FuzzProfile:
    """Bias a profile toward a set of ``(table, state, event)`` rows.

    Purely heuristic: each target nudges the knob that makes its row
    family reachable more often (flush weight for eviction rows, tiny
    directories for ``B*``/``U`` transients, GPU release fences for the
    directory ``Flush`` event).  The result is deterministic in the
    target list, so a directed campaign is as replayable as a default
    one.
    """
    targets = [tuple(target) for target in targets]
    if not targets:
        return DEFAULT_PROFILE
    cpu = list(DEFAULT_PROFILE.cpu_weights)
    gpu = list(DEFAULT_PROFILE.gpu_weights)
    tiny_dir_chance = DEFAULT_PROFILE.tiny_dir_chance
    for table, state, event in targets:
        if (state.startswith(("B", "U"))
                or event in _DIR_PRESSURE_EVENTS
                or event == "RdBlkS"):
            # B*/U transients and DirEvict need directory-entry
            # replacement mid-flight; RdBlkS rows beyond I need a code
            # line's entry evicted and refetched
            tiny_dir_chance = max(tiny_dir_chance, 0.7)
        if event in _EVICTION_EVENTS or event.startswith("Prb"):
            cpu[CPU_KINDS.index("flush")] += 4
            gpu[GPU_KINDS.index("flush")] += 2
        if table.startswith("tcc"):
            gpu[GPU_KINDS.index("flush")] += 3
            gpu[GPU_KINDS.index("rel")] += 2
        if event == "Flush":
            # the directory Flush event is the GPU release fence's
            # per-bank broadcast
            gpu[GPU_KINDS.index("rel")] += 4
    return FuzzProfile(
        name="directed",
        cpu_weights=tuple(cpu),
        gpu_weights=tuple(gpu),
        tiny_dir_chance=tiny_dir_chance,
    )

#: generator bounds — small programs shrink fast and still reach the
#: interesting protocol rows via placement + schedule perturbation
MAX_LOCS = 5
MAX_THREADS = 4          # SystemConfig.small core count
MAX_WAVES = 2            # one workgroup per wave; small has 2 CUs
MAX_OPS_PER_AGENT = 6
MAX_DMA = 2
MAX_VALUE = 255


def _rng(seed: int, iteration: int) -> random.Random:
    return random.Random(f"fuzz:{seed}:{iteration}")


def _make_layout(rng: random.Random) -> dict[str, tuple[int, int]]:
    """2..MAX_LOCS locations over fresh / same / conflict-stride lines."""
    count = rng.randint(2, MAX_LOCS)
    layout: dict[str, tuple[int, int]] = {}
    used: set[tuple[int, int]] = set()
    lines = [0]
    for index in range(count):
        loc = f"x{index}"
        for _attempt in range(16):
            shape = rng.random()
            if index == 0 or shape < 0.4:
                line = max(lines) + (0 if index == 0 else 1)
            elif shape < 0.75:
                line = rng.choice(lines)       # false sharing
            else:
                line = rng.choice(lines) + L2_CONFLICT_STRIDE  # same L2 set
            word = rng.randrange(WORDS_PER_LINE)
            if (line, word) not in used:
                break
        else:  # the line/word space is tiny only in pathological draws
            line, word = max(lines) + 1, 0
        used.add((line, word))
        lines.append(line)
        layout[loc] = (line, word)
    return layout


def _cpu_op(rng: random.Random, locs: list[str], index: int,
            profile: FuzzProfile) -> tuple:
    kind = rng.choices(CPU_KINDS, weights=profile.cpu_weights)[0]
    if kind == "store":
        return ("store", rng.choice(locs), rng.randint(1, MAX_VALUE))
    if kind == "load":
        return ("load", rng.choice(locs), f"r{index}")
    if kind == "atomic":
        return ("atomic", rng.choice(locs), rng.choice(ATOMIC_OPS),
                rng.randint(1, 7), f"a{index}")
    if kind == "flush":
        return ("flush", rng.choice(locs))
    return ("think", rng.randint(1, 200))


def _gpu_op(rng: random.Random, locs: list[str], index: int,
            profile: FuzzProfile) -> tuple:
    kind = rng.choices(GPU_KINDS, weights=profile.gpu_weights)[0]
    if kind == "store":
        return ("store", rng.choice(locs), rng.randint(1, MAX_VALUE))
    if kind == "load":
        return ("load", rng.choice(locs), f"r{index}")
    if kind == "atomic":
        return ("atomic", rng.choice(locs), rng.choice(ATOMIC_OPS),
                rng.randint(1, 7), f"a{index}", rng.choice(("slc", "glc")))
    if kind in ("vstore", "vload"):
        width = rng.randint(1, min(3, len(locs)))
        vlocs = rng.sample(locs, width)
        if kind == "vstore":
            return ("vstore", vlocs, rng.randint(1, MAX_VALUE))
        return ("vload", vlocs, f"v{index}")
    if kind == "acq":
        return ("acq",)
    if kind == "rel":
        return ("rel",)
    if kind == "flush":
        return ("flush", rng.choice(locs))
    return ("think", rng.randint(1, 200))


def _make_dma(rng: random.Random,
              layout: dict[str, tuple[int, int]]) -> list[DmaSpec]:
    """0..MAX_DMA transfers, bounded to stay inside the layout's lines
    (a transfer past the last line would trample the code region)."""
    num_lines = 1 + max(line for line, _word in layout.values())
    specs = []
    for _ in range(rng.randint(0, MAX_DMA)):
        loc = rng.choice(sorted(layout))
        room = num_lines - layout[loc][0]
        specs.append(DmaSpec(
            kind=rng.choice(("read", "write")),
            loc=loc,
            lines=rng.randint(1, max(1, room)),
            value=rng.randint(0, MAX_VALUE),
        ))
    return specs


def generate_schedule(rng: random.Random,
                      profile: FuzzProfile = DEFAULT_PROFILE) -> Schedule:
    """Canonical ~1/4 of the time, otherwise a random rotation variant
    under a random schedule seed; a ``tiny_dir_chance`` roll then layers
    a shrunken directory cache on top of either shape."""
    canonical = rng.random() < 0.25
    if not canonical:
        variant = rng.choice(SCHEDULE_VARIANTS)
        seed = rng.randint(1, 10_000)
    # the roll is unconditional so the rng draw count — and therefore the
    # rest of the case stream — is identical across profiles
    roll = rng.random()
    entries = rng.choice(profile.tiny_dir_entries)
    knobs = {"dir_entries": entries} if roll < profile.tiny_dir_chance else {}
    if canonical:
        return Schedule(0, **knobs)
    return variant.schedule(seed, **knobs)


def generate_case(
    seed: int, iteration: int, profile: FuzzProfile | None = None
) -> tuple[LitmusTest, Schedule]:
    """One deterministic ``(litmus, schedule)`` pair for a campaign slot."""
    profile = profile or DEFAULT_PROFILE
    rng = _rng(seed, iteration)
    layout = _make_layout(rng)
    locs = sorted(layout)

    threads = [
        [_cpu_op(rng, locs, op, profile)
         for op in range(rng.randint(1, MAX_OPS_PER_AGENT))]
        for _ in range(rng.randint(1, MAX_THREADS))
    ]
    gpu_waves = [
        [_gpu_op(rng, locs, op, profile)
         for op in range(rng.randint(1, MAX_OPS_PER_AGENT))]
        for _ in range(rng.randint(0, MAX_WAVES))
    ]
    dma = _make_dma(rng, layout)
    init = {
        loc: rng.randint(0, MAX_VALUE)
        for loc in locs if rng.random() < 0.5
    }

    test = LitmusTest(
        name=f"fuzz_{seed}_{iteration}",
        description=f"generated (seed={seed}, iteration={iteration})",
        layout=layout,
        threads=threads,
        gpu_waves=gpu_waves,
        dma=dma,
        init=init,
        postcondition=None,
    )
    test.validate()
    return test, generate_schedule(rng, profile)
