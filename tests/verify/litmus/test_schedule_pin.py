"""Schedule pin: litmus runs must keep the exact event order on record.

Each case runs one litmus under one schedule with the protocol trace on
and compares its fingerprint -- registers, final memory, ticks,
executed-event count and the SHA-256 of the trace text -- against
``schedule_pin.json``.  The pinned fingerprints were recorded on the
calendar-queue kernel that preceded the single heap :class:`EventQueue`,
so this pin carries that kernel's ``(time, priority, seq)`` order
forward: a kernel or fabric change that reorders even one same-tick
event moves the trace hash or the event count.

The cases cover the canonical schedule, jittered latencies with the
seeded tie-break, the contended fabric, and the bounded fabric with
credits and the watchdog armed.

Regenerate (only for a deliberate model change, stated in CHANGES.md)::

    PYTHONPATH=src python tests/verify/litmus/test_schedule_pin.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.verify.litmus import Schedule, get_litmus, run_litmus

PIN_PATH = pathlib.Path(__file__).with_name("schedule_pin.json")

#: canonical plus perturbed schedules: jitter moves events onto other
#: ticks, the seeded tie-break permutes same-tick order
SCHEDULES = [
    Schedule(0),
    Schedule(1, jitter_cycles=4, tie_break=True),
    Schedule(5, jitter_cycles=2, tie_break=True),
]

LITMUS_NAMES = ["mp", "sb", "dirty_handoff", "atomic_chain"]

#: ``(litmus, schedule)`` for every pinned run
CASES = [(name, schedule) for name in LITMUS_NAMES for schedule in SCHEDULES] + [
    # contended fabric: port and arbiter events pile onto shared ticks
    ("mp", Schedule(3, jitter_cycles=2, tie_break=True, link_bytes_per_cycle=8)),
    # bounded fabric: credit parking and hand-off under the tie-break
    ("bp_dma_burst", Schedule(7, tie_break=True, link_bytes_per_cycle=8,
                              input_queue_depth=4,
                              watchdog_window_cycles=100_000.0)),
]


def case_id(name: str, schedule: Schedule) -> str:
    return f"{name}@{schedule.label()}"


def fingerprint(name: str, schedule: Schedule) -> dict:
    """Run one litmus with the trace on; return everything observable."""
    systems = []
    outcome = run_litmus(
        get_litmus(name), schedule=schedule, trace=True, trace_capacity=50_000,
        mutate_system=systems.append,
    )
    assert outcome.ok, outcome.describe()
    return {
        "regs": {reg: outcome.regs[reg] for reg in sorted(outcome.regs)},
        "final_memory": {loc: outcome.final_memory[loc]
                         for loc in sorted(outcome.final_memory)},
        "ticks": outcome.ticks,
        "events": systems[0].sim.events.executed_events,
        "trace_sha256": hashlib.sha256(outcome.trace_text.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PIN_PATH.read_text())


def test_pin_covers_every_case(pinned):
    assert sorted(pinned) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("name,schedule", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_run_matches_pin(pinned, name, schedule):
    assert fingerprint(name, schedule) == pinned[case_id(name, schedule)]


def write_pin() -> None:
    pins = {case_id(*case): fingerprint(*case) for case in CASES}
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} fingerprints to {PIN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    write_pin()
