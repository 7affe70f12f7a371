"""Test helpers over the protocol engine: a hook that records every
transition, and the union of a table cell's declared next states."""

from __future__ import annotations

from repro.coherence.engine import TransitionHook, TransitionTable, state_label


class RecordingHook(TransitionHook):
    """Appends ``(controller_name, addr, state, event, next_state)`` tuples
    to :attr:`records`."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def on_transition(self, controller, addr, state, event, next_state,
                      table=None) -> None:
        self.records.append((controller.name, addr, state, event, next_state))

    def sequence(self, addr: int | None = None) -> list[tuple]:
        """The (state, event, next_state) triples, optionally per-address."""
        return [
            (state_label(state), event, state_label(next_state))
            for name, a, state, event, next_state in self.records
            if addr is None or a == addr
        ]


def declared_nexts(table: TransitionTable, state, event) -> tuple:
    """Union of next-states over all rows of ``(state, event)``, in row order."""
    nexts: list = []
    for transition in table.lookup(state, event):
        for nxt in transition.next_states:
            if nxt not in nexts:
                nexts.append(nxt)
    return tuple(nexts)
