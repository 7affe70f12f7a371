"""Unit tests for the declarative protocol engine itself.

Everything here runs on tiny synthetic tables — the behavior of the real
protocol tables is covered by the coherence suites; this file pins the
engine's contract: declaration checking, guard selection, illegal-pair
enforcement, next-state verification, hook dispatch, and the three static
lint checks behind ``repro lint-protocol``.
"""

from __future__ import annotations

import pytest

from repro.coherence.engine import ProtocolError, TransitionTable, state_label

from tests.coherence.engine_helpers import RecordingHook, declared_nexts


class Owner:
    """Minimal controller stand-in: a name and a hook tuple."""

    def __init__(self, name: str = "ctl") -> None:
        self.name = name
        self.fsm_hooks: tuple = ()

    def add_fsm_hook(self, hook) -> None:
        self.fsm_hooks = self.fsm_hooks + (hook,)


def drain_table() -> TransitionTable:
    """A two-state toy protocol: Idle pumps up to Busy, Busy drains down."""
    table = TransitionTable("toy", ("Idle", "Busy"), ("pump", "drain"), "Idle")
    table.on("Idle", "pump", "Busy")
    table.on("Busy", "drain", "Idle")
    table.illegal("Idle", "drain", note="nothing to drain")
    table.illegal("Busy", "pump", note="already pumping")
    return table


class TestDeclaration:
    def test_unknown_labels_rejected(self):
        table = TransitionTable("t", ("A",), ("e",), "A")
        with pytest.raises(ValueError, match="unknown state"):
            table.on("B", "e", "A")
        with pytest.raises(ValueError, match="unknown event"):
            table.on("A", "x", "A")
        with pytest.raises(ValueError, match="unknown next state"):
            table.on("A", "e", "B")

    def test_initial_must_be_a_state(self):
        with pytest.raises(ValueError, match="initial state"):
            TransitionTable("t", ("A",), ("e",), "B")

    def test_row_after_unguarded_row_rejected(self):
        table = TransitionTable("t", ("A",), ("e",), "A")
        table.on("A", "e", "A")
        with pytest.raises(ValueError, match="unguarded"):
            table.on("A", "e", "A")

    def test_guarded_rows_stack(self):
        table = TransitionTable("t", ("A", "B"), ("e",), "A")
        table.on("A", "e", "A", guard=lambda owner, ctx: False)
        table.on("A", "e", "B")  # unguarded fallback after a guard is fine
        assert len(table.lookup("A", "e")) == 2
        assert declared_nexts(table, "A", "e") == ("A", "B")

    def test_iterable_labels_fan_out(self):
        table = TransitionTable("t", ("A", "B"), ("e", "f"), "A")
        table.on(("A", "B"), ("e", "f"), "A")
        assert sum(1 for _ in table.transitions()) == 4

    def test_replace_overlays_a_row(self):
        table = drain_table()
        overlay = table.copy("toy-overlay")
        overlay.replace("Busy", "drain", "Busy", overlay="keep-busy")
        assert declared_nexts(overlay, "Busy", "drain") == ("Busy",)
        # the base table is untouched
        assert declared_nexts(table, "Busy", "drain") == ("Idle",)


class TestLint:
    def test_clean_table(self):
        report = drain_table().lint()
        assert report == {"unhandled": [], "unreachable": [], "dead": []}

    def test_unhandled_pair_reported(self):
        table = TransitionTable("t", ("A",), ("e", "f"), "A")
        table.on("A", "e", "A")
        assert table.unhandled_pairs() == [("A", "f")]

    def test_unreachable_state_and_dead_transition_reported(self):
        table = TransitionTable("t", ("A", "B", "C"), ("e",), "A")
        table.on("A", "e", "A")
        table.on("C", "e", "A")  # C is never a next-state: dead row
        table.illegal("B", "e")
        assert table.unreachable_states() == ["B", "C"]
        assert [t.state for t in table.dead_transitions()] == ["C"]

    def test_shipped_tables_are_clean(self):
        """The CI gate: every table variant a policy preset can build."""
        from repro.coherence.lint import lint_tables

        text, clean = lint_tables()
        assert clean, text


class TestProtocolFSM:
    """Dispatch through :meth:`TransitionTable.fire`: the caller passes the
    line's state and stores the returned next state."""

    def test_fire_advances_and_returns_next(self):
        table = drain_table()
        state = table.fire("Idle", "pump", Owner(), 0x40)
        assert state == "Busy"
        assert table.fire(state, "drain", Owner(), 0x40) == "Idle"

    def test_illegal_pair_raises(self):
        with pytest.raises(ProtocolError, match="nothing to drain"):
            drain_table().fire("Idle", "drain", Owner(), 0x40)

    def test_undeclared_pair_raises(self):
        table = TransitionTable("t", ("A",), ("e", "f"), "A")
        table.on("A", "e", "A")
        with pytest.raises(ProtocolError, match="unhandled event"):
            table.fire("A", "f", Owner(), 0)

    def test_guards_select_in_declaration_order(self):
        table = TransitionTable("t", ("A", "B", "C"), ("e",), "A")
        table.on("A", "e", "B", guard=lambda owner, ctx: ctx in ("b", "bc"))
        table.on("A", "e", "C", guard=lambda owner, ctx: ctx in ("c", "bc"))
        assert table.fire("A", "e", Owner(), 0, ctx="c") == "C"
        assert table.fire("A", "e", Owner(), 0, ctx="b") == "B"
        assert table.fire("A", "e", Owner(), 0, ctx="bc") == "B"  # first wins

    def test_no_guard_match_raises(self):
        table = TransitionTable("t", ("A", "B"), ("e",), "A")
        table.on("A", "e", "B", guard=lambda owner, ctx: False)
        with pytest.raises(ProtocolError, match="no guard matched"):
            table.fire("A", "e", Owner(), 0)

    def test_action_result_must_be_declared(self):
        table = TransitionTable("t", ("A", "B", "C"), ("e",), "A")
        table.on("A", "e", ("B",), action=lambda owner, ctx: "C")
        with pytest.raises(ProtocolError, match="undeclared state"):
            table.fire("A", "e", Owner(), 0)

    def test_action_returning_none_needs_single_next(self):
        table = TransitionTable("t", ("A", "B", "C"), ("e",), "A")
        table.on("A", "e", ("B", "C"), action=lambda owner, ctx: None)
        with pytest.raises(ProtocolError, match="must\nreturn one|must return one"):
            table.fire("A", "e", Owner(), 0)

    def test_action_receives_owner_and_ctx(self):
        seen = []
        table = TransitionTable("t", ("A",), ("e",), "A")
        table.on("A", "e", "A",
                 action=lambda owner, ctx: seen.append((owner, ctx)) or "A")
        owner = Owner()
        table.fire("A", "e", owner, 0, ctx={"k": 1})
        assert seen == [(owner, {"k": 1})]


class TestHooks:
    def test_recording_hook_sees_every_transition(self):
        owner = Owner("dir0")
        hook = RecordingHook()
        owner.add_fsm_hook(hook)
        table = drain_table()
        state = table.fire("Idle", "pump", owner, 0x80)
        table.fire(state, "drain", owner, 0x80)
        assert hook.records == [
            ("dir0", 0x80, "Idle", "pump", "Busy"),
            ("dir0", 0x80, "Busy", "drain", "Idle"),
        ]
        assert hook.sequence(addr=0x80) == [
            ("Idle", "pump", "Busy"), ("Busy", "drain", "Idle"),
        ]
        assert hook.sequence(addr=0x40) == []

    def test_multiple_hooks_all_dispatch(self):
        owner = Owner()
        first, second = RecordingHook(), RecordingHook()
        owner.add_fsm_hook(first)
        owner.add_fsm_hook(second)
        drain_table().fire("Idle", "pump", owner, 0)
        assert len(first.records) == len(second.records) == 1

    def test_hooks_do_not_run_when_dispatch_raises(self):
        owner = Owner()
        hook = RecordingHook()
        owner.add_fsm_hook(hook)
        with pytest.raises(ProtocolError):
            drain_table().fire("Idle", "drain", owner, 0)
        assert hook.records == []


class TestStateLabel:
    def test_enum_and_string_labels(self):
        from repro.protocol.types import DirState

        assert state_label(DirState.O) == "O"
        assert state_label("B_PM") == "B_PM"
