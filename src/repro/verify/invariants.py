"""Global coherence invariant monitoring.

A :class:`CoherenceMonitor` is a
:class:`~repro.coherence.engine.TransitionHook` attached to every directory
bank: whenever a Figure-2 transaction FSM transitions back to the unblocked
``"U"`` state (a transaction completing), it checks the *whole system's*
state for the affected line:

MOESI invariants over the CorePair L2 arrays:

- at most one cache holds the line in M or E;
- an M or E holder excludes every other readable copy;
- at most one cache holds the line in O (the designated owner).

Precise-directory consistency (when the system runs a §IV directory):

- ``I`` at the directory implies no L2 and no TCC holds the line;
- ``S`` implies no L2 holds it in M/O/E;
- ``O`` implies the tracked owner really holds it (in M/O/E, or has a
  victim in flight — the in-flight case the protocol resolves by capturing
  data through the probe ack);
- under sharer tracking, every L2 holding the line is tracked (owner,
  sharer, or covered by a limited-pointer overflow).

Transaction completions are the protocol's consistent points, which is why
checks run on transitions into ``"U"`` and not at arbitrary times.  (The
directory FSM hooks also fire Table I transitions, whose states are
:class:`~repro.protocol.types.DirState` members and never the string
``"U"``, so those do not trigger checks.)  The monitor assumes
``dma_updates_dir_state`` (the default); with it disabled the directory
intentionally keeps stale entries and the directory checks would misfire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coherence.engine import TransitionHook
from repro.coherence.precise import PreciseDirectory
from repro.protocol.types import DirState, MoesiState
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.system.apu import ApuSystem


class InvariantViolation(SimulationError):
    pass


class CoherenceMonitor(TransitionHook):
    """Attach with ``CoherenceMonitor(system)``; violations raise by default."""

    def __init__(self, system: "ApuSystem", raise_on_violation: bool = True) -> None:
        self.system = system
        self.raise_on_violation = raise_on_violation
        self.checks_run = 0
        self.violations: list[str] = []
        for directory in getattr(system, "directories", [system.directory]):
            directory.add_fsm_hook(self)

    # -- hooks ------------------------------------------------------------------

    def on_transition(self, controller, addr, state, event, next_state,
                      table=None) -> None:
        if next_state == "U":  # a Figure-2 transaction reaching its commit point
            self.check_line(addr)

    # -- checks ------------------------------------------------------------------

    def check_line(self, addr: int) -> list[str]:
        """Run every invariant for one line; returns (and records) failures."""
        self.checks_run += 1
        problems: list[str] = []
        problems.extend(self._check_moesi(addr))
        if isinstance(self._bank_of(addr), PreciseDirectory):
            problems.extend(self._check_directory(addr))
        if problems:
            self.violations.extend(problems)
            if self.raise_on_violation:
                raise InvariantViolation(
                    f"line {addr:#x} at t={self.system.sim.now}: " + "; ".join(problems)
                )
        return problems

    def check_all_tracked(self) -> list[str]:
        """End-of-run sweep over every line any cache or the directory holds."""
        lines: set[int] = set()
        for corepair in self.system.corepairs:
            lines.update(line.addr for line in corepair.l2.iter_valid())
        for tcc in self._tccs():
            lines.update(line.addr for line in tcc.array.iter_valid())
        for directory in self._banks():
            if isinstance(directory, PreciseDirectory):
                lines.update(
                    line.addr for line in directory.dir_cache.iter_valid()
                )
        problems: list[str] = []
        for addr in sorted(lines):
            problems.extend(self.check_line(addr))
        return problems

    def _banks(self):
        return getattr(self.system, "directories", [self.system.directory])

    def _tccs(self):
        return getattr(self.system, "tccs", [self.system.tcc])

    def _bank_of(self, addr: int):
        banks = self._banks()
        from repro.mem.address import LINE_BYTES

        return banks[(addr // LINE_BYTES) % len(banks)]

    # -- invariant bodies ------------------------------------------------------------

    def _l2_states(self, addr: int) -> dict[str, MoesiState]:
        return {
            corepair.name: corepair.peek_state(addr)
            for corepair in self.system.corepairs
        }

    def _check_moesi(self, addr: int) -> list[str]:
        states = self._l2_states(addr)
        problems = []
        holders = {name: s for name, s in states.items() if s is not MoesiState.I}
        exclusive = [n for n, s in holders.items() if s in (MoesiState.M, MoesiState.E)]
        owners = [n for n, s in holders.items() if s is MoesiState.O]
        if len(exclusive) > 1:
            problems.append(f"multiple M/E holders: {exclusive}")
        if exclusive and len(holders) > 1:
            problems.append(
                f"M/E holder {exclusive[0]} coexists with other copies: {sorted(holders)}"
            )
        if len(owners) > 1:
            problems.append(f"multiple O owners: {owners}")
        if owners and exclusive:
            problems.append(f"O owner {owners[0]} coexists with M/E {exclusive[0]}")
        return problems

    def _check_directory(self, addr: int) -> list[str]:
        directory: PreciseDirectory = self._bank_of(addr)  # type: ignore[assignment]
        state, entry = directory.snapshot_entry(addr)
        if state is DirState.B:
            return []  # mid-eviction; nothing stable to assert
        states = self._l2_states(addr)
        holders = {n: s for n, s in states.items() if s is not MoesiState.I}
        tcc_holders = [
            tcc.name for tcc in self._tccs()
            if tcc.array.lookup(addr, touch=False) is not None
        ]
        problems = []
        if state is DirState.I:
            if holders:
                problems.append(f"dir=I but L2 copies exist: {sorted(holders)}")
            if tcc_holders:
                problems.append("dir=I but the TCC holds the line")
        elif state is DirState.S:
            bad = [n for n, s in holders.items() if s is not MoesiState.S]
            if bad:
                problems.append(f"dir=S but non-shared L2 copies: {bad}")
        elif state is DirState.O:
            assert entry is not None
            owner = entry.owner
            if owner is None:
                problems.append("dir=O without a tracked owner")
            else:
                owner_state = states.get(owner)
                owner_pair = self._corepair(owner)
                vic_in_flight = (
                    owner_pair is not None and addr in owner_pair._vic_pending
                )
                if owner_state not in (MoesiState.M, MoesiState.O, MoesiState.E) and not vic_in_flight:
                    problems.append(
                        f"dir=O owner {owner} holds {owner_state} with no victim in flight"
                    )
            extra_exclusive = [
                n for n, s in holders.items()
                if s in (MoesiState.M, MoesiState.E) and n != owner
            ]
            if extra_exclusive:
                problems.append(f"dir=O but non-owner M/E copies: {extra_exclusive}")
        if state in (DirState.S, DirState.O) and entry is not None:
            problems.extend(self._check_tracking(entry, holders, tcc_holders))
        return problems

    def _check_tracking(self, entry, l2_holders, tcc_holders) -> list[str]:
        """Every L2 or TCC holder must be a tracked sharer or the owner —
        a holder outside the list is a copy a multicast would miss."""
        if not entry.multicast_possible:
            return []  # owner-only mode / overflow: identities unknown
        tracked = entry.sharer_names()
        if entry.owner is not None:
            tracked.append(entry.owner)
        problems = []
        for kind, holders in (("L2", l2_holders), ("TCC", tcc_holders)):
            untracked = [name for name in holders if name not in tracked]
            if untracked:
                problems.append(
                    f"untracked {kind} holders {untracked} (tracked: {tracked})"
                )
        return problems

    def _corepair(self, name: str):
        for corepair in self.system.corepairs:
            if corepair.name == name:
                return corepair
        return None
