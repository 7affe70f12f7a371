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
from repro.mem.address import LINE_BYTES
from repro.protocol.types import DirState, MoesiState
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.system.apu import ApuSystem

# bound once: the checks run on every litmus transaction completion
_I = MoesiState.I
_S = MoesiState.S
_O = MoesiState.O
_EXCLUSIVE = (MoesiState.M, MoesiState.E)
_OWNING = (MoesiState.M, MoesiState.O, MoesiState.E)
_DIR_B = DirState.B
_DIR_I = DirState.I
_DIR_S = DirState.S
_DIR_O = DirState.O


class InvariantViolation(SimulationError):
    pass


class CoherenceMonitor(TransitionHook):
    """Attach with ``CoherenceMonitor(system)``; violations raise by default.

    Everything a check reads is resolved here, once: the directory banks
    (and which are §IV precise directories), every L2's and TCC's address
    index (read directly, without building a line per lookup), and the
    CorePairs by name.
    """

    def __init__(self, system: "ApuSystem", raise_on_violation: bool = True) -> None:
        self.system = system
        self.raise_on_violation = raise_on_violation
        self.checks_run = 0
        self.violations: list[str] = []
        self._banks = list(system.directories)
        self._precise = [isinstance(bank, PreciseDirectory) for bank in self._banks]
        self._l2_indexes = [(pair.name, pair.l2._index) for pair in system.corepairs]
        self._tcc_indexes = [(tcc.name, tcc.array._index) for tcc in system.tccs]
        self._corepairs = {pair.name: pair for pair in system.corepairs}
        for directory in self._banks:
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
        states = self._l2_states(addr)
        problems = self._check_moesi(states)
        bank = (addr // LINE_BYTES) % len(self._banks)
        if self._precise[bank]:
            problems.extend(self._check_directory(addr, self._banks[bank], states))
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
        for _name, index in self._l2_indexes + self._tcc_indexes:
            lines.update(index)
        for bank, precise in zip(self._banks, self._precise):
            if precise:
                lines.update(bank.dir_cache._index)
        problems: list[str] = []
        for addr in sorted(lines):
            problems.extend(self.check_line(addr))
        return problems

    # -- invariant bodies ------------------------------------------------------------

    def _l2_states(self, addr: int) -> dict[str, MoesiState]:
        states = {}
        for name, index in self._l2_indexes:
            line = index.get(addr)
            states[name] = _I if line is None else line.state
        return states

    def _check_moesi(self, states: dict[str, MoesiState]) -> list[str]:
        problems = []
        holders = {name: s for name, s in states.items() if s is not _I}
        exclusive = [n for n, s in holders.items() if s in _EXCLUSIVE]
        owners = [n for n, s in holders.items() if s is _O]
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

    def _check_directory(self, addr: int, directory: PreciseDirectory,
                         states: dict[str, MoesiState]) -> list[str]:
        state, entry = directory.snapshot_entry(addr)
        if state is _DIR_B:
            return []  # mid-eviction; nothing stable to assert
        holders = {n: s for n, s in states.items() if s is not _I}
        tcc_holders = [name for name, index in self._tcc_indexes if addr in index]
        problems = []
        if state is _DIR_I:
            if holders:
                problems.append(f"dir=I but L2 copies exist: {sorted(holders)}")
            if tcc_holders:
                problems.append("dir=I but the TCC holds the line")
        elif state is _DIR_S:
            bad = [n for n, s in holders.items() if s is not _S]
            if bad:
                problems.append(f"dir=S but non-shared L2 copies: {bad}")
        elif state is _DIR_O:
            assert entry is not None
            owner = entry.owner
            if owner is None:
                problems.append("dir=O without a tracked owner")
            else:
                owner_state = states.get(owner)
                owner_pair = self._corepairs.get(owner)
                vic_in_flight = (
                    owner_pair is not None and addr in owner_pair._vic_pending
                )
                if owner_state not in _OWNING and not vic_in_flight:
                    problems.append(
                        f"dir=O owner {owner} holds {owner_state} with no victim in flight"
                    )
            extra_exclusive = [
                n for n, s in holders.items()
                if s in _EXCLUSIVE and n != owner
            ]
            if extra_exclusive:
                problems.append(f"dir=O but non-owner M/E copies: {extra_exclusive}")
        if state in (_DIR_S, _DIR_O) and entry is not None:
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
