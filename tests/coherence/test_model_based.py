"""Model-based checking of the precise directory against a golden model.

A small pure-Python reference implementation of the Table I state machine
(`GoldenDirectory`) is driven with the same randomized request sequences as
the real directory (through the harness, with fake caches that *behave
consistently* — they track the MOESI state the protocol gives them and
answer probes accordingly).  After every quiesced step the real directory's
(state, owner, sharers) must match the model exactly.

This checks the directory's bookkeeping logic independently of timing,
complementing the system-level random stress test.

The driver is additionally *table-aware*: for every request it issues, the
observed (prior state, request, settled state) step must be one of the
transitions the shipped Table I :class:`TransitionTable` declares — so the
randomized exploration also certifies that no run ever leaves the declared
table, and the golden model, the implementation, and the declarations are
checked against each other in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.policies import PRESETS
from repro.mem.block import ZERO_LINE
from repro.protocol.types import DirState, MoesiState, MsgType

from tests.coherence.engine_helpers import declared_nexts
from tests.coherence.harness import DirHarness

ADDR = 0xD000
L2S = ["l2.0", "l2.1", "l2.2"]


# -- the golden model of Table I -------------------------------------------------


@dataclass
class GoldenLine:
    state: DirState = DirState.I
    owner: str | None = None
    sharers: set[str] = field(default_factory=set)


class GoldenDirectory:
    """Reference Table I transitions, plus the cache-side MOESI shadow."""

    def __init__(self) -> None:
        self.line = GoldenLine()
        #: shadow of each L2's MOESI state for the line
        self.cache: dict[str, MoesiState] = {name: MoesiState.I for name in L2S}

    def rdblk(self, requester: str) -> None:
        line = self.line
        if line.state is DirState.I:
            line.state = DirState.O
            line.owner = requester
            line.sharers = set()
            self.cache[requester] = MoesiState.E
        elif line.state is DirState.S:
            line.sharers.add(requester)
            self.cache[requester] = MoesiState.S
        else:  # O
            owner_state = self.cache[line.owner]
            if owner_state in (MoesiState.M, MoesiState.O):
                self.cache[line.owner] = MoesiState.O
                line.sharers.add(requester)
                self.cache[requester] = MoesiState.S
            else:  # E owner: downgrades clean, line becomes S
                self.cache[line.owner] = MoesiState.S
                line.sharers = {line.owner, requester}
                line.owner = None
                line.state = DirState.S
                self.cache[requester] = MoesiState.S

    def rdblks(self, requester: str) -> None:
        line = self.line
        if line.state is DirState.I:
            line.state = DirState.S
            line.sharers = {requester}
        elif line.state is DirState.S:
            line.sharers.add(requester)
        else:  # O
            owner_state = self.cache[line.owner]
            if owner_state in (MoesiState.M, MoesiState.O):
                self.cache[line.owner] = MoesiState.O
                line.sharers.add(requester)
            else:
                self.cache[line.owner] = MoesiState.S
                line.sharers = {line.owner, requester}
                line.owner = None
                line.state = DirState.S
        self.cache[requester] = MoesiState.S

    def rdblkm(self, requester: str) -> None:
        line = self.line
        for name in L2S:
            if name != requester:
                self.cache[name] = MoesiState.I
        line.state = DirState.O
        line.owner = requester
        line.sharers = set()
        self.cache[requester] = MoesiState.M

    def store_hit(self, requester: str) -> bool:
        """Silent E->M; returns False if the cache needs RdBlkM instead."""
        if self.cache[requester] in (MoesiState.M, MoesiState.E):
            self.cache[requester] = MoesiState.M
            return True
        return False

    def vic(self, requester: str) -> bool:
        """Evict the requester's copy; returns False if it holds nothing."""
        line = self.line
        state = self.cache[requester]
        if state is MoesiState.I:
            return False
        self.cache[requester] = MoesiState.I
        if line.state is DirState.O and line.owner == requester:
            line.owner = None
            if line.sharers:
                line.state = DirState.S
            else:
                line.state = DirState.I
        elif line.state is DirState.S:
            line.sharers.discard(requester)
            if not line.sharers:
                line.state = DirState.I
        else:  # sharer of an O line
            line.sharers.discard(requester)
        return True

    def atomic(self) -> None:
        for name in L2S:
            self.cache[name] = MoesiState.I
        self.line = GoldenLine()


# -- the driver ---------------------------------------------------------------------


class ConsistentCaches:
    """Keeps the harness's fake caches answering probes per their MOESI state."""

    def __init__(self, harness: DirHarness, golden: GoldenDirectory) -> None:
        self.h = harness
        self.golden = golden
        #: the shipped Table I declarations — every observed step must be in it
        self.table1 = harness.directory.table1

    def sync_probe_behaviors(self) -> None:
        for index, name in enumerate(L2S):
            state = self.golden.cache[name]
            cache = self.h.l2s[index]
            if state in (MoesiState.M, MoesiState.O):
                cache.behave(ADDR, had_copy=True, dirty=True,
                             data=ZERO_LINE.with_word(0, 1))
            elif state in (MoesiState.E, MoesiState.S):
                cache.behave(ADDR, had_copy=True, dirty=False)
            else:
                cache.probe_behavior.pop(ADDR, None)

    def _issue(self, requester, mtype: MsgType, **kwargs) -> None:
        """Issue one request and check the step stays inside the table."""
        prior, _ = self.h.directory.snapshot_entry(ADDR)
        requester.request(mtype, ADDR, **kwargs)
        self.h.run()
        settled, _ = self.h.directory.snapshot_entry(ADDR)
        declared = declared_nexts(self.table1, prior, mtype.value)
        assert settled in declared, (
            f"({prior}, {mtype.value}) settled in {settled}, "
            f"not among declared next-states {declared}"
        )

    def step(self, action: tuple[str, int]) -> None:
        kind, who = action
        requester = self.h.l2s[who]
        golden = self.golden
        if kind == "rdblk":
            if golden.cache[L2S[who]] is not MoesiState.I:
                return  # a holder never re-requests (footnote a)
            self.sync_probe_behaviors()
            self._issue(requester, MsgType.RDBLK)
            golden.rdblk(L2S[who])
        elif kind == "rdblks":
            if golden.cache[L2S[who]] is not MoesiState.I:
                return
            self.sync_probe_behaviors()
            self._issue(requester, MsgType.RDBLKS)
            golden.rdblks(L2S[who])
        elif kind == "store":
            if golden.store_hit(L2S[who]):
                return  # silent E->M: no directory interaction
            self.sync_probe_behaviors()
            self._issue(requester, MsgType.RDBLKM)
            golden.rdblkm(L2S[who])
        elif kind == "vic":
            state = golden.cache[L2S[who]]
            if state is MoesiState.I:
                return
            dirty = state in (MoesiState.M, MoesiState.O)
            golden.vic(L2S[who])
            mtype = MsgType.VIC_DIRTY if dirty else MsgType.VIC_CLEAN
            self._issue(requester, mtype, data=ZERO_LINE.with_word(0, 1))
        elif kind == "atomic":
            from repro.protocol.atomics import AtomicOp

            self.sync_probe_behaviors()
            golden.atomic()
            self._issue(self.h.tcc, MsgType.ATOMIC, atomic_op=AtomicOp.INC, word=0)

    def assert_matches(self) -> None:
        state, entry = self.h.directory.snapshot_entry(ADDR)
        golden = self.golden.line
        assert state == golden.state, (state, golden)
        if state is DirState.O:
            assert entry.owner == golden.owner, (entry, golden)
        if state in (DirState.S, DirState.O) and entry.sharers is not None:
            assert set(entry.sharer_names()) == golden.sharers, (entry, golden)


ACTIONS = st.tuples(
    st.sampled_from(["rdblk", "rdblks", "store", "vic", "atomic"]),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ACTIONS, min_size=1, max_size=20))
def test_precise_directory_matches_golden_model(actions):
    harness = DirHarness(policy=PRESETS["sharers"], num_l2s=3)
    golden = GoldenDirectory()
    driver = ConsistentCaches(harness, golden)
    for action in actions:
        driver.step(action)
        driver.assert_matches()


@pytest.mark.parametrize("sequence", [
    # directed regressions distilled from the model (readable corner cases)
    [("rdblk", 0), ("rdblk", 1), ("vic", 0), ("vic", 1)],
    [("rdblk", 0), ("store", 0), ("rdblk", 1), ("vic", 0)],
    [("rdblks", 0), ("rdblks", 1), ("store", 2), ("vic", 2)],
    [("store", 0), ("rdblk", 1), ("store", 1), ("atomic", 0)],
    [("rdblk", 0), ("store", 0), ("rdblks", 1), ("vic", 1), ("vic", 0)],
])
def test_directed_sequences(sequence):
    harness = DirHarness(policy=PRESETS["sharers"], num_l2s=3)
    golden = GoldenDirectory()
    driver = ConsistentCaches(harness, golden)
    for action in sequence:
        driver.step(action)
        driver.assert_matches()
