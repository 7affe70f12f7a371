"""Unit tests for the coherence invariant monitor.

The monitor is validated in two directions: it stays silent on every legal
run (covered throughout the suite via ``verify=True``), and here — it must
*fire* when we corrupt cache state by hand.
"""

from __future__ import annotations

import pytest

from repro import SystemConfig, build_system
from repro.coherence.policies import PRESETS
from repro.mem.block import ZERO_LINE
from repro.protocol.types import DirState, MoesiState, ViState
from repro.verify.invariants import CoherenceMonitor, InvariantViolation

ADDR = 0x8000


def make_system(policy="sharers"):
    system = build_system(SystemConfig.small(policy=PRESETS[policy]))
    monitor = CoherenceMonitor(system)
    return system, monitor


class TestMoesiInvariants:
    def test_clean_system_passes(self):
        system, monitor = make_system()
        assert monitor.check_line(ADDR) == []

    def test_two_modified_holders_flagged(self):
        system, monitor = make_system()
        system.corepairs[0].l2.install(ADDR, state=MoesiState.M, data=ZERO_LINE)
        system.corepairs[1].l2.install(ADDR, state=MoesiState.M, data=ZERO_LINE)
        with pytest.raises(InvariantViolation, match="multiple M/E holders"):
            monitor.check_line(ADDR)

    def test_exclusive_with_sharer_flagged(self):
        system, monitor = make_system()
        system.corepairs[0].l2.install(ADDR, state=MoesiState.E, data=ZERO_LINE)
        system.corepairs[1].l2.install(ADDR, state=MoesiState.S, data=ZERO_LINE)
        with pytest.raises(InvariantViolation, match="coexists"):
            monitor.check_line(ADDR)

    def test_two_owners_flagged(self):
        system, monitor = make_system()
        system.corepairs[0].l2.install(ADDR, state=MoesiState.O, data=ZERO_LINE)
        system.corepairs[1].l2.install(ADDR, state=MoesiState.O, data=ZERO_LINE)
        with pytest.raises(InvariantViolation, match="multiple O owners"):
            monitor.check_line(ADDR)

    def test_owner_with_sharers_is_legal(self):
        system, monitor = make_system()
        # track them at the directory so the precise check passes too
        directory = system.directory
        line, _ = directory.dir_cache.install(
            ADDR, state=DirState.O, meta=directory._new_entry()
        )
        line.meta.owner = system.corepairs[0].name
        line.meta.add_sharer(system.corepairs[1].name)
        system.corepairs[0].l2.install(ADDR, state=MoesiState.O, data=ZERO_LINE)
        system.corepairs[1].l2.install(ADDR, state=MoesiState.S, data=ZERO_LINE)
        assert monitor.check_line(ADDR) == []


class TestDirectoryInvariants:
    def test_dir_i_with_cached_copy_flagged(self):
        system, monitor = make_system()
        system.corepairs[0].l2.install(ADDR, state=MoesiState.S, data=ZERO_LINE)
        with pytest.raises(InvariantViolation, match="dir=I but L2 copies"):
            monitor.check_line(ADDR)

    def test_dir_s_with_modified_copy_flagged(self):
        system, monitor = make_system()
        directory = system.directory
        line, _ = directory.dir_cache.install(
            ADDR, state=DirState.S, meta=directory._new_entry()
        )
        line.meta.add_sharer(system.corepairs[0].name)
        system.corepairs[0].l2.install(ADDR, state=MoesiState.M, data=ZERO_LINE)
        with pytest.raises(InvariantViolation, match="dir=S but non-shared"):
            monitor.check_line(ADDR)

    def test_dir_o_with_absent_owner_flagged(self):
        system, monitor = make_system()
        directory = system.directory
        line, _ = directory.dir_cache.install(
            ADDR, state=DirState.O, meta=directory._new_entry()
        )
        line.meta.owner = system.corepairs[0].name
        with pytest.raises(InvariantViolation, match="holds MoesiState.I"):
            monitor.check_line(ADDR)

    def test_untracked_holder_flagged(self):
        system, monitor = make_system()
        directory = system.directory
        line, _ = directory.dir_cache.install(
            ADDR, state=DirState.S, meta=directory._new_entry()
        )
        line.meta.add_sharer(system.corepairs[0].name)
        system.corepairs[0].l2.install(ADDR, state=MoesiState.S, data=ZERO_LINE)
        system.corepairs[1].l2.install(ADDR, state=MoesiState.S, data=ZERO_LINE)
        with pytest.raises(InvariantViolation, match="untracked L2 holders"):
            monitor.check_line(ADDR)

    def test_untracked_tcc_holder_flagged(self):
        """A TCC copy the sharer list misses is one a multicast
        invalidation would leave behind."""
        system, monitor = make_system()
        directory, tcc = system.directory, system.tcc
        line, _ = directory.dir_cache.install(
            ADDR, state=DirState.S, meta=directory._new_entry()
        )
        line.meta.add_sharer(system.corepairs[0].name)
        line.meta.add_sharer(tcc.name)
        system.corepairs[0].l2.install(ADDR, state=MoesiState.S, data=ZERO_LINE)
        tcc.array.install(ADDR, state=ViState.V, data=ZERO_LINE)
        assert monitor.check_line(ADDR) == []
        line.meta.remove_sharer(tcc.name)
        with pytest.raises(InvariantViolation, match="untracked TCC holders"):
            monitor.check_line(ADDR)

    def test_b_state_is_skipped(self):
        system, monitor = make_system()
        directory = system.directory
        directory.dir_cache.install(ADDR, state=DirState.B, meta=directory._new_entry())
        # anything goes mid-eviction; the monitor must not fire
        system.corepairs[0].l2.install(ADDR, state=MoesiState.M, data=ZERO_LINE)
        assert monitor.check_line(ADDR) == []


class TestCollectMode:
    def test_non_raising_mode_collects(self):
        system = build_system(SystemConfig.small(policy=PRESETS["sharers"]))
        monitor = CoherenceMonitor(system, raise_on_violation=False)
        system.corepairs[0].l2.install(ADDR, state=MoesiState.M, data=ZERO_LINE)
        system.corepairs[1].l2.install(ADDR, state=MoesiState.M, data=ZERO_LINE)
        problems = monitor.check_line(ADDR)
        assert problems
        assert monitor.violations == problems

    def test_check_all_tracked_sweeps_everything(self):
        system, monitor = make_system()
        assert monitor.check_all_tracked() == []
