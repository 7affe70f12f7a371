"""Unit tests for the last-level cache model."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.llc import LastLevelCache
from repro.mem.block import ZERO_LINE

from tests.coherence.harness import dirty_in_llc


def line_with(value: int):
    return ZERO_LINE.with_word(0, value)


def tiny(writeback: bool = False) -> LastLevelCache:
    return LastLevelCache(size_bytes=256, assoc=2, writeback=writeback)


class TestVictimCacheNature:
    def test_read_miss_never_allocates(self):
        llc = tiny()
        hit, data = llc.read(0x40)
        assert not hit and data is None
        assert not llc.holds(0x40)
        assert llc.stats["read_misses"] == 1

    def test_fills_only_on_victim_writes(self):
        llc = tiny()
        llc.write_victim(0x40, line_with(1), dirty=False)
        hit, data = llc.read(0x40)
        assert hit
        assert data.word(0) == 1
        assert llc.stats["read_hits"] == 1

    def test_victim_write_updates_existing_line(self):
        llc = tiny()
        llc.write_victim(0x40, line_with(1), dirty=False)
        llc.write_victim(0x40, line_with(2), dirty=False)
        assert llc.peek(0x40).word(0) == 2

    def test_set_conflict_displaces(self):
        llc = LastLevelCache(size_bytes=128, assoc=1)
        llc.write_victim(0x0, line_with(1), dirty=False)
        displaced = llc.write_victim(0x80, line_with(2), dirty=False)  # same set
        assert displaced is None  # clean displacement needs no write-back
        assert not llc.holds(0x0)


class TestWriteThroughMode:
    def test_dirty_flag_ignored(self):
        llc = tiny(writeback=False)
        llc.write_victim(0x40, line_with(1), dirty=True)
        assert not dirty_in_llc(llc, 0x40)

    def test_displaced_line_never_needs_memory_write(self):
        llc = LastLevelCache(size_bytes=128, assoc=1, writeback=False)
        llc.write_victim(0x0, line_with(1), dirty=True)
        displaced = llc.write_victim(0x80, line_with(2), dirty=True)
        assert displaced is None


class TestWriteBackMode:
    def test_dirty_bit_set_by_dirty_victim(self):
        llc = tiny(writeback=True)
        llc.write_victim(0x40, line_with(1), dirty=True)
        assert dirty_in_llc(llc, 0x40)

    def test_sticky_dirty_bit(self):
        """A clean victim over a dirty LLC line must not clear dirtiness —
        memory is still stale (§III-C)."""
        llc = tiny(writeback=True)
        llc.write_victim(0x40, line_with(1), dirty=True)
        llc.write_victim(0x40, line_with(1), dirty=False)
        assert dirty_in_llc(llc, 0x40)

    def test_dirty_displacement_returned_for_memory_writeback(self):
        llc = LastLevelCache(size_bytes=128, assoc=1, writeback=True)
        llc.write_victim(0x0, line_with(1), dirty=True)
        displaced = llc.write_victim(0x80, line_with(2), dirty=False)
        assert displaced is not None
        assert displaced.addr == 0x0
        assert displaced.dirty
        assert displaced.data.word(0) == 1
        assert llc.stats["dirty_evictions"] == 1

    def test_invalidate_returns_dirty_copy(self):
        llc = tiny(writeback=True)
        llc.write_victim(0x40, line_with(1), dirty=True)
        dropped = llc.invalidate(0x40)
        assert dropped is not None and dropped.dirty
        assert llc.invalidate(0x40) is None

    def test_invalidate_clean_returns_none(self):
        llc = tiny(writeback=True)
        llc.write_victim(0x40, line_with(1), dirty=False)
        assert llc.invalidate(0x40) is None


class TestWriteThroughPath:
    def test_write_through_allocates(self):
        llc = tiny()
        llc.write_through(0x40, line_with(3), dirty=False)
        assert llc.holds(0x40)
        assert llc.stats["wt_writes"] == 1

    def test_write_through_dirty_in_wb_mode(self):
        llc = tiny(writeback=True)
        llc.write_through(0x40, line_with(3), dirty=True)
        assert dirty_in_llc(llc, 0x40)

    def test_apply_words_updates_only_on_hit(self):
        llc = tiny()
        assert not llc.apply_words(0x40, {2: 9}, dirty=False)
        llc.write_victim(0x40, line_with(1), dirty=False)
        assert llc.apply_words(0x40, {2: 9}, dirty=False)
        line = llc.peek(0x40)
        assert line.word(0) == 1
        assert line.word(2) == 9

    def test_update_in_place_never_allocates(self):
        llc = tiny()
        assert not llc.update_in_place(0x40, line_with(1), dirty=False)
        assert not llc.holds(0x40)


class TestProperties:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),  # line number
                st.booleans(),                           # dirty
            ),
            min_size=1, max_size=60,
        )
    )
    def test_wb_mode_every_displacement_is_dirty_or_silent(self, writes):
        """Write-back LLC: displaced lines returned for memory write-back
        are exactly the dirty ones, and dirtiness is never lost silently."""
        llc = LastLevelCache(size_bytes=256, assoc=2, writeback=True)
        shadow_dirty: dict[int, bool] = {}
        written_back = []
        for line_no, dirty in writes:
            addr = line_no * 64
            displaced = llc.write_victim(addr, line_with(line_no), dirty=dirty)
            shadow_dirty[addr] = shadow_dirty.get(addr, False) or dirty
            if not llc.holds(addr):
                # our own line displaced immediately is impossible
                raise AssertionError("fresh victim not resident")
            if displaced is not None:
                written_back.append(displaced.addr)
                assert displaced.dirty
                shadow_dirty.pop(displaced.addr, None)
        # every still-resident line's dirty bit matches the shadow model
        for addr, dirty in shadow_dirty.items():
            if llc.holds(addr):
                assert dirty_in_llc(llc, addr) == dirty, hex(addr)
