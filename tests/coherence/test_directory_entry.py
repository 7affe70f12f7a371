"""Unit and property tests for directory tracking entries."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.coherence.directory_entry import DirEntry

NAMES = [f"l2.{i}" for i in range(8)]
BITS = {name: 1 << index for index, name in enumerate(NAMES)}


class TestFullMap:
    def test_add_and_remove(self):
        entry = DirEntry(BITS)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")
        assert entry.sharer_names() == ["l2.0", "l2.1"]
        assert entry.sharer_count == 2
        entry.remove_sharer("l2.0")
        assert entry.sharer_names() == ["l2.1"]
        assert entry.sharer_count == 1

    def test_duplicate_add_does_not_double_count(self):
        entry = DirEntry(BITS)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.0")
        assert entry.sharer_count == 1

    def test_remove_absent_is_noop(self):
        entry = DirEntry(BITS)
        entry.remove_sharer("l2.9")
        assert entry.sharer_count == 0

    def test_multicast_possible_without_overflow(self):
        entry = DirEntry(BITS)
        entry.add_sharer("l2.0")
        assert entry.multicast_possible


class TestLimitedPointer:
    def test_overflow_sets_flag_and_forces_broadcast(self):
        entry = DirEntry(BITS, pointer_limit=2)
        for name in ("l2.0", "l2.1", "l2.2"):
            entry.add_sharer(name)
        assert entry.overflow
        assert not entry.multicast_possible
        assert entry.sharer_count == 3
        assert entry.sharer_names() == ["l2.0", "l2.1"]  # two pointers

    def test_is_sharer_conservative_after_overflow(self):
        entry = DirEntry(BITS, pointer_limit=1)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")  # overflows
        # untracked names are conservatively possible sharers
        assert entry.is_sharer("l2.7")


class TestOwnerOnlyMode:
    def test_counts_without_identities(self):
        entry = DirEntry(None)
        assert entry.sharers is None
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")
        assert entry.sharer_count == 2
        assert entry.is_sharer("anything")
        entry.remove_sharer("whoever")
        entry.remove_sharer("whoever")
        assert entry.sharer_count == 0
        assert not entry.is_sharer("anything")

    def test_count_never_negative(self):
        entry = DirEntry(None)
        entry.remove_sharer("x")
        assert entry.sharer_count == 0


class TestProperties:
    @given(st.lists(
        st.tuples(st.booleans(), st.sampled_from(NAMES)), max_size=60
    ))
    def test_fullmap_count_equals_set_size(self, operations):
        entry = DirEntry(BITS)
        for is_add, name in operations:
            if is_add:
                entry.add_sharer(name)
            else:
                entry.remove_sharer(name)
        assert entry.sharer_count == len(entry.sharer_names())
        assert entry.sharer_count == entry.sharers.bit_count()
        assert entry.sharer_count >= 0

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.sampled_from(NAMES), max_size=30),
    )
    def test_limited_pointer_never_tracks_beyond_limit(self, limit, adds):
        entry = DirEntry(BITS, pointer_limit=limit)
        for name in adds:
            entry.add_sharer(name)
        assert len(entry.sharer_names()) <= limit
        distinct = len(set(adds))
        assert entry.overflow == (distinct > limit)
        if not entry.overflow:
            assert entry.sharer_count == distinct
        else:
            # untracked duplicates cannot be deduped (real limited-pointer
            # hardware has the same conservative over-count)
            assert entry.sharer_count >= distinct


class TestSharerOrder:
    def test_names_follow_the_bit_map_not_insertion_order(self):
        entry = DirEntry(BITS)
        for name in ("l2.5", "l2.0", "l2.3"):
            entry.add_sharer(name)
        assert entry.sharer_names() == ["l2.0", "l2.3", "l2.5"]
        assert entry.sharers == 0b101001

    def test_owner_only_entry_names_no_sharers(self):
        entry = DirEntry(None, pointer_limit=2)
        entry.add_sharer("l2.0")
        assert entry.sharer_names() == []
        assert entry.pointer_limit is None  # the limit needs identities

    def test_clear_resets_mask_count_and_overflow(self):
        entry = DirEntry(BITS, pointer_limit=1)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")
        entry.clear_sharers()
        assert (entry.sharers, entry.sharer_count, entry.overflow) == (0, 0, False)
