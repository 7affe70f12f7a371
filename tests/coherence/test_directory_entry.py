"""Unit and property tests for directory tracking entries."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coherence.directory_entry import DirEntry, DirEntryStore

NAMES = [f"l2.{i}" for i in range(8)]


class TestFullMap:
    def test_add_and_remove(self):
        entry = DirEntry(track_identities=True)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")
        assert entry.sharers == {"l2.0", "l2.1"}
        assert entry.sharer_count == 2
        entry.remove_sharer("l2.0")
        assert entry.sharers == {"l2.1"}
        assert entry.sharer_count == 1

    def test_duplicate_add_does_not_double_count(self):
        entry = DirEntry(track_identities=True)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.0")
        assert entry.sharer_count == 1

    def test_remove_absent_is_noop(self):
        entry = DirEntry(track_identities=True)
        entry.remove_sharer("l2.9")
        assert entry.sharer_count == 0

    def test_multicast_possible_without_overflow(self):
        entry = DirEntry(track_identities=True)
        entry.add_sharer("l2.0")
        assert entry.multicast_possible


class TestLimitedPointer:
    def test_overflow_sets_flag_and_forces_broadcast(self):
        entry = DirEntry(track_identities=True, pointer_limit=2)
        for name in ("l2.0", "l2.1", "l2.2"):
            entry.add_sharer(name)
        assert entry.overflow
        assert not entry.multicast_possible
        assert entry.sharer_count == 3
        assert len(entry.sharers) == 2  # only two tracked pointers

    def test_is_sharer_conservative_after_overflow(self):
        entry = DirEntry(track_identities=True, pointer_limit=1)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")  # overflows
        # untracked names are conservatively possible sharers
        assert entry.is_sharer("l2.7")


class TestOwnerOnlyMode:
    def test_counts_without_identities(self):
        entry = DirEntry(track_identities=False)
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
        entry = DirEntry(track_identities=False)
        entry.remove_sharer("x")
        assert entry.sharer_count == 0


class TestProperties:
    @given(st.lists(
        st.tuples(st.booleans(), st.sampled_from(NAMES)), max_size=60
    ))
    def test_fullmap_count_equals_set_size(self, operations):
        entry = DirEntry(track_identities=True)
        for is_add, name in operations:
            if is_add:
                entry.add_sharer(name)
            else:
                entry.remove_sharer(name)
        assert entry.sharer_count == len(entry.sharers)
        assert entry.sharer_count >= 0

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.sampled_from(NAMES), max_size=30),
    )
    def test_limited_pointer_never_tracks_beyond_limit(self, limit, adds):
        entry = DirEntry(track_identities=True, pointer_limit=limit)
        for name in adds:
            entry.add_sharer(name)
        assert len(entry.sharers) <= limit
        distinct = len(set(adds))
        assert entry.overflow == (distinct > limit)
        if not entry.overflow:
            assert entry.sharer_count == distinct
        else:
            # untracked duplicates cannot be deduped (real limited-pointer
            # hardware has the same conservative over-count)
            assert entry.sharer_count >= distinct


class TestStore:
    def test_standalone_entry_owns_a_single_slot_store(self):
        entry = DirEntry(track_identities=True, pointer_limit=2)
        store = entry._store
        assert len(store.owner) == 1
        assert len(store) == 1
        assert store.pointer_limit == 2
        store.release(entry)
        assert store.alloc() is entry

    @pytest.mark.parametrize("track_identities, pointer_limit", [
        (True, None), (True, 1), (False, None),
    ])
    def test_released_slot_comes_back_cleared(self, track_identities, pointer_limit):
        store = DirEntryStore(track_identities, pointer_limit)
        entry = store.alloc()
        entry.owner = "l2.0"
        for name in NAMES[:3]:
            entry.add_sharer(name)
        assert entry.sharer_count > 0
        store.release(entry)
        reused = store.alloc()
        assert reused is entry  # the slot and its view are recycled
        assert len(store.owner) == 1
        assert reused.owner is None
        assert reused.sharer_count == 0
        assert not reused.overflow
        if track_identities:
            assert reused.sharers == set()
        else:
            assert reused.sharers is None
