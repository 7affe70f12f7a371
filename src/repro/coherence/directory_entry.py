"""Tracking entries for the precise directory.

An entry records the owner (the cache whose copy may be M/O/E) and the
sharers.  Two tracking granularities exist, matching §IV of the paper:

- **owner tracking** (§IV-A): sharer *identities* are not kept, only a
  count, so invalidations to shared lines must broadcast.  The count lets
  the directory retire entries when the last sharer's VicClean arrives.
- **sharer tracking** (§IV-B): a full-map set of sharer names (or a
  limited-pointer set with an overflow flag, Table I footnote b), enabling
  multicast invalidations and back-invalidations.

Storage: entry state lives in struct-of-arrays planes inside a
:class:`DirEntryStore` — parallel ``owner`` / ``sharers`` /
``sharer_count`` / ``overflow`` lists indexed by an integer slot — and a
:class:`DirEntry` is a slim view over one slot, so directories hold one
plane set instead of one bag-of-attributes object per tracked line.
A store starts empty and grows one slot (planes, view and sharer
``set``) the first time :meth:`DirEntryStore.alloc` finds no free slot, so
a directory pays only for the entries it has actually held at once, not
for its whole capacity.  Slots are recycled through a free list by
:meth:`DirEntryStore.release`; the per-slot sharer ``set`` objects are
kept and cleared rather than reallocated.  Standalone ``DirEntry(...)``
construction (tests, tools) allocates from a private single-slot store.
"""

from __future__ import annotations


class DirEntryStore:
    """Struct-of-arrays backing for a directory's tracking entries."""

    __slots__ = (
        "track_identities", "pointer_limit",
        "owner", "sharers", "sharer_count", "overflow",
        "_free", "_views",
    )

    def __init__(
        self,
        track_identities: bool = True,
        pointer_limit: int | None = None,
    ) -> None:
        self.track_identities = track_identities
        self.pointer_limit = pointer_limit if track_identities else None
        # entry planes, indexed by slot
        self.owner: list[str | None] = []
        self.sharers: list[set[str] | None] = []
        self.sharer_count: list[int] = []
        self.overflow: list[bool] = []
        self._free: list[int] = []
        self._views: list["DirEntry"] = []

    def _grow(self, view: "DirEntry") -> "DirEntry":
        """Append one cleared slot, owned by ``view``."""
        view._store = self
        view._slot = len(self.owner)
        self.owner.append(None)
        self.sharers.append(set() if self.track_identities else None)
        self.sharer_count.append(0)
        self.overflow.append(False)
        self._views.append(view)
        return view

    def alloc(self) -> "DirEntry":
        """A cleared entry view: a recycled slot, else a new one."""
        free = self._free
        if free:
            return self._views[free.pop()]
        return self._grow(DirEntry.__new__(DirEntry))

    def release(self, entry: "DirEntry") -> None:
        """Return ``entry``'s slot to the free list, scrubbing its planes.

        Only entries of this store may be released; releasing is the
        caller's assertion that no live reference will touch the entry
        again (detached cache-line snapshots that merely carry it are
        fine — the precise directory never reads those).
        """
        if entry._store is not self:
            raise ValueError("entry does not belong to this store")
        slot = entry._slot
        self.owner[slot] = None
        shared = self.sharers[slot]
        if shared is not None:
            shared.clear()
        self.sharer_count[slot] = 0
        self.overflow[slot] = False
        self._free.append(slot)

    def __len__(self) -> int:
        return len(self.owner) - len(self._free)


class DirEntry:
    """Owner/sharer bookkeeping attached to a directory-cache line.

    A view over one :class:`DirEntryStore` slot; the constructor keeps the
    historical standalone form by growing a fresh store's single slot.
    """

    __slots__ = ("_store", "_slot")

    def __init__(self, track_identities: bool, pointer_limit: int | None = None) -> None:
        DirEntryStore(track_identities, pointer_limit)._grow(self)

    # -- plane accessors ---------------------------------------------------

    @property
    def owner(self) -> str | None:
        return self._store.owner[self._slot]

    @owner.setter
    def owner(self, value: str | None) -> None:
        self._store.owner[self._slot] = value

    @property
    def sharers(self) -> set[str] | None:
        """Sharer identities, or None under owner-only tracking."""
        return self._store.sharers[self._slot]

    @property
    def sharer_count(self) -> int:
        return self._store.sharer_count[self._slot]

    @sharer_count.setter
    def sharer_count(self, value: int) -> None:
        self._store.sharer_count[self._slot] = value

    @property
    def overflow(self) -> bool:
        """Limited-pointer overflow: untracked sharers exist, so
        invalidations must broadcast (footnote b of Table I)."""
        return self._store.overflow[self._slot]

    @overflow.setter
    def overflow(self, value: bool) -> None:
        self._store.overflow[self._slot] = value

    @property
    def _pointer_limit(self) -> int | None:
        return self._store.pointer_limit

    # -- sharer bookkeeping ------------------------------------------------

    def add_sharer(self, name: str) -> None:
        store = self._store
        slot = self._slot
        store.sharer_count[slot] += 1
        shared = store.sharers[slot]
        if shared is None:
            return
        if name in shared:
            store.sharer_count[slot] -= 1  # already tracked; count follows the set
            return
        limit = store.pointer_limit
        if limit is not None and len(shared) >= limit:
            store.overflow[slot] = True
            return
        shared.add(name)

    def remove_sharer(self, name: str) -> None:
        store = self._store
        slot = self._slot
        shared = store.sharers[slot]
        if shared is not None and not store.overflow[slot]:
            # exact tracking: the count mirrors the set, so removing a
            # name that was never tracked must not drift the count
            if name in shared:
                shared.discard(name)
                store.sharer_count[slot] -= 1
            return
        # owner-only or overflowed tracking: identities are (partially)
        # unknown, so decrement conservatively
        if shared is not None:
            shared.discard(name)
        if store.sharer_count[slot] > 0:
            store.sharer_count[slot] -= 1

    def clear_sharers(self) -> None:
        store = self._store
        slot = self._slot
        shared = store.sharers[slot]
        if shared is not None:
            shared.clear()
        store.sharer_count[slot] = 0
        store.overflow[slot] = False

    def is_sharer(self, name: str) -> bool:
        """Conservatively: is ``name`` possibly a sharer?"""
        store = self._store
        slot = self._slot
        shared = store.sharers[slot]
        if shared is None or store.overflow[slot]:
            return store.sharer_count[slot] > 0
        return name in shared

    @property
    def tracks_identities(self) -> bool:
        return self._store.sharers[self._slot] is not None

    @property
    def multicast_possible(self) -> bool:
        """Can invalidations be narrowed to a tracked sharer list?"""
        slot = self._slot
        return self._store.sharers[slot] is not None and not self._store.overflow[slot]

    def __repr__(self) -> str:
        shared = self.sharers
        who = sorted(shared) if shared is not None else f"~{self.sharer_count}"
        flags = "+overflow" if self.overflow else ""
        return f"DirEntry(owner={self.owner}, sharers={who}{flags})"
