"""Tracking entries for the precise directory.

An entry records the owner (the cache whose copy may be M/O/E) and the
sharers.  Two tracking granularities exist, matching §IV of the paper:

- **owner tracking** (§IV-A): sharer *identities* are not kept, only a
  count, so invalidations to shared lines must broadcast.  The count lets
  the directory retire entries when the last sharer's VicClean arrives.
- **sharer tracking** (§IV-B): a full-map sharer bitmap (or a
  limited-pointer bitmap with an overflow flag, Table I footnote b),
  enabling multicast invalidations and back-invalidations.

Storage: an entry is one ``__slots__`` record per tracked line, built when
the directory allocates the line and dropped with it.  Sharers are an int
bitmask over the directory's caches: each directory builds one
``name -> bit`` map from its cache names and every entry shares it, so
:meth:`DirEntry.sharer_names` walks the caches in that order — the same
order as a broadcast, whatever the process hash seed.
"""

from __future__ import annotations


class DirEntry:
    """Owner/sharer bookkeeping attached to a directory-cache line.

    ``bits`` is the directory's shared ``name -> bit`` map; ``None`` selects
    owner-only tracking, where :attr:`sharers` stays ``None`` and only
    :attr:`sharer_count` is kept.
    """

    __slots__ = ("owner", "sharers", "sharer_count", "overflow", "bits",
                 "pointer_limit")

    def __init__(
        self, bits: dict[str, int] | None, pointer_limit: int | None = None
    ) -> None:
        self.owner: str | None = None
        #: sharer bitmask, or None under owner-only tracking
        self.sharers: int | None = None if bits is None else 0
        self.sharer_count = 0
        #: limited-pointer overflow: untracked sharers exist, so
        #: invalidations must broadcast (footnote b of Table I)
        self.overflow = False
        self.bits = bits
        self.pointer_limit = pointer_limit if bits is not None else None

    # -- sharer bookkeeping ------------------------------------------------

    def add_sharer(self, name: str) -> None:
        self.sharer_count += 1
        shared = self.sharers
        if shared is None:
            return
        bit = self.bits[name]
        if shared & bit:
            self.sharer_count -= 1  # already tracked; count follows the mask
            return
        limit = self.pointer_limit
        if limit is not None and shared.bit_count() >= limit:
            self.overflow = True
            return
        self.sharers = shared | bit

    def remove_sharer(self, name: str) -> None:
        shared = self.sharers
        if shared is not None:
            bit = self.bits.get(name, 0)
            if not self.overflow:
                # exact tracking: the count mirrors the mask, so removing a
                # name that was never tracked must not drift the count
                if shared & bit:
                    self.sharers = shared & ~bit
                    self.sharer_count -= 1
                return
            self.sharers = shared & ~bit
        # owner-only or overflowed tracking: identities are (partially)
        # unknown, so decrement conservatively
        if self.sharer_count > 0:
            self.sharer_count -= 1

    def clear_sharers(self) -> None:
        if self.sharers is not None:
            self.sharers = 0
        self.sharer_count = 0
        self.overflow = False

    def is_sharer(self, name: str) -> bool:
        """Conservatively: is ``name`` possibly a sharer?"""
        shared = self.sharers
        if shared is None or self.overflow:
            return self.sharer_count > 0
        return bool(shared & self.bits.get(name, 0))

    def sharer_names(self) -> list[str]:
        """Tracked sharer names in ``bits`` order (empty when untracked)."""
        shared = self.sharers
        if not shared:
            return []
        return [name for name, bit in self.bits.items() if shared & bit]

    @property
    def multicast_possible(self) -> bool:
        """Can invalidations be narrowed to a tracked sharer list?"""
        return self.sharers is not None and not self.overflow

    def __repr__(self) -> str:
        who = self.sharer_names() if self.sharers is not None else f"~{self.sharer_count}"
        flags = "+overflow" if self.overflow else ""
        return f"DirEntry(owner={self.owner}, sharers={who}{flags})"
