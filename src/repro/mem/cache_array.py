"""Set-associative tag/data arrays.

:class:`CacheArray` is the storage substrate shared by every cache in the
system — CPU L1/L2, GPU TCP/TCC/SQC, the LLC, and the directory cache (whose
"lines" are tracking entries rather than data).  Protocol state is opaque to
the array: controllers store whatever state enum they use in
:attr:`CacheLine.state` and extra tracking info in :attr:`CacheLine.meta`.

Storage layout: an array holds only what has been used.  Each slot (flat
index ``set_idx * ways + way``) gets its :class:`CacheLine` record the
first time it is handed out, kept in a dict keyed by slot; a second dict
maps every resident line's address to its record.  A line is valid
exactly when it is in that address index, and there is no per-slot plane
of any kind, so building (and freeing) an array costs O(1) whatever its
geometry until lines are installed.  A slot's record keeps its identity
across invalidations and reinstalls, so holding a line across time
behaves like holding a hardware way: it always shows the slot's *current*
occupant (``valid=False``, ``addr=-1``, ``state=None``, ``dirty=False``
while the slot is empty).  Records point at nothing in the array, so an
array and the lines it hands out form no reference cycle.  A per-set count
of resident lines lets a full set skip the search for an invalid way.

Replacement is Tree-PLRU (Table II).  Each set's tree lives in one integer
(bit ``n`` of ``_plru[set]`` is node ``n`` of the tree; a set never touched
is absent and reads as zero) — ``touch`` is a single masked or using
per-way masks precomputed from the reference :class:`TreePLRU`, and
``victim`` is a memoized ``bits -> (way, bits_after)`` table populated by
running the reference walk, so the chosen victims (including the
non-power-of-two padding-leaf retries, which mutate the tree) are
bit-identical to the reference.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterator

from repro.mem.address import LINE_BYTES
from repro.mem.block import LineData
from repro.mem.replacement import TreePLRU, preferred_order


class CacheLine:
    """One slot's line record, or a detached snapshot of a line.

    A slot's record (``set_idx``/``way`` >= 0) is owned by its array and
    shows the slot's current occupant; evictions and invalidations hand
    out a detached copy (``set_idx = way = -1``) of the line that left.
    """

    __slots__ = ("valid", "addr", "state", "data", "dirty", "meta", "set_idx", "way")

    def __init__(self, set_idx: int = -1, way: int = -1) -> None:
        self.valid = False
        self.addr = -1  # line-aligned address when valid
        self.state: Any = None
        self.data: LineData | None = None
        self.dirty = False
        self.meta: Any = None
        # geometry position (-1 for detached snapshots).
        self.set_idx = set_idx
        self.way = way

    def _detached(self) -> "CacheLine":
        """A copy of this (valid) line that no array owns."""
        copy = CacheLine()
        copy.valid = True
        copy.addr = self.addr
        copy.state = self.state
        copy.data = self.data
        copy.dirty = self.dirty
        copy.meta = self.meta
        return copy

    def __repr__(self) -> str:
        if not self.valid:
            return "CacheLine(invalid)"
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state}, "
            f"dirty={self.dirty})"
        )


# -- integer Tree-PLRU ------------------------------------------------------
#
# Shared per-associativity tables, derived from the reference TreePLRU so
# the two can never disagree: touch masks force the same node bits the
# reference touch forces, and the victim memo replays the reference walk
# (including padding-leaf retries) once per distinct bit pattern.

#: ways -> (touch_and_masks, touch_or_masks, victim_memo, leaves).  The
#: touch masks are per way; the tables and the victim memo
#: (``bits -> (way, bits_after)``) are shared by every array of that
#: associativity.
_PLRU_GEOMETRY: dict[
    int, tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, int]], int],
] = {}


def _bits_to_int(bits: list[int]) -> int:
    value = 0
    for node in range(1, len(bits)):
        if bits[node]:
            value |= 1 << node
    return value


def _int_to_bits(value: int, leaves: int) -> list[int]:
    return [(value >> node) & 1 for node in range(leaves)]


def _plru_geometry(
    ways: int,
) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, int]], int]:
    geo = _PLRU_GEOMETRY.get(ways)
    if geo is None:
        probe = TreePLRU(ways)
        leaves = probe._leaves
        all_ones = [0] + [1] * (leaves - 1)
        touch_and: list[int] = []
        touch_or: list[int] = []
        for way in range(ways):
            probe._bits = [0] * leaves
            probe.touch(way)
            touch_or.append(_bits_to_int(probe._bits))
            probe._bits = list(all_ones)
            probe.touch(way)
            touch_and.append(_bits_to_int(probe._bits))
        geo = _PLRU_GEOMETRY[ways] = (tuple(touch_and), tuple(touch_or), {}, leaves)
    return geo


class CacheArray:
    """A ``num_sets`` x ``ways`` array with Tree-PLRU replacement.

    Addresses passed in must already be line-aligned; the set index is
    ``(addr / 64) mod num_sets`` and the full line address doubles as tag.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError(f"bad geometry: {num_sets} sets x {ways} ways")
        self.num_sets = num_sets
        self.ways = ways
        #: flat slot -> that slot's line record, built on first use
        self._lines: dict[int, CacheLine] = {}
        #: line-aligned address -> its resident line (the valid lines)
        self._index: dict[int, CacheLine] = {}
        #: set index -> resident lines in that set (a full set skips the
        #: invalid-way scan)
        self._resident: defaultdict[int, int] = defaultdict(int)
        # replacement state: one integer Tree-PLRU per touched set, and the
        # shared per-way touch masks
        self._touch_and, self._touch_or, self._victim_memo, self._plru_leaves = (
            _plru_geometry(ways)
        )
        self._plru: defaultdict[int, int] = defaultdict(int)

    @classmethod
    def from_geometry(
        cls,
        size_bytes: int,
        assoc: int,
        line_bytes: int = LINE_BYTES,
    ) -> "CacheArray":
        """Build from a (size, associativity) pair as in Table II."""
        lines = max(1, size_bytes // line_bytes)
        ways = min(assoc, lines)
        num_sets = max(1, lines // ways)
        return cls(num_sets, ways)

    # -- lookups ----------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> CacheLine | None:
        """The valid line holding ``addr``, or None."""
        line = self._index.get(addr)
        if line is not None and touch:
            plru = self._plru
            set_idx = line.set_idx
            way = line.way
            plru[set_idx] = (plru[set_idx] & self._touch_and[way]) | self._touch_or[way]
        return line

    # -- replacement internals --------------------------------------------

    def _fast_victim(self, set_idx: int) -> int:
        """Reference-identical Tree-PLRU victim from the integer tree.

        Non-power-of-two walks mutate the tree (padding-leaf retries), so
        the memo stores and re-applies the post-walk bits too.
        """
        plru = self._plru
        bits = plru[set_idx]
        memo = self._victim_memo
        hit = memo.get(bits)
        if hit is None:
            probe = TreePLRU(self.ways)
            probe._bits = _int_to_bits(bits, self._plru_leaves)
            way = probe.victim()
            hit = memo[bits] = (way, _bits_to_int(probe._bits))
        way, after = hit
        if after != bits:
            plru[set_idx] = after
        return way

    # -- allocation -------------------------------------------------------

    def choose_victim(
        self, addr: int, cost_of: Callable[[CacheLine], Any] | None = None
    ) -> CacheLine:
        """The line to overwrite when installing ``addr``: an invalid way if
        any, else the Tree-PLRU pick.  Does not modify any line (the
        Tree-PLRU walk itself may rotate padding bits, exactly as the
        reference policy does).

        ``cost_of`` optionally ranks valid lines by eviction cost (lower is
        cheaper); Tree-PLRU only breaks ties among the cheapest.
        This hook implements the paper's §VII state-aware directory
        replacement.
        """
        ways = self.ways
        set_idx = (addr // LINE_BYTES) % self.num_sets
        base = set_idx * ways
        lines = self._lines
        if self._resident[set_idx] < ways:
            for way in range(ways):
                line = lines.get(base + way)
                if line is None:  # the slot's first use: build its record
                    line = lines[base + way] = CacheLine(set_idx, way)
                    return line
                if not line.valid:
                    return line
        victim_way = self._fast_victim(set_idx)
        if cost_of is None:
            return lines[base + victim_way]
        costs = [cost_of(lines[base + way]) for way in range(ways)]
        cheapest = min(costs)
        candidates = [way for way, cost in enumerate(costs) if cost == cheapest]
        if victim_way in candidates:
            return lines[base + victim_way]
        tree = TreePLRU(ways)
        tree._bits = _int_to_bits(self._plru[set_idx], self._plru_leaves)
        return lines[base + preferred_order(tree, candidates)[0]]

    def install(
        self,
        addr: int,
        state: Any,
        data: LineData | None = None,
        dirty: bool = False,
        meta: Any = None,
    ) -> tuple[CacheLine, CacheLine | None]:
        """Install ``addr``; returns ``(line, evicted_copy)``.

        ``evicted_copy`` is a detached :class:`CacheLine` snapshot of the
        victim if a valid line had to be replaced (None otherwise).  The
        caller is responsible for acting on the eviction (write-back,
        back-invalidation, ...).
        """
        line = self.lookup(addr)
        if line is not None:
            line.state = state
            if data is not None:
                line.data = data
            line.dirty = dirty
            if meta is not None:
                line.meta = meta
            return line, None

        line = self.choose_victim(addr)
        evicted = line._detached() if line.valid else None
        self.fill(line, addr, state, data, dirty, meta)
        return line, evicted

    def fill(
        self,
        line: CacheLine,
        addr: int,
        state: Any,
        data: LineData | None = None,
        dirty: bool = False,
        meta: Any = None,
    ) -> None:
        """Put non-resident ``addr`` into ``line``, the slot
        :meth:`choose_victim` returned for it, and touch it.

        A caller that already picked (and acted on) its victim fills it
        here instead of calling :meth:`install`, which would repeat the
        lookup and the pick.  A still-valid occupant is dropped without a
        snapshot.
        """
        set_idx = line.set_idx
        if line.valid:
            del self._index[line.addr]
        else:
            self._resident[set_idx] += 1
        line.valid = True
        line.addr = addr
        line.state = state
        line.data = data
        line.dirty = dirty
        line.meta = meta
        self._index[addr] = line
        plru = self._plru
        way = line.way
        plru[set_idx] = (plru[set_idx] & self._touch_and[way]) | self._touch_or[way]

    def invalidate(self, addr: int) -> CacheLine | None:
        """Invalidate ``addr`` if present; returns a detached snapshot."""
        line = self._index.pop(addr, None)
        if line is None:
            return None
        snapshot = line._detached()
        self._resident[line.set_idx] -= 1
        line.valid = False
        line.addr = -1
        line.state = None
        line.data = None
        line.dirty = False
        line.meta = None
        return snapshot

    # -- iteration --------------------------------------------------------

    def iter_valid(self) -> Iterator[CacheLine]:
        return iter(list(self._index.values()))

    def __contains__(self, addr: int) -> bool:
        return addr in self._index

    def __len__(self) -> int:
        return self.num_sets * self.ways
