"""Set-associative tag/data arrays.

:class:`CacheArray` is the storage substrate shared by every cache in the
system — CPU L1/L2, GPU TCP/TCC/SQC, the LLC, and the directory cache (whose
"lines" are tracking entries rather than data).  Protocol state is opaque to
the array: controllers store whatever state enum they use in
:attr:`CacheLine.state` and extra tracking info in :attr:`CacheLine.meta`.

Storage layout: line state lives in struct-of-arrays *planes* — parallel
lists (``_addr``, ``_state``, ``_data``, ``_dirty``, ``_meta``, ``_valid``)
indexed by the flat slot ``set_idx * ways + way`` — rather than one Python
object per line.  Controllers keep the object-style API: :meth:`lookup` and
friends hand out a per-slot :class:`_LineView` whose attributes read and
write the planes (through a shared :class:`_Planes` holder, so an array and
its views form no reference cycle), so ``line.state = X`` works exactly as
before.  A slot's view is built the first time it is handed out, so an
array costs only its planes until lines are used.  Hot paths can skip the
view entirely with the index API (:meth:`find`, :meth:`find_touch` plus the
plane lists), turning lookup/touch/state-update into dict-get + list
indexing.

Replacement is Tree-PLRU (Table II).  Each set's tree lives in one integer
(bit ``n`` of ``_plru[set]`` is node ``n`` of the tree) — ``touch`` is a
single masked or using per-way masks precomputed from the reference
:class:`TreePLRU`, and ``victim`` is a memoized ``bits -> (way, bits_after)``
table populated by running the reference walk, so the chosen victims
(including the non-power-of-two padding-leaf retries, which mutate the tree)
are bit-identical to the reference.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.mem.address import LINE_BYTES
from repro.mem.block import LineData
from repro.mem.replacement import TreePLRU, preferred_order


class CacheLine:
    """A detached line snapshot (evictions, invalidations).

    Resident lines are :class:`_LineView` objects backed by the array's
    planes; this plain record carries the same attributes for lines that
    have left the array.
    """

    __slots__ = ("valid", "addr", "state", "data", "dirty", "meta", "set_idx", "way")

    def __init__(self) -> None:
        self.valid = False
        self.addr = -1  # line-aligned address when valid
        self.state: Any = None
        self.data: LineData | None = None
        self.dirty = False
        self.meta: Any = None
        # geometry position (-1 for detached snapshots).
        self.set_idx = -1
        self.way = -1

    def reset(self) -> None:
        self.valid = False
        self.addr = -1
        self.state = None
        self.data = None
        self.dirty = False
        self.meta = None

    def __repr__(self) -> str:
        if not self.valid:
            return "CacheLine(invalid)"
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state}, "
            f"dirty={self.dirty})"
        )


class _Planes:
    """The line planes of one array, shared by its views.

    A view reads and writes through this holder rather than through the
    array, so an array and the views it hands out form no reference cycle:
    a dropped array is freed by reference count, not by the cyclic
    collector.  The holder binds the same list objects as the array's
    ``_valid`` .. ``_meta`` attributes (the planes are never rebound).
    """

    __slots__ = ("valid", "addr", "state", "data", "dirty", "meta", "ways")

    def __init__(self, array: "CacheArray") -> None:
        self.valid = array._valid
        self.addr = array._addr
        self.state = array._state
        self.data = array._data
        self.dirty = array._dirty
        self.meta = array._meta
        self.ways = array.ways


class _LineView:
    """A live window onto one slot of the array's planes.

    At most one view per slot, built the first time the slot is handed
    out; identity is stable, so holding a view across time behaves exactly
    like holding the old per-way ``CacheLine`` object (it always shows the
    slot's *current* occupant).
    """

    __slots__ = ("_planes", "_slot")

    def __init__(self, planes: _Planes, slot: int) -> None:
        self._planes = planes
        self._slot = slot

    @property
    def valid(self) -> bool:
        return self._planes.valid[self._slot]

    @valid.setter
    def valid(self, value: bool) -> None:
        self._planes.valid[self._slot] = value

    @property
    def addr(self) -> int:
        return self._planes.addr[self._slot]

    @addr.setter
    def addr(self, value: int) -> None:
        self._planes.addr[self._slot] = value

    @property
    def state(self) -> Any:
        return self._planes.state[self._slot]

    @state.setter
    def state(self, value: Any) -> None:
        self._planes.state[self._slot] = value

    @property
    def data(self) -> LineData | None:
        return self._planes.data[self._slot]

    @data.setter
    def data(self, value: LineData | None) -> None:
        self._planes.data[self._slot] = value

    @property
    def dirty(self) -> bool:
        return self._planes.dirty[self._slot]

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._planes.dirty[self._slot] = value

    @property
    def meta(self) -> Any:
        return self._planes.meta[self._slot]

    @meta.setter
    def meta(self, value: Any) -> None:
        self._planes.meta[self._slot] = value

    @property
    def set_idx(self) -> int:
        return self._slot // self._planes.ways

    @property
    def way(self) -> int:
        return self._slot % self._planes.ways

    def reset(self) -> None:
        planes = self._planes
        slot = self._slot
        planes.valid[slot] = False
        planes.addr[slot] = -1
        planes.state[slot] = None
        planes.data[slot] = None
        planes.dirty[slot] = False
        planes.meta[slot] = None

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

#: (ways, num_sets) -> (touch_and_masks, touch_or_masks, victim_memo,
#: leaves).  The touch masks are per flat slot, built once per geometry as
#: tuples and shared by every array of that geometry; the victim memo is
#: shared by every array of that associativity.
_PLRU_GEOMETRY: dict[
    tuple[int, int],
    tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, int]], int],
] = {}

#: ways -> victim memo (``bits -> (way, bits_after)``)
_VICTIM_MEMOS: dict[int, dict[int, tuple[int, int]]] = {}


def _bits_to_int(bits: list[int]) -> int:
    value = 0
    for node in range(1, len(bits)):
        if bits[node]:
            value |= 1 << node
    return value


def _int_to_bits(value: int, leaves: int) -> list[int]:
    return [(value >> node) & 1 for node in range(leaves)]


def _plru_geometry(
    ways: int, num_sets: int,
) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, int]], int]:
    geo = _PLRU_GEOMETRY.get((ways, num_sets))
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
        geo = _PLRU_GEOMETRY[(ways, num_sets)] = (
            tuple(touch_and) * num_sets,
            tuple(touch_or) * num_sets,
            _VICTIM_MEMOS.setdefault(ways, {}),
            leaves,
        )
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
        slots = num_sets * ways
        # struct-of-arrays line state
        self._valid = [False] * slots
        self._addr = [-1] * slots
        self._state: list[Any] = [None] * slots
        self._data: list[Any] = [None] * slots
        self._dirty = [False] * slots
        self._meta: list[Any] = [None] * slots
        self._views: list[_LineView | None] = [None] * slots
        self._planes = _Planes(self)
        #: line-aligned address -> flat slot index
        self._index: dict[int, int] = {}
        # replacement state: one integer Tree-PLRU per set, and the shared
        # per-slot touch masks (indexable straight from the flat slot)
        self._touch_and, self._touch_or, self._victim_memo, self._plru_leaves = (
            _plru_geometry(ways, num_sets)
        )
        self._plru = [0] * num_sets

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

    def find(self, addr: int) -> int:
        """Flat slot index of the valid line holding ``addr``, or -1."""
        slot = self._index.get(addr)
        return -1 if slot is None else slot

    def find_touch(self, addr: int) -> int:
        """:meth:`find` plus a replacement touch on hit — the fused hot-path
        lookup (one dict get and one masked or for Tree-PLRU arrays)."""
        slot = self._index.get(addr)
        if slot is None:
            return -1
        plru = self._plru
        set_idx = slot // self.ways
        plru[set_idx] = (plru[set_idx] & self._touch_and[slot]) | self._touch_or[slot]
        return slot

    def lookup(self, addr: int, touch: bool = True) -> "_LineView | None":
        """The valid line holding ``addr``, or None."""
        slot = self._index.get(addr)
        if slot is None:
            return None
        if touch:
            plru = self._plru
            set_idx = slot // self.ways
            plru[set_idx] = (plru[set_idx] & self._touch_and[slot]) | self._touch_or[slot]
        view = self._views[slot]
        if view is None:
            view = self._views[slot] = _LineView(self._planes, slot)
        return view

    def _view(self, slot: int) -> "_LineView":
        """The slot's view, built on first use (inlined in :meth:`lookup`,
        the hot path)."""
        view = self._views[slot]
        if view is None:
            view = self._views[slot] = _LineView(self._planes, slot)
        return view

    def touch_slot(self, slot: int) -> None:
        plru = self._plru
        set_idx = slot // self.ways
        plru[set_idx] = (plru[set_idx] & self._touch_and[slot]) | self._touch_or[slot]

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
        self, addr: int, cost_of: Callable[["_LineView"], Any] | None = None
    ) -> "_LineView":
        """The line to overwrite when installing ``addr``: an invalid way if
        any, else the Tree-PLRU pick.  Does not modify the line planes (the
        Tree-PLRU walk itself may rotate padding bits, exactly as the
        reference policy does).

        ``cost_of`` optionally ranks valid lines by eviction cost (lower is
        cheaper); Tree-PLRU only breaks ties among the cheapest.
        This hook implements the paper's §VII state-aware directory
        replacement.
        """
        set_idx = (addr // LINE_BYTES) % self.num_sets
        base = set_idx * self.ways
        valid = self._valid
        view = self._view
        for way in range(self.ways):
            if not valid[base + way]:
                return view(base + way)
        victim_way = self._fast_victim(set_idx)
        if cost_of is None:
            return view(base + victim_way)
        costs = [cost_of(view(base + way)) for way in range(self.ways)]
        cheapest = min(costs)
        candidates = [way for way, cost in enumerate(costs) if cost == cheapest]
        if victim_way in candidates:
            return view(base + victim_way)
        tree = TreePLRU(self.ways)
        tree._bits = _int_to_bits(self._plru[set_idx], self._plru_leaves)
        return view(base + preferred_order(tree, candidates)[0])

    def install(
        self,
        addr: int,
        state: Any,
        data: LineData | None = None,
        dirty: bool = False,
        meta: Any = None,
    ) -> tuple["_LineView", CacheLine | None]:
        """Install ``addr``; returns ``(line, evicted_copy)``.

        ``evicted_copy`` is a detached :class:`CacheLine` snapshot of the
        victim if a valid line had to be replaced (None otherwise).  The
        caller is responsible for acting on the eviction (write-back,
        back-invalidation, ...).
        """
        slot = self.find_touch(addr)
        if slot >= 0:
            self._state[slot] = state
            if data is not None:
                self._data[slot] = data
            self._dirty[slot] = dirty
            if meta is not None:
                self._meta[slot] = meta
            return self._view(slot), None

        victim = self.choose_victim(addr)
        slot = victim._slot
        evicted: CacheLine | None = None
        if self._valid[slot]:
            evicted = CacheLine()
            evicted.valid = True
            evicted.addr = self._addr[slot]
            evicted.state = self._state[slot]
            evicted.data = self._data[slot]
            evicted.dirty = self._dirty[slot]
            evicted.meta = self._meta[slot]
            del self._index[self._addr[slot]]
        self._valid[slot] = True
        self._addr[slot] = addr
        self._state[slot] = state
        self._data[slot] = data
        self._dirty[slot] = dirty
        self._meta[slot] = meta
        self._index[addr] = slot
        self.touch_slot(slot)
        return victim, evicted

    def invalidate(self, addr: int) -> CacheLine | None:
        """Invalidate ``addr`` if present; returns a detached snapshot."""
        slot = self._index.pop(addr, None)
        if slot is None:
            return None
        snapshot = CacheLine()
        snapshot.valid = True
        snapshot.addr = self._addr[slot]
        snapshot.state = self._state[slot]
        snapshot.data = self._data[slot]
        snapshot.dirty = self._dirty[slot]
        snapshot.meta = self._meta[slot]
        self._valid[slot] = False
        self._addr[slot] = -1
        self._state[slot] = None
        self._data[slot] = None
        self._dirty[slot] = False
        self._meta[slot] = None
        return snapshot

    # -- iteration --------------------------------------------------------

    def iter_valid(self) -> Iterator["_LineView"]:
        view = self._view
        return iter([view(slot) for slot in self._index.values()])

    def occupancy(self) -> int:
        return len(self._index)

    def __contains__(self, addr: int) -> bool:
        return addr in self._index

    def __len__(self) -> int:
        return self.num_sets * self.ways
