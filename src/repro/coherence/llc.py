"""The shared last-level cache.

The LLC is owned by the directory controller ("the directory at the system
level is backed by the LLC", §II-A); it is not a separately-networked
controller, so its access latency is charged by the directory.

It is a *victim* cache — it fills only on victim write-backs from L2s (and
on GPU write-throughs/atomics when ``useL3OnWT``), never on the refill path
from memory (§II-D).  It is therefore non-inclusive.  In the baseline it is
write-through: every LLC write is mirrored to memory by the directory.  The
§III-C optimization makes it write-back: a per-line dirty bit defers the
memory write to the LLC's own eviction of that line.
"""

from __future__ import annotations

from repro.mem.block import LineData
from repro.mem.cache_array import CacheArray
from repro.sim.stats import StatGroup


class EvictedLine:
    """A detached copy of an LLC line displaced by a victim write."""

    __slots__ = ("addr", "data", "dirty")

    def __init__(self, addr: int, data: LineData, dirty: bool) -> None:
        self.addr = addr
        self.data = data
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"EvictedLine(addr={self.addr:#x}, dirty={self.dirty})"


class LastLevelCache:
    """Functional LLC model: storage, dirty bits, and hit/miss accounting.

    All methods are zero-time; the directory schedules its configured LLC
    access latency around the calls.
    """

    def __init__(
        self,
        size_bytes: int = 16 * 2**20,
        assoc: int = 16,
        writeback: bool = False,
        latency_cycles: float = 20.0,
    ) -> None:
        self.array = CacheArray.from_geometry(size_bytes, assoc)
        self.writeback = writeback
        self.latency_cycles = latency_cycles
        self.stats = StatGroup("llc")
        #: optional ProtocolTrace sink (the LLC is passive — no transition
        #: table — so tracing records accesses, not state transitions)
        self.trace = None
        self._trace_sim = None
        self._trace_name = "llc"

    # -- tracing ---------------------------------------------------------------

    def attach_trace(self, trace, sim, name: str) -> None:
        """Record this slice's accesses into a ProtocolTrace ring buffer."""
        self.trace = trace
        self._trace_sim = sim
        self._trace_name = name

    def _record(self, event: str, addr: int, detail: str) -> None:
        self.trace.record(self._trace_sim.now, self._trace_name, event, addr, detail)

    # -- read path ----------------------------------------------------------

    def read(self, addr: int) -> tuple[bool, LineData | None]:
        """Lookup for a directory read.  Misses never allocate (victim cache)."""
        line = self.array.lookup(addr)
        if line is None:
            self.stats.inc("read_misses")
            if self.trace is not None:
                self._record("LlcRead", addr, "miss")
            return False, None
        self.stats.inc("read_hits")
        if self.trace is not None:
            self._record("LlcRead", addr, "hit")
        return True, line.data

    # -- fill paths ----------------------------------------------------------

    def write_victim(
        self, addr: int, data: LineData, dirty: bool
    ) -> EvictedLine | None:
        """Install or update a victim from an L2.

        ``dirty`` says whether the victim was dirty w.r.t. memory.  In
        write-back mode the line's dirty bit is *sticky*: a later clean
        victim (e.g. an E line refilled from this same LLC line) must not
        clear it, since memory is still stale.  Returns the displaced dirty
        line needing a memory write-back, if any.
        """
        self.stats.inc("victim_writes")
        if self.trace is not None:
            self._record("LlcVictim", addr, "dirty" if dirty else "clean")
        existing = self.array.lookup(addr)
        if existing is not None:
            existing.data = data
            if self.writeback:
                existing.dirty = existing.dirty or dirty
            return None
        line, evicted = self.array.install(
            addr, state="V", data=data, dirty=dirty if self.writeback else False
        )
        del line
        return self._handle_eviction(evicted)

    def write_through(self, addr: int, data: LineData, dirty: bool) -> EvictedLine | None:
        """Install or update from a GPU write-through/atomic (``useL3OnWT``).

        ``dirty`` is True when the directory will *not* also write memory
        (write-back LLC), so this LLC copy becomes the only current one.
        """
        self.stats.inc("wt_writes")
        if self.trace is not None:
            self._record("LlcWT", addr, "dirty" if dirty else "clean")
        existing = self.array.lookup(addr)
        if existing is not None:
            existing.data = data
            if self.writeback:
                existing.dirty = existing.dirty or dirty
            else:
                existing.dirty = False
            return None
        line, evicted = self.array.install(
            addr, state="V", data=data, dirty=dirty if self.writeback else False
        )
        del line
        return self._handle_eviction(evicted)

    def apply_words(self, addr: int, updates: dict[int, int], dirty: bool) -> bool:
        """Apply a partial-line write to an existing LLC line.

        Returns True on hit.  Never allocates (a partial write cannot build
        a whole line).
        """
        existing = self.array.lookup(addr)
        if existing is None:
            return False
        existing.data = existing.data.merged(updates)
        if self.writeback:
            existing.dirty = existing.dirty or dirty
        self.stats.inc("wt_writes")
        return True

    def update_in_place(self, addr: int, data: LineData, dirty: bool) -> bool:
        """Update the line only if present (used for atomics that hit).

        Returns True on hit.  Never allocates, never evicts.
        """
        existing = self.array.lookup(addr)
        if existing is None:
            return False
        existing.data = data
        if self.writeback:
            existing.dirty = existing.dirty or dirty
        return True

    def invalidate(self, addr: int) -> EvictedLine | None:
        """Drop ``addr`` if present; returns the copy if it was dirty."""
        snapshot = self.array.invalidate(addr)
        if snapshot is None:
            return None
        self.stats.inc("invalidations")
        if self.trace is not None:
            self._record("LlcInval", addr, "dirty" if snapshot.dirty else "clean")
        if snapshot.dirty:
            return EvictedLine(snapshot.addr, snapshot.data, True)
        return None

    def _handle_eviction(self, evicted) -> EvictedLine | None:
        if evicted is None:
            return None
        self.stats.inc("evictions")
        if evicted.dirty:
            self.stats.inc("dirty_evictions")
            return EvictedLine(evicted.addr, evicted.data, True)
        return None

    # -- introspection -------------------------------------------------------

    def holds(self, addr: int) -> bool:
        return self.array.lookup(addr, touch=False) is not None

    def peek(self, addr: int) -> LineData | None:
        line = self.array.lookup(addr, touch=False)
        return None if line is None else line.data
