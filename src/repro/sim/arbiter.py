"""Weighted-round-robin arbitration over traffic classes.

Shared ports in a heterogeneous fabric (the directory's input port, each
memory bank, the LLC behind the directory) are fought over by traffic with
very different service expectations: latency-sensitive CPU requests,
bandwidth-hungry GPU write-through streams, and bulk DMA transfers.  A
:class:`WrrArbiter` holds one FIFO queue per *class* and grants in weighted
round-robin order: the grant pointer cycles over the classes, and each class
may win up to ``weight`` consecutive grants before the pointer moves on.
Empty classes are skipped without consuming credit, so WRR degenerates to
plain round-robin under symmetric load and to FIFO when only one class is
active — which is what keeps the zero-contention configuration bit-identical
(the arbiter is simply never instantiated there).

The arbiter is a pure data structure: it owns no clock and schedules no
events.  Timing lives in its users (:class:`repro.sim.network.Network` input
ports, :class:`repro.mem.main_memory.MainMemory` banks), which call
:meth:`enqueue` on arrival and :meth:`pick` whenever the port frees up.
Determinism: for a fixed arrival order the grant order is a pure function of
the weights — there is no randomness anywhere.

:class:`FrFcfsQueue` is the same kind of pure pick-order structure for a
DRAM bank under the *first-ready, first-come-first-served* discipline:
the oldest access to the currently open row is granted ahead of older
row-missing accesses, bounded by a row-streak cap so a conflicting access
can be delayed only a fixed number of grants (starvation freedom).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

#: network endpoint kind -> arbitration traffic class
CLASS_OF_KIND = {
    "l2": "cpu",
    "core": "cpu",
    "dir": "cpu",      # directory-originated traffic (probes, acks) rides
                       # the CPU class: it is latency-critical
    "tcc": "gpu",
    "gpu": "gpu",
    "sqc": "gpu",
    "dma": "dma",
}

#: fallback class for endpoint kinds with no mapping
DEFAULT_CLASS = "other"


def class_of_kind(kind: str) -> str:
    """Map a network endpoint kind to its arbitration traffic class."""
    return CLASS_OF_KIND.get(kind, DEFAULT_CLASS)


class WrrArbiter:
    """Weighted round-robin over named classes, FIFO within each class.

    ``weights`` maps class name -> grant weight (>= 1).  Classes not listed
    are created on first :meth:`enqueue` with weight 1, so callers never
    have to pre-declare every class they might see.
    """

    __slots__ = ("name", "_weights", "_queues", "_order", "_index", "_credit",
                 "_count", "busy")

    def __init__(self, name: str, weights: dict[str, int] | None = None) -> None:
        self.name = name
        self._weights: dict[str, int] = {}
        self._queues: dict[str, deque] = {}
        self._order: list[str] = []
        for cls, weight in (weights or {}).items():
            self._add_class(cls, weight)
        #: pointer into ``_order`` and remaining credit of the current class
        self._index = 0
        self._credit = self._weights[self._order[0]] if self._order else 0
        #: items waiting across every class (kept so pending() is O(1))
        self._count = 0
        #: port-occupancy flag maintained by the timing layer around us
        self.busy = False

    def _add_class(self, cls: str, weight: int) -> None:
        if weight < 1:
            raise ValueError(f"WRR weight for class {cls!r} must be >= 1, got {weight}")
        if cls in self._weights:
            raise ValueError(f"duplicate WRR class {cls!r}")
        self._weights[cls] = weight
        self._queues[cls] = deque()
        self._order.append(cls)

    # -- queue side --------------------------------------------------------

    def enqueue(self, cls: str, item: Any) -> None:
        """Append ``item`` to ``cls``'s FIFO (class auto-created, weight 1)."""
        queue = self._queues.get(cls)
        if queue is None:
            self._add_class(cls, 1)
            queue = self._queues[cls]
            if len(self._order) == 1:
                self._credit = self._weights[cls]
        queue.append(item)
        self._count += 1

    def pending(self) -> int:
        """Total items waiting across every class."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def classes(self) -> Iterable[str]:
        return tuple(self._order)

    # -- grant side --------------------------------------------------------

    def pick(self) -> tuple[str, Any] | None:
        """Grant the next item in WRR order (None when everything is empty).

        The current class keeps the grant while it has both queued items and
        remaining credit; otherwise the pointer advances (recharging credit)
        and empty classes are skipped without spending theirs.  A pick with
        nothing queued still moves the pointer one class on and recharges
        it, exactly as a full ``len(order) + 1`` scan over empty queues
        would: grant order after an idle spell depends on it.
        """
        order = self._order
        if not order:
            return None
        weights = self._weights
        index = self._index
        if not self._count:
            index = (index + 1) % len(order)
            self._index = index
            self._credit = weights[order[index]]
            return None
        queues = self._queues
        credit = self._credit
        # something is queued, so at most len(order) + 1 steps find it
        while True:
            cls = order[index]
            queue = queues[cls]
            if queue and credit > 0:
                self._index = index
                self._credit = credit - 1
                self._count -= 1
                return cls, queue.popleft()
            # out of credit or nothing queued: move on, recharge next class
            index = (index + 1) % len(order)
            credit = weights[order[index]]

    def __repr__(self) -> str:
        depths = {cls: len(q) for cls, q in self._queues.items() if q}
        return f"WrrArbiter({self.name!r}, weights={self._weights}, queued={depths})"


class FrFcfsQueue:
    """First-ready FCFS pick order for one DRAM bank.

    A single FIFO of pending accesses; :meth:`pick` grants the *oldest
    row-hit* (an access whose row matches the bank's open row) while the
    bank's current row streak is below ``row_streak_cap``, and the plain
    oldest access otherwise.  The caller reports each serviced access's
    row outcome through :meth:`note_row`, which is what advances / resets
    the streak — once the cap is reached the queue degenerates to FCFS
    until a row miss is actually serviced, so no access can be bypassed
    more than ``row_streak_cap`` times.

    Like :class:`WrrArbiter` this owns no clock and schedules nothing; the
    bank's open-row state stays with the memory controller and is passed
    into :meth:`pick` along with a ``row_of`` accessor.
    """

    __slots__ = ("name", "row_streak_cap", "_queue", "row_streak")

    def __init__(self, name: str, row_streak_cap: int = 4) -> None:
        if row_streak_cap < 1:
            raise ValueError(
                f"FR-FCFS row streak cap must be >= 1, got {row_streak_cap}"
            )
        self.name = name
        self.row_streak_cap = row_streak_cap
        self._queue: deque = deque()
        #: consecutive row-hit services (maintained via :meth:`note_row`)
        self.row_streak = 0

    def enqueue(self, item: Any) -> None:
        self._queue.append(item)

    def pending(self) -> int:
        return len(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def pick(self, open_row: int | None, row_of: Callable[[Any], int]):
        """Grant the next access (None when empty); see class docstring."""
        queue = self._queue
        if not queue:
            return None
        if open_row is not None and self.row_streak < self.row_streak_cap:
            for index, item in enumerate(queue):
                if row_of(item) == open_row:
                    if index:
                        del queue[index]
                        return item
                    return queue.popleft()
        return queue.popleft()

    def note_row(self, hit: bool) -> None:
        """Record the row outcome of the access just serviced."""
        self.row_streak = self.row_streak + 1 if hit else 0

    def __repr__(self) -> str:
        return (
            f"FrFcfsQueue({self.name!r}, queued={len(self._queue)}, "
            f"streak={self.row_streak}/{self.row_streak_cap})"
        )
