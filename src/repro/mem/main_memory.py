"""Main-memory (DRAM) model.

The paper's directory talks to memory through a single *ordered* interface;
writes are non-blocking but occupy the channel, so extra write traffic (the
write-through LLC of the baseline) delays later reads.  Reads and writes
are counted; those counters are the y-axis of Figure 5.

Every access takes one pipeline: :meth:`MainMemory.read`, :meth:`write`
and :meth:`write_words` turn it into an :class:`_Access` on its bank, the
bank grants it at a start tick (:meth:`MainMemory._grant`: wait counter,
open-row timing, completion scheduled), and :meth:`MainMemory._complete`
hands read data or the write acknowledgement back.  A bank admits one
access per ``gap_cycles``; read data returns ``latency_cycles`` after the
grant, a write completes at its grant.

Functional commit order is *issue order* in every configuration: a write
applies to the backing store when it is accepted, a read captures data at
completion.  Scheduling can reorder timing but never values, and a read
issued after a write always sees it.

The default controller (1 bank, no row model) is the paper's channel: one
*in-order* bank with no scheduler queue.  Arrival order is grant order, so
the grant tick ``max(now, bank free tick)`` is known on arrival and no
gap-timer event is needed; its wait counter is ``channel_wait_ticks``.

Contention model (``num_banks > 1`` or ``row_bytes > 0``): the controller
splits into address-interleaved banks (line address modulo ``num_banks``,
the same interleave as :class:`repro.coherence.banking.DirectoryMap`), and
each bank grants from a scheduler queue on a gap timer, counting
``bank_wait_ticks``.  The default queue holds one FIFO per CPU/GPU/DMA
traffic class, granted in weighted round-robin order by a
:class:`~repro.sim.arbiter.WrrArbiter`.  Banks track their open row: an
access that hits the open row pays ``row_hit_latency_cycles``, a row change
pays ``row_miss_latency_cycles``.  With ``scheduler="frfcfs"`` (row model
only) the queue is a :class:`~repro.sim.arbiter.FrFcfsQueue`: the oldest
*row-hit* is serviced ahead of older row-missing accesses, bounded by a
row-streak cap for starvation freedom.

Flow control (``queue_depth > 0``, contention model only): each bank's
queue is bounded; accesses beyond the bound spill to a per-bank overflow
FIFO, and while *any* overflow is non-empty the controller asserts
back-pressure through :meth:`set_stall_callback` (the builder wires it to
gate the directory's network input port).  Every grant frees a slot and
promotes the oldest spilled access, so the overflow always drains by memory
timing alone — the gate can never deadlock the fabric.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.mem.address import LINE_BYTES
from repro.mem.block import ZERO_LINE, LineData
from repro.sim.arbiter import FrFcfsQueue, WrrArbiter
from repro.sim.clock import ClockDomain
from repro.sim.component import Component
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator


class _Bank:
    """One DRAM bank: a scheduler queue (None for the in-order bank) plus
    open-row state, the grant bookkeeping and the bounded-mode overflow
    FIFO."""

    __slots__ = ("index", "queue", "open_row", "key", "busy", "free_at",
                 "overflow")

    def __init__(self, index: int, queue: WrrArbiter | FrFcfsQueue | None) -> None:
        self.index = index
        self.queue = queue
        self.open_row: int | None = None
        self.key = f"b{index}.accesses"
        #: scheduled bank: True while the gap timer will grant again
        self.busy = False
        #: in-order bank: tick at which the next access may start
        self.free_at = 0
        #: accesses spilled past the bounded queue depth, oldest first
        self.overflow: deque = deque()


class _Access:
    """One bank access (read, write, or masked write); each access is a
    fresh record."""

    __slots__ = ("kind", "addr", "callback", "enqueued_at", "cls")

    def __init__(self, kind: str, addr: int, callback, enqueued_at: int,
                 cls: str = "other") -> None:
        self.kind = kind          # "r" | "w"
        self.addr = addr
        self.callback = callback  # read: data consumer; write: completion or None
        self.enqueued_at = enqueued_at
        self.cls = cls            # WRR traffic class of the requester


class MainMemory(Component):
    """Backing store plus an ordered, bandwidth-limited channel."""

    def __init__(
        self,
        sim: "Simulator",
        clock: ClockDomain,
        latency_cycles: float = 160.0,
        gap_cycles: float = 10.0,
        name: str = "memory",
        num_banks: int = 1,
        row_bytes: int = 0,
        row_hit_latency_cycles: float | None = None,
        row_miss_latency_cycles: float | None = None,
        arb_weights: dict[str, int] | None = None,
        queue_depth: int = 0,
        scheduler: str = "fifo",
    ) -> None:
        super().__init__(sim, name, clock)
        if num_banks < 1:
            raise SimulationError(f"memory needs >= 1 bank, got {num_banks}")
        if row_bytes and (row_bytes < LINE_BYTES or row_bytes % LINE_BYTES):
            raise SimulationError(
                f"row_bytes must be 0 or a multiple of the {LINE_BYTES}-byte "
                f"line size, got {row_bytes}"
            )
        if scheduler not in ("fifo", "frfcfs"):
            raise SimulationError(f"unknown memory scheduler {scheduler!r}")
        if queue_depth < 0:
            raise SimulationError(f"queue_depth must be >= 0, got {queue_depth}")
        in_order = num_banks == 1 and not row_bytes
        if queue_depth and in_order:
            raise SimulationError(
                "bounded bank queues need the banked controller "
                "(num_banks > 1 or row_bytes > 0)"
            )
        if scheduler == "frfcfs" and not row_bytes:
            raise SimulationError(
                "the FR-FCFS scheduler needs the open-row model (row_bytes > 0)"
            )
        self.latency_cycles = latency_cycles
        self.gap_cycles = gap_cycles
        self.num_banks = num_banks
        self.row_bytes = row_bytes
        self.row_hit_latency_cycles = (
            latency_cycles if row_hit_latency_cycles is None
            else row_hit_latency_cycles
        )
        self.row_miss_latency_cycles = (
            latency_cycles if row_miss_latency_cycles is None
            else row_miss_latency_cycles
        )
        self._store: dict[int, LineData] = {}
        self._outstanding = 0
        self._frfcfs = scheduler == "frfcfs"
        self.queue_depth = queue_depth
        self._banks = [
            _Bank(i, None if in_order
                  else FrFcfsQueue(f"bank{i}", lambda a: a.addr // row_bytes)
                  if self._frfcfs else WrrArbiter(f"bank{i}", arb_weights))
            for i in range(num_banks)
        ]
        #: golden stats and benchmark digests pin both key names
        self._wait_key = "channel_wait_ticks" if in_order else "bank_wait_ticks"
        #: back-pressure hook: called with True when the first access
        #: spills to an overflow FIFO, False when the last one drains
        self._stall_cb: Callable[[bool], None] | None = None
        #: total spilled accesses across banks + stall-window start tick
        self._overflowed = 0
        self._stalled_since = 0
        #: ``source name -> traffic class`` classifier (set by the builder
        #: from the network's endpoint kinds); None classifies everything
        #: as "other".
        self._classifier: Callable[[str], str] | None = None
        #: own counters and the ``banks``/``classes`` children's, bound once
        #: (an empty child adds no key to ``as_dict()``)
        self._counters = self.stats._counters
        self._bank_counters = self.stats.child("banks")._counters
        self._class_counters = self.stats.child("classes")._counters

    def set_classifier(self, classifier: Callable[[str], str] | None) -> None:
        """Install the requester-name -> traffic-class mapping used by the
        banks' scheduler queues (no effect on the in-order channel)."""
        self._classifier = classifier

    def set_stall_callback(self, callback: Callable[[bool], None] | None) -> None:
        """Install the bounded-queue back-pressure hook (see module
        docstring): ``callback(True)`` when any bank overflows its bounded
        queue, ``callback(False)`` when the overflow fully drains."""
        self._stall_cb = callback

    # -- functional backing store ----------------------------------------

    def peek(self, addr: int) -> LineData:
        """Functional read with no timing side effects (for verification)."""
        return self._store.get(addr, ZERO_LINE)

    def poke(self, addr: int, data: LineData) -> None:
        """Functional write with no timing side effects (for initialization)."""
        self._store[addr] = data

    # -- timed accesses ----------------------------------------------------

    def read(
        self,
        addr: int,
        callback: Callable[[LineData], None],
        source: str | None = None,
    ) -> None:
        """Timed read; ``callback(data)`` fires after bank wait + latency.

        ``source`` (a network endpoint name) selects the WRR traffic class
        of a scheduled bank and is ignored by the in-order channel.
        """
        self._counters["reads"] += 1
        self._access("r", addr, callback, source)

    def write(
        self,
        addr: int,
        data: LineData,
        callback: Callable[[], None] | None = None,
        source: str | None = None,
    ) -> None:
        """Timed write; the store is updated at issue, so a later read
        cannot miss it, and ``callback()`` fires at the bank grant."""
        self._counters["writes"] += 1
        self._store[addr] = data
        self._access("w", addr, callback, source)

    def write_words(
        self,
        addr: int,
        updates: dict[int, int],
        callback: Callable[[], None] | None = None,
        source: str | None = None,
    ) -> None:
        """Timed partial-line write (byte-enable style): only the given
        words are updated, merged into the line at issue."""
        self.write(
            addr, self._store.get(addr, ZERO_LINE).merged(updates),
            callback, source,
        )

    def bank_of(self, addr: int) -> int:
        """Address-interleaved bank index (line address mod banks)."""
        return (addr // LINE_BYTES) % self.num_banks

    def _access(self, kind: str, addr: int, callback, source: str | None) -> None:
        """Put one access on its bank.

        The in-order bank grants it on arrival.  A scheduled bank queues it
        and starts its gap timer if idle; with bounded queues an access
        past the bound spills to the bank's overflow FIFO and (on the first
        spill) asserts back-pressure through the stall callback.
        """
        self._outstanding += 1
        bank = self._banks[self.bank_of(addr)]
        now = self.sim.events.now
        queue = bank.queue
        if queue is None:
            start = bank.free_at if bank.free_at > now else now
            bank.free_at = start + self.clock.cycles_to_ticks(self.gap_cycles)
            self._grant(bank, _Access(kind, addr, callback, now), start)
            return
        cls = "other"
        if source is not None and self._classifier is not None:
            cls = self._classifier(source)
        access = _Access(kind, addr, callback, now, cls)
        if self.queue_depth and len(queue) >= self.queue_depth:
            bank.overflow.append(access)
            self._counters["queue_overflows"] += 1
            self._overflowed += 1
            if self._overflowed == 1:
                self._stalled_since = now
                if self._stall_cb is not None:
                    self._stall_cb(True)
            return
        queue.enqueue(cls, access)
        if not bank.busy:
            self._next(bank)

    def _next(self, bank: _Bank) -> None:
        """Gap timer of a scheduled bank: grant the next access in
        scheduler order; the bank stays busy for ``gap_cycles`` before the
        following grant."""
        queue = bank.queue
        if self._frfcfs:
            access = queue.pick(bank.open_row)
        else:
            picked = queue.pick()
            access = picked[1] if picked is not None else None
        if access is None:
            bank.busy = False
            return
        bank.busy = True
        events = self.sim.events
        now = events.now
        self._bank_counters[bank.key] += 1
        self._class_counters[access.cls] += 1
        self._grant(bank, access, now)
        events.schedule(
            now + self.clock.cycles_to_ticks(self.gap_cycles),
            self._next, bank,
        )
        if bank.overflow:
            # the grant freed one bounded-queue slot: promote the oldest
            # spilled access, and release back-pressure once every
            # overflow FIFO is empty again
            promoted = bank.overflow.popleft()
            queue.enqueue(promoted.cls, promoted)
            self._overflowed -= 1
            if self._overflowed == 0:
                stalled = now - self._stalled_since
                if stalled:
                    self._counters["stalled_ticks"] += stalled
                if self._stall_cb is not None:
                    self._stall_cb(False)

    def _grant(self, bank: _Bank, access: _Access, start: int) -> None:
        """Start ``access`` on ``bank`` at tick ``start``: count its wait,
        apply the open-row timing, and schedule its completion (read data
        after the latency; a write at the grant itself, through the event
        queue so no callback re-enters the caller of read()/write())."""
        counters = self._counters
        wait = start - access.enqueued_at
        if wait:
            counters[self._wait_key] += wait
        if self.row_bytes:
            row = access.addr // self.row_bytes
            if bank.open_row == row:
                counters["row_hits"] += 1
                latency = self.row_hit_latency_cycles
            else:
                counters["row_misses"] += 1
                bank.open_row = row
                latency = self.row_miss_latency_cycles
        else:
            latency = self.latency_cycles
        if access.kind == "r":
            start += self.clock.cycles_to_ticks(latency)
        self.sim.events.schedule(start, self._complete, access)

    def _complete(self, access: _Access) -> None:
        self._outstanding -= 1
        if access.kind == "r":
            access.callback(self._store.get(access.addr, ZERO_LINE))
        elif access.callback is not None:
            access.callback()

    # -- bookkeeping -------------------------------------------------------

    def pending_work(self) -> str | None:
        if self._outstanding:
            return f"{self._outstanding} outstanding accesses"
        return None

    def blocked_snapshot(self) -> dict[str, int]:
        """``"overflow" -> stall-start tick`` while back-pressure is
        asserted (the watchdog's starvation probe; empty otherwise)."""
        if self._overflowed:
            return {"overflow": self._stalled_since}
        return {}

    def describe_queues(self) -> str:
        """Multi-line bank-queue dump for the watchdog's deadlock report
        (empty for the in-order channel, which queues nothing)."""
        lines = []
        for bank in self._banks:
            if bank.queue is None:
                continue
            depth = len(bank.queue)
            spilled = len(bank.overflow)
            if not depth and not spilled and not bank.busy:
                continue
            lines.append(
                f"bank {bank.index}: {depth} queued, {spilled} spilled, "
                f"busy={bank.busy}, open_row={bank.open_row}"
            )
        if self._overflowed:
            lines.append(
                f"back-pressure asserted since tick {self._stalled_since} "
                f"({self._overflowed} spilled access(es))"
            )
        return "\n".join(lines)
