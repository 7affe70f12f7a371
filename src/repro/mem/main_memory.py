"""Main-memory (DRAM) model.

The paper's directory talks to memory through a single *ordered* interface;
writes are non-blocking but occupy the channel, so extra write traffic (the
write-through LLC of the baseline) delays later reads.  We model exactly
that by default: a FIFO channel that admits one access every ``gap_cycles``
and returns read data after ``latency_cycles``.

Reads and writes are counted; those counters are the y-axis of Figure 5.

Contention model (``num_banks > 1`` or ``row_bytes > 0``): the controller
splits into address-interleaved banks (line address modulo ``num_banks``,
the same interleave as :class:`repro.coherence.banking.DirectoryMap`).  Each
bank has its own FIFO queues — one per CPU/GPU/DMA traffic class, granted in
weighted round-robin order by a :class:`~repro.sim.arbiter.WrrArbiter` — and
admits one access per ``gap_cycles``.  Banks track their open row: an access
that hits the open row pays ``row_hit_latency_cycles``, a row change pays
``row_miss_latency_cycles``.  Functional commit order is *issue order*
(writes apply to the backing store when accepted, reads capture data at
completion), so arbitration can reorder timing but never values — the same
write-before-read guarantee the single-channel model gives.  The default
configuration (1 bank, no row model) takes the original code path untouched
and is bit-identical to the committed golden stats.

Scheduler option (``scheduler="frfcfs"``, banked + row model only): each
bank replaces its WRR class queues with a :class:`~repro.sim.arbiter.
FrFcfsQueue` — the oldest *row-hit* is serviced ahead of older row-missing
accesses, bounded by a row-streak cap for starvation freedom.  Issue-order
commit makes the reordering timing-only.

Flow control (``queue_depth > 0``, banked only): each bank's queue is
bounded; accesses beyond the bound spill to a per-bank overflow FIFO, and
while *any* overflow is non-empty the controller asserts back-pressure
through :meth:`set_stall_callback` (the builder wires it to gate the
directory's network input port).  Every grant frees a slot and promotes
the oldest spilled access, so the overflow always drains by memory timing
alone — the gate can never deadlock the fabric.
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
    """One DRAM bank: a scheduler queue (WRR or FR-FCFS) plus open-row
    state, a busy flag, and the bounded-mode overflow FIFO."""

    __slots__ = ("index", "arb", "fr", "open_row", "key", "busy", "overflow")

    def __init__(self, index: int, weights: dict[str, int] | None,
                 frfcfs: bool) -> None:
        self.index = index
        self.arb = (
            None if frfcfs
            else WrrArbiter(f"bank{index}", dict(weights) if weights else None)
        )
        self.fr = FrFcfsQueue(f"bank{index}") if frfcfs else None
        self.open_row: int | None = None
        self.key = f"b{index}.accesses"
        #: True while a grant is in flight (the gap timer will re-grant)
        self.busy = False
        #: accesses spilled past the bounded queue depth, oldest first
        self.overflow: deque = deque()


class _Access:
    """One queued bank access (read, write, or masked write); each access
    is a fresh record."""

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
        banked = num_banks > 1 or row_bytes > 0
        if queue_depth and not banked:
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
        self._channel_free = 0
        self._outstanding = 0
        #: banked mode is any deviation from the paper's single ordered
        #: channel; the flat path below stays byte-for-byte the original.
        self._banked = banked
        self._frfcfs = scheduler == "frfcfs"
        self.queue_depth = queue_depth
        self._banks = (
            [_Bank(i, arb_weights, self._frfcfs) for i in range(num_banks)]
            if self._banked else []
        )
        #: FR-FCFS row accessor, bound once (avoids a lambda per pick)
        self._row_of = (
            (lambda access: access.addr // row_bytes) if row_bytes else None
        )
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
        banked WRR arbiters (no effect on the flat channel)."""
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

    # -- timed channel -----------------------------------------------------

    def _claim_channel(self) -> int:
        """Reserve the next channel slot; returns the access start tick."""
        start = max(self.now, self._channel_free)
        self._channel_free = start + self.clock.cycles_to_ticks(self.gap_cycles)
        wait = start - self.now
        if wait:
            self._counters["channel_wait_ticks"] += wait
        return start

    def read(
        self,
        addr: int,
        callback: Callable[[LineData], None],
        source: str | None = None,
    ) -> None:
        """Timed read; ``callback(data)`` fires after channel wait + latency.

        ``source`` (a network endpoint name) selects the WRR traffic class
        in banked mode and is ignored by the flat channel.
        """
        self._counters["reads"] += 1
        if self._banked:
            self._enqueue("r", addr, callback, source)
            return
        start = self._claim_channel()
        finish = start + self.clock.cycles_to_ticks(self.latency_cycles)
        self._outstanding += 1
        self.sim.events.schedule(
            finish, self._complete_read, 0, (addr, callback)
        )

    def _complete_read(self, rec: tuple) -> None:
        addr, callback = rec
        self._outstanding -= 1
        callback(self._store.get(addr, ZERO_LINE))

    def write(
        self,
        addr: int,
        data: LineData,
        callback: Callable[[], None] | None = None,
        source: str | None = None,
    ) -> None:
        """Timed write; the store is updated when the access starts (ordered
        channel, so a later read cannot pass it)."""
        self._write(addr, data, None, callback, source)

    def write_words(
        self,
        addr: int,
        updates: dict[int, int],
        callback: Callable[[], None] | None = None,
        source: str | None = None,
    ) -> None:
        """Timed partial-line write (byte-enable style): only the given
        words are updated, read-modify applied atomically at commit time."""
        self._write(addr, None, updates, callback, source)

    def _write(self, addr: int, data: LineData | None,
               updates: dict[int, int] | None, callback, source) -> None:
        """Shared body of :meth:`write` (``data``) and :meth:`write_words`
        (``data`` None, ``updates`` merged into the line at commit)."""
        self._counters["writes"] += 1
        if self._banked:
            # issue-order commit (see module doc)
            if data is None:
                data = self._store.get(addr, ZERO_LINE).merged(updates)
            self._store[addr] = data
            self._enqueue("w", addr, callback, source)
            return
        start = self._claim_channel()
        self._outstanding += 1
        self.sim.events.schedule(
            start, self._commit_write, 0, (addr, data, updates, callback)
        )

    def _commit_write(self, rec: tuple) -> None:
        addr, data, updates, callback = rec
        self._outstanding -= 1
        if data is None:
            data = self._store.get(addr, ZERO_LINE).merged(updates)
        self._store[addr] = data
        if callback is not None:
            callback()

    # -- banked channel ----------------------------------------------------

    def bank_of(self, addr: int) -> int:
        """Address-interleaved bank index (line address mod banks)."""
        return (addr // LINE_BYTES) % self.num_banks

    def _enqueue(self, kind: str, addr: int, callback, source: str | None) -> None:
        """Queue one access on its bank; start the bank if it is idle.

        With bounded queues an access past the bound spills to the bank's
        overflow FIFO and (on the first spill) asserts back-pressure
        through the stall callback.
        """
        self._outstanding += 1
        bank = self._banks[self.bank_of(addr)]
        cls = "other"
        if source is not None and self._classifier is not None:
            cls = self._classifier(source)
        access = _Access(kind, addr, callback, self.now, cls)
        if self.queue_depth and self._bank_depth(bank) >= self.queue_depth:
            bank.overflow.append(access)
            self._counters["queue_overflows"] += 1
            self._overflowed += 1
            if self._overflowed == 1:
                self._stalled_since = self.now
                if self._stall_cb is not None:
                    self._stall_cb(True)
            return
        self._admit(bank, access)

    def _bank_depth(self, bank: _Bank) -> int:
        """Admitted (non-overflow) queue depth of one bank."""
        return len(bank.fr) if self._frfcfs else bank.arb.pending()

    def _admit(self, bank: _Bank, access: _Access) -> None:
        """Place one access in the bank's scheduler queue; kick if idle."""
        if self._frfcfs:
            bank.fr.enqueue(access)
        else:
            bank.arb.enqueue(access.cls, access)
        if not bank.busy:
            self._bank_grant(bank)

    def _bank_pick(self, bank: _Bank) -> _Access | None:
        """Next access under the configured scheduling discipline."""
        if self._frfcfs:
            return bank.fr.pick(bank.open_row, self._row_of)
        picked = bank.arb.pick()
        return picked[1] if picked is not None else None

    def _bank_grant(self, bank: _Bank) -> None:
        """Admit the next access in scheduler order; the bank stays busy
        for ``gap_cycles`` before the following grant."""
        access = self._bank_pick(bank)
        if access is None:
            bank.busy = False
            return
        bank.busy = True
        events = self.sim.events
        now = events.now
        counters = self._counters
        wait = now - access.enqueued_at
        if wait:
            counters["bank_wait_ticks"] += wait
        self._bank_counters[bank.key] += 1
        self._class_counters[access.cls] += 1
        # open-row timing
        if self.row_bytes:
            row = access.addr // self.row_bytes
            if bank.open_row == row:
                counters["row_hits"] += 1
                latency = self.row_hit_latency_cycles
                if self._frfcfs:
                    bank.fr.note_row(True)
            else:
                counters["row_misses"] += 1
                bank.open_row = row
                latency = self.row_miss_latency_cycles
                if self._frfcfs:
                    bank.fr.note_row(False)
        else:
            latency = self.latency_cycles
        if access.kind == "r":
            events.schedule(
                now + self.clock.cycles_to_ticks(latency),
                self._bank_complete_read, 0, access,
            )
        else:
            # write data already committed at issue; completion is the
            # grant itself (non-blocking writes, as on the flat channel).
            # Scheduled (not called inline) so callbacks never re-enter the
            # caller of read()/write() synchronously.
            events.schedule(now, self._bank_complete_write, 0, access)
        events.schedule(
            now + self.clock.cycles_to_ticks(self.gap_cycles),
            self._bank_grant, 0, bank,
        )
        if bank.overflow:
            # the grant freed one bounded-queue slot: promote the oldest
            # spilled access, and release back-pressure once every
            # overflow FIFO is empty again
            promoted = bank.overflow.popleft()
            if self._frfcfs:
                bank.fr.enqueue(promoted)
            else:
                bank.arb.enqueue(promoted.cls, promoted)
            self._overflowed -= 1
            if self._overflowed == 0:
                stalled = now - self._stalled_since
                if stalled:
                    counters["stalled_ticks"] += stalled
                if self._stall_cb is not None:
                    self._stall_cb(False)

    def _bank_complete_read(self, access: _Access) -> None:
        self._outstanding -= 1
        access.callback(self._store.get(access.addr, ZERO_LINE))

    def _bank_complete_write(self, access: _Access) -> None:
        self._outstanding -= 1
        if access.callback is not None:
            access.callback()

    # -- bookkeeping -------------------------------------------------------

    @property
    def accesses(self) -> int:
        return int(self.stats["reads"] + self.stats["writes"])

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
        """Multi-line bank-queue dump for the watchdog's deadlock report."""
        if not self._banked:
            return ""
        lines = []
        for bank in self._banks:
            depth = self._bank_depth(bank)
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
