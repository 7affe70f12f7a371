"""The Texture Cache per Channel — the GPU's shared L2.

A Valid/Invalid cache with optional dirty bits (write-back mode, ``WB_L2``).
Behaviour per §II-C of the paper:

- Misses fetch lines from the directory with ``RdBlk``; if exclusive status
  is granted it is ignored.
- Write-through mode: stores are forwarded to the directory as word-masked
  ``WT`` requests; a cached copy is updated in place but stores never
  allocate.
- Write-back mode: stores allocate (fetch-on-write) and set per-word dirty
  masks; the dirty words are written back as word-masked ``WT`` requests on
  eviction (``is_writeback``: the line is relinquished) and on flush
  (kernel release / store-release: the clean line is retained).
- Device-scope (GLC) atomics execute here; system-scope (SLC) atomics
  bypass (non-inclusive behaviour) and run at the directory.
- Probes never extract *line* data (§II-C); an invalidating probe drops the
  line, but in write-back mode the word-granular dirty mask (the gem5
  byte-mask equivalent) rides in the ack so modified words are never lost
  under false sharing — see DESIGN.md for this substitution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.coherence.banking import DirectoryMap, as_directory_map
from repro.coherence.engine import TransitionTable
from repro.mem.block import LineData, mark_dirty
from repro.mem.cache_array import CacheArray
from repro.protocol.atomics import AtomicOp, apply_atomic
from repro.protocol.messages import Message
from repro.protocol.types import MsgType, ProbeType, RequesterKind, ViState
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator
    from repro.sim.network import Network


class TccError(SimulationError):
    pass


@dataclass
class _Mshr:
    waiters: list[Callable[[LineData], None]] = field(default_factory=list)


# -- VI protocol table --------------------------------------------------------

EV_FILL = "Fill"              #: directory data response (or refresh) installs
EV_PRB_INV = "PrbInv"
EV_PRB_DOWN = "PrbDown"
EV_EVICT = "Evict"            #: dirty capacity eviction (write-back + drop)
EV_SLC_BYPASS = "SlcBypass"   #: system-scope atomic bypasses the local copy
EV_FLUSH_LINE = "FlushLine"   #: flush cleans the line but retains it
EV_INV_ALL = "InvAll"         #: full-cache invalidate drops the line

_PROBE_EVENT = {ProbeType.INVALIDATE: EV_PRB_INV, ProbeType.DOWNGRADE: EV_PRB_DOWN}

#: enum members the handlers compare against or stamp, bound once (a class
#: lookup such as ``MsgType.WT`` is slow on CPython 3.11; see DESIGN.md)
_V, _I = ViState.V, ViState.I
_RDBLK, _WT, _ATOMIC, _FLUSH = MsgType.RDBLK, MsgType.WT, MsgType.ATOMIC, MsgType.FLUSH
_DATA_RESP, _WT_ACK, _PROBE = MsgType.DATA_RESP, MsgType.WT_ACK, MsgType.PROBE
_ATOMIC_RESP, _FLUSH_ACK = MsgType.ATOMIC_RESP, MsgType.FLUSH_ACK
_TCC = RequesterKind.TCC


def build_tcc_table() -> TransitionTable:
    """The TCC's Valid/Invalid table (§II-C), per-line.

    Stores are not transitions — they update data (and, in WB mode, the
    per-word dirty mask) without changing the V/I state.  Clean capacity
    displacement happens inside ``CacheArray.install`` and is likewise not
    a declared event (no message leaves the TCC for it).
    """
    V, I = ViState.V, ViState.I
    T = TccController
    table = TransitionTable(
        "tcc-vi",
        (I, V),
        (EV_FILL, EV_PRB_INV, EV_PRB_DOWN, EV_EVICT, EV_SLC_BYPASS,
         EV_FLUSH_LINE, EV_INV_ALL),
        initial=I,
    )
    table.on((I, V), EV_FILL, V, action=T._act_fill,
             note="miss fill allocates (evicting a dirty victim first); a "
                  "hit refreshes the data in place")
    table.on(V, EV_PRB_INV, I, action=T._act_probe_inv,
             note="drop the line; modified words ride in the ack (no line "
                  "data forwarding, §II-C)")
    table.on(I, EV_PRB_INV, I, action=T._act_probe_noop,
             note="no copy: ack had_copy=False")
    table.on(I, EV_PRB_DOWN, I, action=T._act_probe_noop,
             note="VI has nothing to downgrade: ack and keep state")
    table.on(V, EV_PRB_DOWN, V, action=T._act_probe_noop)
    table.on(V, EV_EVICT, I, action=T._act_evict,
             note="dirty capacity eviction: word-masked write-back (WT "
                  "is_writeback) relinquishes the line")
    table.on(V, EV_SLC_BYPASS, I, action=T._act_slc_bypass,
             note="SLC atomic bypass: invalidate, carrying dirty words along")
    table.on(V, EV_FLUSH_LINE, V, action=T._act_flush_line,
             note="flush writes dirty words back but retains the clean line")
    table.on(V, EV_INV_ALL, I, action=T._act_inv_all,
             note="full-cache invalidate (dirty data dropped by design)")
    table.illegal(I, (EV_EVICT, EV_SLC_BYPASS, EV_FLUSH_LINE, EV_INV_ALL),
                  note="these events only exist for resident lines")
    return table


class TccController(Controller):
    """Network endpoint of kind ``"tcc"``."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        network: "Network",
        dir_name: "str | DirectoryMap",
        geometry: tuple[int, int] = (256 * 2**10, 16),
        latency_cycles: float = 8.0,
        writeback: bool = False,
        service_cycles: float = 1.0,
    ) -> None:
        super().__init__(sim, name, clock, service_cycles=service_cycles)
        self.network = network
        self.dir_map = as_directory_map(dir_name)
        self.array = CacheArray.from_geometry(*geometry)
        self.latency_cycles = latency_cycles
        self._latency_ticks = clock.cycles_to_ticks(latency_cycles)
        self.writeback = writeback
        self._mshrs: dict[int, _Mshr] = {}
        #: WT acks awaited per address.
        self._wt_pending: dict[int, int] = {}
        self._wt_outstanding = 0
        self._drain_waiters: list[Callable[[], None]] = []
        self._atomic_pending: dict[int, deque[Callable[[int], None]]] = {}
        #: FIFO of in-flight fences: [outstanding bank acks, callback]
        self._flush_pending: list[list] = []
        self._counters = self.stats._counters

    def fsm_tables(self):
        """The declared tables this controller dispatches through."""
        return (_TCC_TABLE,)

    # -- CU-facing interface ----------------------------------------------------

    def _claim(self) -> int:
        start = max(self.now, self._next_free)
        self._next_free = start + self._service_ticks
        return start + self._latency_ticks

    def fetch(self, line: int, callback: Callable[[LineData], None]) -> None:
        """Read a full line (TCP miss or SQC miss path)."""
        ready = self._claim()

        def run() -> None:
            cached = self.array.lookup(line)
            if cached is not None:
                self._counters["hits"] += 1
                callback(cached.data)
                return
            self._counters["misses"] += 1
            mshr = self._mshrs.get(line)
            if mshr is not None:
                mshr.waiters.append(callback)
                return
            self._mshrs[line] = _Mshr(waiters=[callback])
            self.network.send(
                Message.request(
                    _RDBLK, self.name, self.dir_map.bank_of(line), line, _TCC
                )
            )

        self.events.schedule(ready, run)

    def write(
        self, line: int, updates: dict[int, int], callback: Callable[[], None]
    ) -> None:
        """A (coalesced) store from a TCP.  ``callback`` fires when the
        store retires for the wavefront: write-through mode retires once the
        WT is issued (store-buffer semantics; use :meth:`drain` for
        visibility), write-back mode once the TCC line is written."""
        ready = self._claim()

        def run() -> None:
            self._counters["writes"] += 1
            if self.writeback:
                self._write_back_mode(line, updates, callback)
            else:
                cached = self.array.lookup(line)
                if cached is not None:
                    cached.data = cached.data.merged(updates)
                self._send_wt(line, word_updates=dict(updates))
                callback()

        self.events.schedule(ready, run)

    def _write_back_mode(
        self, line: int, updates: dict[int, int], callback: Callable[[], None]
    ) -> None:
        cached = self.array.lookup(line)
        if cached is not None:
            mark_dirty(cached, updates)
            callback()
            return
        # Fetch-on-write: allocate the full line, then apply.
        def on_fill(_data: LineData) -> None:
            filled = self.array.lookup(line)
            if filled is None:  # probed away between fill and apply: refetch
                self._write_back_mode(line, updates, callback)
                return
            mark_dirty(filled, updates)
            callback()

        self.fetch(line, on_fill)

    def atomic(
        self,
        line: int,
        word: int,
        op: AtomicOp,
        operand: int,
        compare: int,
        scope: str,
        callback: Callable[[int], None],
    ) -> None:
        """A GPU atomic: GLC executes here, SLC at the directory."""
        ready = self._claim()

        def run() -> None:
            if scope == "slc":
                self._slc_atomic(line, word, op, operand, compare, callback)
            elif scope == "glc":
                self._glc_atomic(line, word, op, operand, compare, callback)
            else:
                raise TccError(f"unknown atomic scope {scope!r}")

        self.events.schedule(ready, run)

    def _slc_atomic(self, line, word, op, operand, compare, callback) -> None:
        self._counters["slc_atomics"] += 1
        # SLC requests bypass the TCC (non-inclusive behaviour): drop any
        # local copy so we never serve stale data for this line.
        carried: dict[int, int] | None = None
        if self.array.lookup(line, touch=False) is not None:
            ctx: dict = {"line": line}
            _TCC_TABLE.fire(_V, EV_SLC_BYPASS, self, line, ctx)
            carried = ctx.get("carried")
        self._atomic_pending.setdefault(line, deque()).append(callback)
        self.network.send(
            Message.request(
                _ATOMIC, self.name, self.dir_map.bank_of(line), line, _TCC,
                atomic_op=op, operand=operand, compare=compare, word=word,
                word_updates=carried,
            )
        )

    def _glc_atomic(self, line, word, op, operand, compare, callback) -> None:
        self._counters["glc_atomics"] += 1
        cached = self.array.lookup(line)
        if cached is None:
            self.fetch(
                line,
                lambda _d: self._glc_atomic(line, word, op, operand, compare, callback),
            )
            return
        new_data, old = apply_atomic(cached.data, word, op, operand, compare)
        if self.writeback:
            mark_dirty(cached, {word: new_data.word(word)})
        else:
            cached.data = new_data
            self._send_wt(line, word_updates={word: new_data.word(word)})
        callback(old)

    # -- visibility: drain / flush / release ------------------------------------------

    def drain(self, callback: Callable[[], None]) -> None:
        """Fire when all outstanding WTs have been acked by the directory."""
        if self._wt_outstanding == 0:
            callback()
        else:
            self._drain_waiters.append(callback)

    def flush(self, callback: Callable[[], None]) -> None:
        """Write back every dirty line (WB mode), then drain."""
        if self.writeback:
            for cached in self.array.iter_valid():
                if cached.dirty:
                    _TCC_TABLE.fire(
                        _V, EV_FLUSH_LINE, self, cached.addr, cached
                    )
        self.drain(callback)

    def _act_flush_line(self, cached) -> None:
        # A flush *cleans* the line but retains it, so the directory must
        # keep tracking the TCC (streaming-WT semantics, is_writeback=False);
        # only capacity evictions relinquish the line.
        self._counters["flush_writebacks"] += 1
        self._send_wt(cached.addr, word_updates=cached.data.pick(cached.meta))
        cached.dirty = False
        cached.meta = None
        return None  # stays V

    def release(self, callback: Callable[[], None]) -> None:
        """Kernel-release: flush, then a directory Flush as the fence."""

        def after_flush() -> None:
            banks = self.dir_map.all_banks()
            self._flush_pending.append([len(banks), callback])
            for bank in banks:
                self.network.send(
                    Message.request(_FLUSH, self.name, bank, 0, _TCC)
                )

        self.flush(after_flush)

    def invalidate_all(self) -> None:
        """Drop every line (clean or dirty) — full-cache invalidate."""
        for cached in list(self.array.iter_valid()):
            _TCC_TABLE.fire(_V, EV_INV_ALL, self, cached.addr, cached)

    def _act_inv_all(self, cached) -> ViState:
        if cached.dirty:
            self._counters["dropped_dirty_on_invalidate"] += 1
        self.array.invalidate(cached.addr)
        return _I

    # -- WT plumbing -----------------------------------------------------------------------

    def _send_wt(
        self,
        line: int,
        word_updates: dict[int, int],
        is_writeback: bool = False,
    ) -> None:
        self._wt_outstanding += 1
        self._wt_pending[line] = self._wt_pending.get(line, 0) + 1
        self.network.send(
            Message.request(
                _WT, self.name, self.dir_map.bank_of(line), line, _TCC,
                word_updates=word_updates, is_writeback=is_writeback,
            )
        )

    # -- network messages ---------------------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is _DATA_RESP:
            self._on_fill(msg)
        elif mtype is _WT_ACK:
            self._on_wt_ack(msg)
        elif mtype is _ATOMIC_RESP:
            self._on_atomic_resp(msg)
        elif mtype is _FLUSH_ACK:
            self._on_flush_ack(msg)
        elif mtype is _PROBE:
            self._on_probe(msg)
        else:
            raise TccError(f"{self.name} received unexpected {msg!r}")

    def _on_fill(self, msg: Message) -> None:
        mshr = self._mshrs.pop(msg.addr, None)
        if mshr is None:
            raise TccError(f"{self.name}: fill without MSHR: {msg!r}")
        if msg.data is None:
            raise TccError(f"{self.name}: fill without data: {msg!r}")
        self._install(msg.addr, msg.data)
        for waiter in mshr.waiters:
            waiter(msg.data)

    def _install(self, line: int, data: LineData) -> None:
        prev = _I if self.array.lookup(line) is None else _V
        _TCC_TABLE.fire(prev, EV_FILL, self, line, (line, data))

    def _act_fill(self, ctx: tuple) -> ViState:
        line, data = ctx
        existing = self.array.lookup(line)
        if existing is not None:
            existing.data = data
            return _V
        victim = self.array.choose_victim(line)
        if victim.valid and victim.dirty:
            # Capacity eviction of a dirty line: write back its dirty words.
            _TCC_TABLE.fire(_V, EV_EVICT, self, victim.addr, victim.addr)
        # a clean capacity displacement is silent (no protocol event)
        self.array.fill(victim, line, _V, data)
        return _V

    def _act_evict(self, addr: int) -> ViState:
        self._counters["dirty_evictions"] += 1
        snapshot = self.array.invalidate(addr)
        self._send_wt(
            snapshot.addr, word_updates=snapshot.data.pick(snapshot.meta),
            is_writeback=True,
        )
        return _I

    def _act_slc_bypass(self, ctx: dict) -> ViState:
        snapshot = self.array.invalidate(ctx["line"])
        if snapshot.dirty and snapshot.meta:
            # carry our dirty words along so the bypass does not lose them
            carried = snapshot.data.pick(snapshot.meta)
            self._counters["dirty_words_carried_on_bypass"] += len(carried)
            ctx["carried"] = carried
        return _I

    def _on_wt_ack(self, msg: Message) -> None:
        pending = self._wt_pending.get(msg.addr)
        if not pending:
            raise TccError(f"{self.name}: WT ack without pending WT: {msg!r}")
        if pending == 1:
            del self._wt_pending[msg.addr]
        else:
            self._wt_pending[msg.addr] = pending - 1
        self._wt_outstanding -= 1
        if self._wt_outstanding == 0 and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter()

    def _on_atomic_resp(self, msg: Message) -> None:
        queue = self._atomic_pending.get(msg.addr)
        if not queue:
            raise TccError(f"{self.name}: atomic resp without request: {msg!r}")
        callback = queue.popleft()
        if not queue:
            del self._atomic_pending[msg.addr]
        callback(msg.result)

    def _on_flush_ack(self, msg: Message) -> None:
        if not self._flush_pending:
            raise TccError(f"{self.name}: flush ack without flush: {msg!r}")
        fence = self._flush_pending[0]
        fence[0] -= 1
        if fence[0] == 0:
            self._flush_pending.pop(0)
            fence[1]()

    def _on_probe(self, msg: Message) -> None:
        self._counters["probes_received"] += 1
        event = _PROBE_EVENT.get(msg.probe_type)
        if event is None:
            raise TccError(f"{self.name}: bad probe {msg!r}")
        cached = self.array.lookup(msg.addr, touch=False)
        prev = _I if cached is None else _V
        _TCC_TABLE.fire(prev, event, self, msg.addr, (msg, cached))

    def _act_probe_inv(self, ctx: tuple) -> ViState:
        msg, cached = ctx
        forwarded: dict[int, int] | None = None
        if cached.dirty and cached.meta:
            # The TCC never forwards *line* data on probes (§II-C), but
            # its word-granular dirty mask must not be lost under false
            # sharing: the modified words ride in the ack (the gem5
            # byte-mask equivalent; see DESIGN.md).
            forwarded = cached.data.pick(cached.meta)
            self._counters["dirty_words_forwarded_on_probe"] += len(forwarded)
        self.array.invalidate(msg.addr)
        self.network.send(
            Message.probe_ack(
                self.name, msg.src, msg.addr, msg.tid, had_copy=True,
                word_updates=forwarded,
            )
        )
        return _I

    def _act_probe_noop(self, ctx: tuple) -> None:
        msg, cached = ctx
        self.network.send(
            Message.probe_ack(
                self.name, msg.src, msg.addr, msg.tid,
                had_copy=cached is not None,
            )
        )
        return None  # state unchanged

    # -- bookkeeping -----------------------------------------------------------------------------

    def close(self) -> None:
        super().close()
        self._mshrs.clear()
        self._wt_pending.clear()
        self._drain_waiters.clear()
        self._atomic_pending.clear()
        self._flush_pending.clear()

    def pending_work(self) -> str | None:
        parts = []
        if self._mshrs:
            parts.append(f"{len(self._mshrs)} MSHRs")
        if self._wt_outstanding:
            parts.append(f"{self._wt_outstanding} WTs in flight")
        if self._atomic_pending:
            parts.append("atomics in flight")
        if self._flush_pending:
            parts.append("flush in flight")
        return ", ".join(parts) or None


#: shared by every TCC (immutable once built; built here because the rows
#: bind the action methods above)
_TCC_TABLE = build_tcc_table()
