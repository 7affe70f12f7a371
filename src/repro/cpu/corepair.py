"""The CorePair: two CPU cores behind a shared, inclusive MOESI L2.

Per §II-B of the paper, a CorePair has two cores, a dedicated L1D per core,
a shared context-sensitive L1I, and a shared inclusive L2.  Coherence is
enforced at the L2: lines can be M/O/E/S/I, exclusive lines silently turn
modified, evictions send VicDirty (M/O) or VicClean (E/S) — making eviction
traffic "noisy" — and the CorePair answers directory probes:

- downgrade: M→O with dirty data, O stays O with dirty data, E→S silently
  (clean, no data forwarded), S acks without data;
- invalidate: M/O forward dirty data, everything drops to I (including L1
  copies, for inclusivity).

The L1s are latency filters: data and permissions live in the L2 (the L1D
is modelled write-through into the L2), which is how probes can be answered
at the L2 alone.  A line with an in-flight victim ("vic-pending") still
answers probes with its data — the race resolution the directory relies on
to drop the later-arriving stale victim safely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.coherence.banking import DirectoryMap, as_directory_map
from repro.coherence.engine import TransitionTable
from repro.mem.address import line_addr, word_index
from repro.mem.block import LineData
from repro.mem.cache_array import CacheArray
from repro.protocol.atomics import AtomicOp, apply_atomic
from repro.protocol.messages import Message
from repro.protocol.types import (
    DIRTY_STATES,
    READABLE_STATES,
    WRITABLE_STATES,
    MoesiState,
    MsgType,
    ProbeType,
    RequesterKind,
)
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator
    from repro.sim.network import Network


class CorePairError(SimulationError):
    pass


class CpuRequest(NamedTuple):
    """One core-side memory operation presented to the CorePair."""

    kind: str  # "load" | "store" | "atomic" | "ifetch"
    addr: int
    value: int = 0
    atomic_op: AtomicOp | None = None
    operand: int = 0
    compare: int = 0


#: per-kind stat counter names, prebuilt so ``access`` never formats one;
#: also the set of kinds ``access`` accepts.
_OPS_KEY = {kind: f"ops.{kind}" for kind in ("load", "store", "atomic", "ifetch")}
_MISS_KEY = {want: f"misses.{want}" for want in ("r", "w", "i")}

#: enum members the hot paths compare against, bound once (a class lookup
#: such as ``MoesiState.M`` is slow on CPython 3.11; see DESIGN.md)
_M, _O, _S, _I = MoesiState.M, MoesiState.O, MoesiState.S, MoesiState.I
_DATA_RESP, _PROBE, _WB_ACK = MsgType.DATA_RESP, MsgType.PROBE, MsgType.WB_ACK
_VIC_DIRTY, _VIC_CLEAN = MsgType.VIC_DIRTY, MsgType.VIC_CLEAN
_CPU_L2 = RequesterKind.CPU_L2


@dataclass
class _Mshr:
    kind: str  # "r" | "w" | "i"
    waiters: list[tuple[int, CpuRequest, Callable]] = field(default_factory=list)


@dataclass
class _PendingVictim:
    data: LineData
    dirty: bool
    waiters: list[tuple[int, CpuRequest, Callable]] = field(default_factory=list)


_MISS_REQUEST = {"r": MsgType.RDBLK, "w": MsgType.RDBLKM, "i": MsgType.RDBLKS}

# -- MOESI protocol table -----------------------------------------------------

#: pseudo-state for a line whose victim is in flight (invalid in the L2
#: array, but still answering probes out of the victim buffer)
VIC_PENDING = "VP"

EV_FILL = "Fill"        #: directory data response installs the line
EV_STORE = "Store"      #: a store hit on a non-M line (the silent E->M edge)
EV_PRB_DOWN = "PrbDown"
EV_PRB_INV = "PrbInv"
EV_EVICT = "Evict"      #: capacity eviction out of the L2 array
EV_WB_ACK = "WBAck"     #: directory acknowledged the victim

_PROBE_EVENT = {ProbeType.DOWNGRADE: EV_PRB_DOWN, ProbeType.INVALIDATE: EV_PRB_INV}


def build_corepair_table() -> TransitionTable:
    """The CorePair L2's MOESI table (§II-B), per-line.

    M-hit stores are deliberately *not* modelled as transitions (M x Store
    is declared illegal): they change no state and sit on the hottest path.
    The one store transition that exists is the silent E -> M upgrade.
    """
    M, O, E, S, I = (MoesiState.M, MoesiState.O, MoesiState.E,
                     MoesiState.S, MoesiState.I)
    C = CorePair
    table = TransitionTable(
        "corepair-moesi",
        (I, S, E, O, M, VIC_PENDING),
        (EV_FILL, EV_STORE, EV_PRB_DOWN, EV_PRB_INV, EV_EVICT, EV_WB_ACK),
        initial=I,
    )
    table.on(I, EV_FILL, (M, E, S), action=C._act_fill,
             note="miss fill with the directory-granted state")
    table.on((S, O), EV_FILL, M, action=C._act_fill,
             note="upgrade fill (RdBlkM): local data kept, permission raised")
    table.on(E, EV_STORE, M, action=C._act_store,
             note="silent E->M: no message leaves the CorePair")
    table.on((M, O), EV_PRB_DOWN, O, action=C._act_down_dirty,
             note="downgrade with dirty data; this copy keeps write-back duty")
    table.on(E, EV_PRB_DOWN, S, action=C._act_down_e,
             note="clean downgrade: no data forwarded (dir falls back to LLC)")
    table.on(S, EV_PRB_DOWN, S, action=C._act_down_s)
    table.on(I, (EV_PRB_DOWN, EV_PRB_INV), I, action=C._act_probe_miss,
             note="no copy: ack had_copy=False")
    table.on((M, O), EV_PRB_INV, I, action=C._act_inv,
             note="invalidate forwarding the dirty line")
    table.on((E, S), EV_PRB_INV, I, action=C._act_inv)
    table.on(VIC_PENDING, (EV_PRB_DOWN, EV_PRB_INV), VIC_PENDING,
             action=C._act_probe_vic,
             note="probe answered from the victim buffer (from_victim ack "
                  "lets system writes drop the superseded Vic*)")
    table.on((M, O, E, S), EV_EVICT, VIC_PENDING, action=C._act_evict,
             note="capacity eviction: VicDirty (M/O) or VicClean (E/S)")
    table.on(VIC_PENDING, EV_WB_ACK, I, action=C._act_wb_ack,
             note="victim acknowledged; parked requests replay")
    table.illegal(M, EV_STORE, note="M-hit stores are silent (no transition)")
    table.illegal((O, S, I, VIC_PENDING), EV_STORE,
                  note="stores need write permission: these states miss")
    table.illegal((M, E, VIC_PENDING), EV_FILL,
                  note="M/E never miss; vic-pending lines park requests")
    table.illegal((I, VIC_PENDING), EV_EVICT,
                  note="only resident lines are eviction victims")
    table.illegal((M, O, E, S, I), EV_WB_ACK,
                  note="WB ack without a pending victim")
    return table


class CorePair(Controller):
    """Network endpoint of kind ``"l2"`` embedding the whole CorePair."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        network: "Network",
        dir_name: "str | DirectoryMap",
        l2_geometry: tuple[int, int] = (2 * 2**20, 8),
        l1d_geometry: tuple[int, int] = (64 * 2**10, 2),
        l1i_geometry: tuple[int, int] = (32 * 2**10, 2),
        l1_latency: float = 1.0,
        l2_latency: float = 8.0,
        service_cycles: float = 1.0,
    ) -> None:
        super().__init__(sim, name, clock, service_cycles=service_cycles)
        self.network = network
        self.dir_map = as_directory_map(dir_name)
        self.l2 = CacheArray.from_geometry(*l2_geometry)
        self.l1d = [
            CacheArray.from_geometry(*l1d_geometry),
            CacheArray.from_geometry(*l1d_geometry),
        ]
        self.l1i = CacheArray.from_geometry(*l1i_geometry)
        #: hit latencies in ticks, converted once (like ``_service_ticks``);
        #: an L2 hit converts the L1+L2 sum as one value.
        self._l1_hit_ticks = clock.cycles_to_ticks(l1_latency)
        self._l2_hit_ticks = clock.cycles_to_ticks(l1_latency + l2_latency)
        self._counters = self.stats._counters
        self._mshrs: dict[int, _Mshr] = {}
        self._vic_pending: dict[int, _PendingVictim] = {}
        #: the MOESI table this instance dispatches through.  Normally the
        #: shared module table; tests overlay a mutated copy here (before
        #: any traffic) to inject protocol faults for the litmus minimizer.
        #: Each fire starts from the state read from the L2 array or the
        #: victim buffer, the authoritative copy.
        self.moesi_table: TransitionTable = _COREPAIR_TABLE

    def fsm_tables(self):
        """The declared tables this controller dispatches through."""
        return (self.moesi_table,)

    # -- core-facing interface -------------------------------------------------

    def access(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        """Submit a memory op from core ``slot`` (0 or 1); serialized with
        incoming probe traffic on the shared L2 controller."""
        if slot not in (0, 1):
            raise CorePairError(f"bad core slot {slot}")
        key = _OPS_KEY.get(request.kind)
        if key is None:
            raise CorePairError(f"unknown request kind {request.kind!r}")
        self._counters[key] += 1
        events = self.events
        start = self._next_free
        if start < events.now:
            start = events.now
        self._next_free = start + self._service_ticks
        events.schedule(start, self._execute_queued, 0, (slot, request, callback))

    # -- execution ---------------------------------------------------------------

    def _execute_queued(self, queued: tuple) -> None:
        """Event-queue shim: unpack a queued ``(slot, request, callback)``."""
        self._execute(*queued)

    def _execute(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        pending = self._vic_pending.get(line_addr(request.addr))
        if pending is not None:
            pending.waiters.append((slot, request, callback))
            return
        # ``access`` admitted only known kinds
        _EXECUTE[request.kind](self, slot, request, callback)

    def _hit_ticks(self, slot: int, line: int, icache: bool = False) -> int:
        """L1 hit latency in ticks, else L1+L2 (and fill the L1)."""
        l1 = self.l1i if icache else self.l1d[slot]
        if l1.lookup(line) is not None:
            self._counters["l1i_hits" if icache else "l1d_hits"] += 1
            return self._l1_hit_ticks
        l1.install(line, state=True)
        self._counters["l2_hits"] += 1
        return self._l2_hit_ticks

    def _do_load(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or cached.state not in READABLE_STATES:
            self._miss(slot, request, callback, want="r")
            return
        ticks = self._hit_ticks(slot, line)

        def finish() -> None:
            again = self.l2.lookup(line)
            if again is None or again.state not in READABLE_STATES:
                self._execute(slot, request, callback)  # lost to a probe; retry
                return
            callback(again.data.word(word_index(request.addr)))

        events = self.events
        events.schedule(events.now + ticks, finish)

    def _do_store(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or cached.state not in WRITABLE_STATES:
            self._miss(slot, request, callback, want="w")
            return
        ticks = self._hit_ticks(slot, line)

        def finish() -> None:
            again = self.l2.lookup(line)
            if again is None or again.state not in WRITABLE_STATES:
                self._execute(slot, request, callback)
                return
            again.data = again.data.with_word(word_index(request.addr), request.value)
            if again.state is not _M:
                # silent E->M
                self.moesi_table.fire(again.state, EV_STORE, self, line, again)
            callback(None)

        events = self.events
        events.schedule(events.now + ticks, finish)

    def _act_store(self, cached) -> MoesiState:
        cached.state = _M
        cached.dirty = True
        return _M

    def _do_atomic(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or cached.state not in WRITABLE_STATES:
            self._miss(slot, request, callback, want="w")
            return
        ticks = self._hit_ticks(slot, line)

        def finish() -> None:
            again = self.l2.lookup(line)
            if again is None or again.state not in WRITABLE_STATES:
                self._execute(slot, request, callback)
                return
            new_data, old = apply_atomic(
                again.data, word_index(request.addr),
                request.atomic_op, request.operand, request.compare,
            )
            again.data = new_data
            if again.state is not _M:
                # silent E->M
                self.moesi_table.fire(again.state, EV_STORE, self, line, again)
            callback(old)

        events = self.events
        events.schedule(events.now + ticks, finish)

    def _do_ifetch(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or cached.state not in READABLE_STATES:
            self._miss(slot, request, callback, want="i")
            return
        ticks = self._hit_ticks(slot, line, icache=True)
        events = self.events
        events.schedule(events.now + ticks, callback, 0, None)

    # -- misses ----------------------------------------------------------------------

    def _miss(self, slot: int, request: CpuRequest, callback: Callable, want: str) -> None:
        line = line_addr(request.addr)
        mshr = self._mshrs.get(line)
        if mshr is not None:
            mshr.waiters.append((slot, request, callback))
            self._counters["mshr_merges"] += 1
            return
        mshr = _Mshr(kind=want)
        mshr.waiters.append((slot, request, callback))
        self._mshrs[line] = mshr
        counters = self._counters
        counters["misses"] += 1
        counters[_MISS_KEY[want]] += 1
        self.network.send(
            Message.request(
                _MISS_REQUEST[want], self.name, self.dir_map.bank_of(line), line,
                _CPU_L2,
            )
        )

    # -- network messages ---------------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is _PROBE:
            self._on_probe(msg)
        elif mtype is _DATA_RESP:
            self._on_data_resp(msg)
        elif mtype is _WB_ACK:
            self._on_wb_ack(msg)
        else:
            raise CorePairError(f"{self.name} received unexpected {msg!r}")

    def _on_data_resp(self, msg: Message) -> None:
        line = msg.addr
        mshr = self._mshrs.pop(line, None)
        if mshr is None:
            raise CorePairError(f"{self.name}: response without MSHR: {msg!r}")
        data = msg.data
        existing = self.l2.lookup(line)
        if existing is not None and existing.state in READABLE_STATES:
            # Upgrade (S/O -> M): our own copy is the current one — an O
            # copy is dirty w.r.t. the memory data the response may carry,
            # and no third cache can hold anything newer while we are a
            # holder.  Response data (if any) must not clobber it.
            data = existing.data
        if data is None:
            raise CorePairError(
                f"{self.name}: data-less response but no local copy: {msg!r}"
            )
        # word-granular dirty data forwarded by probed VI caches
        data = data.merged(msg.word_updates)
        if msg.state is None or msg.state is _I:
            raise CorePairError(f"{self.name}: bad granted state in {msg!r}")
        prev = _I if existing is None else existing.state
        self.moesi_table.fire(prev, EV_FILL, self, line, (line, msg.state, data))
        self.network.send(Message.unblock(self.name, msg.src, line, msg.tid))
        for slot, request, callback in mshr.waiters:
            self._execute(slot, request, callback)

    def _act_fill(self, ctx: tuple) -> MoesiState:
        line, state, data = ctx
        self._install_line(line, state, data)
        return state

    def _install_line(self, line: int, state: MoesiState, data: LineData) -> None:
        l2 = self.l2
        if l2.lookup(line, touch=False) is not None:
            l2.install(line, state=state, data=data, dirty=state in DIRTY_STATES)
            return
        victim = l2.choose_victim(
            line, cost_of=lambda cl: 1 if cl.addr in self._mshrs else 0
        )
        if victim.valid:
            if victim.addr in self._mshrs:
                raise CorePairError(
                    f"{self.name}: L2 set exhausted by outstanding misses"
                )
            snapshot = l2.invalidate(victim.addr)
            self.moesi_table.fire(
                snapshot.state, EV_EVICT, self, snapshot.addr, snapshot
            )
        l2.fill(victim, line, state, data, state in DIRTY_STATES)

    def _act_evict(self, snapshot) -> str:
        self._send_victim(snapshot)
        return VIC_PENDING

    def _send_victim(self, snapshot) -> None:
        dirty = snapshot.state in DIRTY_STATES
        self._counters["victims.dirty" if dirty else "victims.clean"] += 1
        self._vic_pending[snapshot.addr] = _PendingVictim(snapshot.data, dirty)
        self._drop_l1_copies(snapshot.addr)
        mtype = _VIC_DIRTY if dirty else _VIC_CLEAN
        self.network.send(
            Message.request(
                mtype, self.name, self.dir_map.bank_of(snapshot.addr), snapshot.addr,
                _CPU_L2, data=snapshot.data,
            )
        )

    def _on_wb_ack(self, msg: Message) -> None:
        pending = self._vic_pending.get(msg.addr)
        if pending is None:
            raise CorePairError(f"{self.name}: WB ack without pending victim: {msg!r}")
        self.moesi_table.fire(
            VIC_PENDING, EV_WB_ACK, self, msg.addr, (msg.addr, pending)
        )

    def _act_wb_ack(self, ctx: tuple) -> MoesiState:
        addr, pending = ctx
        del self._vic_pending[addr]
        for slot, request, callback in pending.waiters:
            self._execute(slot, request, callback)
        return _I

    # -- probes ------------------------------------------------------------------------------

    def _on_probe(self, msg: Message) -> None:
        self._counters["probes_received"] += 1
        event = _PROBE_EVENT.get(msg.probe_type)
        if event is None:
            raise CorePairError(f"bad probe {msg!r}")
        line = msg.addr
        pending = self._vic_pending.get(line)
        if pending is not None:
            self.moesi_table.fire(VIC_PENDING, event, self, line, (msg, pending))
            return
        cached = self.l2.lookup(line, touch=False)
        prev = _I if cached is None else cached.state
        self.moesi_table.fire(prev, event, self, line, (msg, cached))

    def _act_probe_vic(self, ctx: tuple) -> str:
        # Vic in flight: forward the data so the directory never depends
        # on the (soon stale-dropped) victim message, and flag its origin
        # so system-level writes know to drop the superseded victim.
        msg, pending = ctx
        self._ack(msg, data=pending.data if pending.dirty else None,
                  dirty=pending.dirty, had_copy=True, from_victim=True)
        return VIC_PENDING

    def _act_probe_miss(self, ctx: tuple) -> MoesiState:
        self._ack(ctx[0], had_copy=False)
        return _I

    def _act_down_dirty(self, ctx: tuple) -> MoesiState:
        msg, cached = ctx
        cached.state = _O
        self._ack(msg, data=cached.data, dirty=True, had_copy=True)
        return _O

    def _act_down_e(self, ctx: tuple) -> MoesiState:
        msg, cached = ctx
        cached.state = _S
        self._ack(msg, had_copy=True)
        return _S

    def _act_down_s(self, ctx: tuple) -> MoesiState:
        self._ack(ctx[0], had_copy=True)
        return _S

    def _act_inv(self, ctx: tuple) -> MoesiState:
        msg, cached = ctx
        dirty = cached.state in DIRTY_STATES
        data = cached.data if dirty else None
        self.l2.invalidate(msg.addr)
        self._drop_l1_copies(msg.addr)
        self._counters["probe_invalidations"] += 1
        self._ack(msg, data=data, dirty=dirty, had_copy=True)
        return _I

    def _ack(self, probe: Message, data: LineData | None = None,
             dirty: bool = False, had_copy: bool = False,
             from_victim: bool = False) -> None:
        self.network.send(
            Message.probe_ack(
                self.name, probe.src, probe.addr, probe.tid,
                data=data, dirty=dirty, had_copy=had_copy,
                from_victim=from_victim,
            )
        )

    def _drop_l1_copies(self, line: int) -> None:
        for l1 in (*self.l1d, self.l1i):
            l1.invalidate(line)

    def close(self) -> None:
        super().close()
        self._mshrs.clear()
        self._vic_pending.clear()

    def pending_work(self) -> str | None:
        if self._mshrs:
            addr, mshr = next(iter(self._mshrs.items()))
            return f"{len(self._mshrs)} MSHRs (e.g. {addr:#x} want={mshr.kind})"
        if self._vic_pending:
            return f"{len(self._vic_pending)} pending victims"
        return None


#: shared by every CorePair (the table is immutable once built; built here
#: because the rows bind the action methods above)
_COREPAIR_TABLE = build_corepair_table()

#: ``request.kind -> handler``, the dispatch of :meth:`CorePair._execute`
_EXECUTE = {
    "load": CorePair._do_load,
    "store": CorePair._do_store,
    "atomic": CorePair._do_atomic,
    "ifetch": CorePair._do_ifetch,
}
