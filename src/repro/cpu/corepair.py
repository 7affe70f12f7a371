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
from typing import TYPE_CHECKING, Callable

from repro.coherence.banking import DirectoryMap, as_directory_map
from repro.coherence.engine import TransitionTable
from repro.mem.address import line_addr, word_index
from repro.mem.block import LineData
from repro.mem.cache_array import CacheArray
from repro.protocol.atomics import AtomicOp, apply_atomic
from repro.protocol.messages import Message
from repro.protocol.types import MoesiState, MsgType, ProbeType, RequesterKind
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator
    from repro.sim.network import Network


class CorePairError(SimulationError):
    pass


@dataclass(frozen=True)
class CpuRequest:
    """One core-side memory operation presented to the CorePair."""

    kind: str  # "load" | "store" | "atomic" | "ifetch"
    addr: int
    value: int = 0
    atomic_op: AtomicOp | None = None
    operand: int = 0
    compare: int = 0


#: per-kind stat counter names, prebuilt so ``access`` never formats one.
_OPS_KEY = {kind: f"ops.{kind}" for kind in ("load", "store", "atomic", "ifetch")}


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

    kind_name = "l2"

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
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
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
        kind = request.kind
        self.stats.inc(_OPS_KEY.get(kind) or f"ops.{kind}")
        start = max(self.now, self._next_free)
        self._next_free = start + self._service_ticks
        self.sim.events.schedule(start, self._execute_queued, 0, (slot, request, callback))

    # -- execution ---------------------------------------------------------------

    def _execute_queued(self, queued: tuple) -> None:
        """Event-queue shim: unpack a queued ``(slot, request, callback)``."""
        self._execute(*queued)

    def _execute(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        pending = self._vic_pending.get(line)
        if pending is not None:
            pending.waiters.append((slot, request, callback))
            return
        handler = {
            "load": self._do_load,
            "store": self._do_store,
            "atomic": self._do_atomic,
            "ifetch": self._do_ifetch,
        }.get(request.kind)
        if handler is None:
            raise CorePairError(f"unknown request kind {request.kind!r}")
        handler(slot, request, callback)

    def _hit_latency(self, slot: int, line: int, icache: bool = False) -> float:
        """L1 latency on an L1 hit, else L1+L2 (and fill the L1)."""
        l1 = self.l1i if icache else self.l1d[slot]
        if l1.lookup(line) is not None:
            self.stats.inc("l1i_hits" if icache else "l1d_hits")
            return self.l1_latency
        l1.install(line, state=True)
        self.stats.inc("l2_hits")
        return self.l1_latency + self.l2_latency

    def _do_load(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or not cached.state.readable:
            self._miss(slot, request, callback, want="r")
            return
        latency = self._hit_latency(slot, line)

        def finish() -> None:
            again = self.l2.lookup(line)
            if again is None or not again.state.readable:
                self._execute(slot, request, callback)  # lost to a probe; retry
                return
            callback(again.data.word(word_index(request.addr)))

        self.schedule(latency, finish)

    def _do_store(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or not cached.state.writable:
            self._miss(slot, request, callback, want="w")
            return
        latency = self._hit_latency(slot, line)

        def finish() -> None:
            again = self.l2.lookup(line)
            if again is None or not again.state.writable:
                self._execute(slot, request, callback)
                return
            again.data = again.data.with_word(word_index(request.addr), request.value)
            if again.state is not MoesiState.M:
                # silent E->M
                self.moesi_table.fire(again.state, EV_STORE, self, line, again)
            callback(None)

        self.schedule(latency, finish)

    def _act_store(self, cached) -> MoesiState:
        cached.state = MoesiState.M
        cached.dirty = True
        return MoesiState.M

    def _do_atomic(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or not cached.state.writable:
            self._miss(slot, request, callback, want="w")
            return
        latency = self._hit_latency(slot, line)

        def finish() -> None:
            again = self.l2.lookup(line)
            if again is None or not again.state.writable:
                self._execute(slot, request, callback)
                return
            new_data, old = apply_atomic(
                again.data, word_index(request.addr),
                request.atomic_op, request.operand, request.compare,
            )
            again.data = new_data
            if again.state is not MoesiState.M:
                # silent E->M
                self.moesi_table.fire(again.state, EV_STORE, self, line, again)
            callback(old)

        self.schedule(latency, finish)

    def _do_ifetch(self, slot: int, request: CpuRequest, callback: Callable) -> None:
        line = line_addr(request.addr)
        cached = self.l2.lookup(line)
        if cached is None or not cached.state.readable:
            self._miss(slot, request, callback, want="i")
            return
        latency = self._hit_latency(slot, line, icache=True)
        self.schedule(latency, lambda: callback(None))

    # -- misses ----------------------------------------------------------------------

    def _miss(self, slot: int, request: CpuRequest, callback: Callable, want: str) -> None:
        line = line_addr(request.addr)
        mshr = self._mshrs.get(line)
        if mshr is not None:
            mshr.waiters.append((slot, request, callback))
            self.stats.inc("mshr_merges")
            return
        mshr = _Mshr(kind=want)
        mshr.waiters.append((slot, request, callback))
        self._mshrs[line] = mshr
        self.stats.inc("misses")
        self.stats.inc(f"misses.{want}")
        self.network.send(
            Message.request(
                _MISS_REQUEST[want], self.name, self.dir_map.bank_of(line), line,
                RequesterKind.CPU_L2,
            )
        )

    # -- network messages ---------------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is MsgType.DATA_RESP:
            self._on_data_resp(msg)
        elif msg.mtype is MsgType.PROBE:
            self._on_probe(msg)
        elif msg.mtype is MsgType.WB_ACK:
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
        if existing is not None and existing.state.readable:
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
        if msg.state is None or msg.state is MoesiState.I:
            raise CorePairError(f"{self.name}: bad granted state in {msg!r}")
        prev = MoesiState.I if existing is None else existing.state
        self.moesi_table.fire(prev, EV_FILL, self, line, (line, msg.state, data))
        self.network.send(Message.unblock(self.name, msg.src, line, msg.tid))
        for slot, request, callback in mshr.waiters:
            self._execute(slot, request, callback)

    def _act_fill(self, ctx: tuple) -> MoesiState:
        line, state, data = ctx
        self._install_line(line, state, data)
        return state

    def _install_line(self, line: int, state: MoesiState, data: LineData) -> None:
        if self.l2.lookup(line, touch=False) is None:
            victim = self.l2.choose_victim(
                line, cost_of=lambda cl: 1 if cl.addr in self._mshrs else 0
            )
            if victim.valid:
                if victim.addr in self._mshrs:
                    raise CorePairError(
                        f"{self.name}: L2 set exhausted by outstanding misses"
                    )
                snapshot = self.l2.invalidate(victim.addr)
                self.moesi_table.fire(
                    snapshot.state, EV_EVICT, self, snapshot.addr, snapshot
                )
        self.l2.install(line, state=state, data=data, dirty=state.is_dirty)

    def _act_evict(self, snapshot) -> str:
        self._send_victim(snapshot)
        return VIC_PENDING

    def _send_victim(self, snapshot) -> None:
        dirty = snapshot.state in (MoesiState.M, MoesiState.O)
        self.stats.inc("victims.dirty" if dirty else "victims.clean")
        self._vic_pending[snapshot.addr] = _PendingVictim(snapshot.data, dirty)
        self._drop_l1_copies(snapshot.addr)
        mtype = MsgType.VIC_DIRTY if dirty else MsgType.VIC_CLEAN
        self.network.send(
            Message.request(
                mtype, self.name, self.dir_map.bank_of(snapshot.addr), snapshot.addr,
                RequesterKind.CPU_L2, data=snapshot.data,
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
        return MoesiState.I

    # -- probes ------------------------------------------------------------------------------

    def _on_probe(self, msg: Message) -> None:
        self.stats.inc("probes_received")
        event = _PROBE_EVENT.get(msg.probe_type)
        if event is None:
            raise CorePairError(f"bad probe {msg!r}")
        line = msg.addr
        pending = self._vic_pending.get(line)
        if pending is not None:
            self.moesi_table.fire(VIC_PENDING, event, self, line, (msg, pending))
            return
        cached = self.l2.lookup(line, touch=False)
        prev = MoesiState.I if cached is None else cached.state
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
        return MoesiState.I

    def _act_down_dirty(self, ctx: tuple) -> MoesiState:
        msg, cached = ctx
        cached.state = MoesiState.O
        self._ack(msg, data=cached.data, dirty=True, had_copy=True)
        return MoesiState.O

    def _act_down_e(self, ctx: tuple) -> MoesiState:
        msg, cached = ctx
        cached.state = MoesiState.S
        self._ack(msg, had_copy=True)
        return MoesiState.S

    def _act_down_s(self, ctx: tuple) -> MoesiState:
        self._ack(ctx[0], had_copy=True)
        return MoesiState.S

    def _act_inv(self, ctx: tuple) -> MoesiState:
        msg, cached = ctx
        dirty = cached.state in (MoesiState.M, MoesiState.O)
        data = cached.data if dirty else None
        self.l2.invalidate(msg.addr)
        self._drop_l1_copies(msg.addr)
        self.stats.inc("probe_invalidations")
        self._ack(msg, data=data, dirty=dirty, had_copy=True)
        return MoesiState.I

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

    # -- introspection ------------------------------------------------------------------------

    def peek_state(self, line: int) -> MoesiState:
        cached = self.l2.lookup(line, touch=False)
        return MoesiState.I if cached is None else cached.state

    def peek_word(self, addr: int) -> int | None:
        cached = self.l2.lookup(line_addr(addr), touch=False)
        if cached is None or cached.data is None:
            return None
        return cached.data.word(word_index(addr))

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
