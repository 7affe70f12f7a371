"""The system-level directory controller — baseline (stateless) version.

This implements the §II-D baseline of the paper: a *stateless* directory
that, on every permission request, broadcasts probes to the CorePair L2s
(and the TCC for write-permission requests, footnote 4) while reading the
LLC/memory in parallel, and only responds once **all** probe acks and the
data response have returned (Figure 2's ``*_PM`` states).  Victims write
both the LLC and memory (write-through LLC).

The per-transaction state machine is *declared* as a
:class:`~repro.coherence.engine.TransitionTable` over Figure 2's states —
``U`` plus the blocked states named by what the transaction still awaits
(``B``, ``B_P``, ``B_M``, ``B_PM``, and their ``..U`` unblock variants; see
:attr:`~repro.coherence.transactions.Transaction.blocked_on`).  Every
protocol event dispatches through
:meth:`~repro.coherence.engine.TransitionTable.fire` from the state kept in
:attr:`~repro.coherence.transactions.Transaction.state`; the table enforces
that the state reached matches its declared rows (see ``repro
lint-protocol``).

The §III optimizations are policy knobs
(:class:`~repro.coherence.policies.DirectoryPolicy`) expressed as *table
overlays* by :func:`build_directory_table`:

- ``early_dirty_response`` (§III-A) adds the ``B_PU``/``B_PMU`` states —
  responded while probes are still outstanding — reachable only under this
  overlay.
- ``clean_victims_to_memory=False`` (§III-B), ``clean_victims_to_llc=False``
  (§III-B1) and ``llc_writeback`` (§III-C) name the overlay on the
  victim-commit transition ``(B, Commit)``; its one action applies the knobs
  (:meth:`DirectoryController._write_victim`).
- ``use_l3_on_wt`` routes GPU write-throughs/atomics into the LLC (an
  action-level knob inside the WT/Atomic commit helpers).

The §IV precise directory subclasses this engine and overrides the
*planning* hooks (:meth:`plan_request`, :meth:`grant_state`,
:meth:`accept_victim`, :meth:`update_state_after_response`,
:meth:`prepare_entry`) — the transaction machinery is shared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.coherence.engine import ProtocolError, TransitionTable
from repro.coherence.llc import LastLevelCache
from repro.coherence.policies import DirectoryPolicy
from repro.coherence.transactions import Transaction
from repro.mem.block import LineData
from repro.mem.main_memory import MainMemory
from repro.protocol.atomics import apply_atomic
from repro.protocol.messages import Message
from repro.protocol.types import (
    READ_PERMISSION_TYPES,
    REQUEST_TYPES,
    VICTIM_TYPES,
    WRITE_PERMISSION_TYPES,
    MoesiState,
    MsgType,
    ProbeType,
    RequesterKind,
)
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator
    from repro.sim.network import Network

__all__ = [
    "DirectoryController", "ProtocolError", "RequestPlan",
    "build_directory_table",
    "EV_LAUNCH", "EV_LLC_DATA", "EV_MEM_DATA", "EV_PROBE_ACK", "EV_UNBLOCK",
    "EV_COMMIT", "EV_DIR_EVICT", "REQUEST_EVENTS",
]


@dataclass
class RequestPlan:
    """What a request needs before the directory can respond."""

    probe_targets: list[str] = field(default_factory=list)
    probe_type: ProbeType | None = None
    #: does the response require line data (reads, RdBlkM fills, atomics)?
    needs_data: bool = False
    #: issue the LLC/memory read immediately, in parallel with probes
    #: (the baseline always does; the precise directory defers it in O
    #: state, expecting the owner's dirty data to make it unnecessary).
    read_data_now: bool = False
    #: probe the requester too (normally excluded).  Needed when the
    #: requester does not allocate the result — a TCC system-scope atomic
    #: drops its own copy on issue, but a fill racing in behind the
    #: request would otherwise survive as a stale copy the precise
    #: directory, having dropped its tracking, can never invalidate.
    probe_requester: bool = False


#: request types whose response carries line data
_DATA_REQUESTS = frozenset(
    {MsgType.RDBLK, MsgType.RDBLKS, MsgType.RDBLKM, MsgType.DMA_RD, MsgType.ATOMIC}
)
#: CPU reads, answered with a DataResp granting a MOESI state
_CPU_READS = frozenset({MsgType.RDBLK, MsgType.RDBLKS, MsgType.RDBLKM})
#: requests that never wait for a permission response (victims, flushes)
_NO_PERMISSION = VICTIM_TYPES | {MsgType.FLUSH}

#: enum members the handlers compare against or stamp, bound once (a class
#: lookup such as ``MsgType.WT`` is slow on CPython 3.11; see DESIGN.md)
_RDBLKS, _RDBLKM, _WT, _ATOMIC = (MsgType.RDBLKS, MsgType.RDBLKM, MsgType.WT,
                                  MsgType.ATOMIC)
_FLUSH, _DMA_RD, _DMA_WR, _VIC_DIRTY = (MsgType.FLUSH, MsgType.DMA_RD,
                                        MsgType.DMA_WR, MsgType.VIC_DIRTY)
_PROBE_ACK, _UNBLOCK, _DATA_RESP = (MsgType.PROBE_ACK, MsgType.UNBLOCK,
                                    MsgType.DATA_RESP)
_DMA_RESP, _WT_ACK, _ATOMIC_RESP = (MsgType.DMA_RESP, MsgType.WT_ACK,
                                    MsgType.ATOMIC_RESP)
_WB_ACK, _FLUSH_ACK = MsgType.WB_ACK, MsgType.FLUSH_ACK
_INVALIDATE, _DOWNGRADE = ProbeType.INVALIDATE, ProbeType.DOWNGRADE
_CPU_L2 = RequesterKind.CPU_L2
_GRANT_M, _GRANT_E, _GRANT_S = MoesiState.M, MoesiState.E, MoesiState.S

#: per message type: its table event name (the type's wire name) and the
#: counter keys its requests and transactions bump, built once so no
#: handler reads ``.value`` or formats a key per message
EVENT_OF = {mtype: mtype.value for mtype in MsgType}
_REQUEST_KEY = {mtype: f"requests.{mtype.value}" for mtype in MsgType}
_TXN_COUNT_KEY = {mtype: f"{mtype.value}.count" for mtype in MsgType}
_TXN_LATENCY_KEY = {mtype: f"{mtype.value}.latency_ticks" for mtype in MsgType}

# -- Figure 2 events ---------------------------------------------------------

#: the ten fabric request types, by their MsgType value
REQUEST_EVENTS = tuple(
    m.value for m in (
        MsgType.RDBLK, MsgType.RDBLKS, MsgType.RDBLKM,
        MsgType.VIC_DIRTY, MsgType.VIC_CLEAN,
        MsgType.WT, MsgType.ATOMIC, MsgType.FLUSH,
        MsgType.DMA_RD, MsgType.DMA_WR,
    )
)
EV_LAUNCH = "Launch"        #: directory pipeline latency elapsed
EV_LLC_DATA = "LlcData"     #: the LLC lookup completed (hit or miss)
EV_MEM_DATA = "MemData"     #: the memory read returned
EV_PROBE_ACK = MsgType.PROBE_ACK.value
EV_UNBLOCK = MsgType.UNBLOCK.value
EV_COMMIT = "Commit"        #: a victim write reached its LLC commit point
EV_DIR_EVICT = "DirEvict"   #: precise only: a directory-entry eviction begins

_BLOCKED_BASE = ("B", "B_P", "B_M", "B_U", "B_PM", "B_MU")
_BLOCKED_EARLY = ("B_PU", "B_PMU")

OVL_EARLY = "earlyDirtyResp (§III-A)"
OVL_NO_CLEAN_MEM = "noWBcleanVic (§III-B)"
OVL_DROP_CLEAN = "noCleanVicToLLC (§III-B1)"
OVL_LLC_WB = "llcWB (§III-C)"
OVL_CUSTOM_VIC = "custom victim policy"
OVL_CONSERVATIVE_VIC = "conservative VicDirty (§VII)"


class DirectoryController(Controller):
    """Baseline stateless system-level directory backed by the LLC."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        network: "Network",
        llc: LastLevelCache,
        memory: MainMemory,
        policy: DirectoryPolicy | None = None,
        latency_cycles: float = 20.0,
        service_cycles: float = 2.0,
    ) -> None:
        super().__init__(sim, name, clock, service_cycles=service_cycles)
        self.network = network
        self.llc = llc
        self.memory = memory
        self.policy = policy or DirectoryPolicy()
        self.latency_cycles = latency_cycles
        self.fsm_table = build_directory_table(self.policy, precise=False)
        self._active: dict[int, Transaction] = {}
        self._waiting: dict[int, deque[Message]] = {}
        #: per line: caches whose next Vic* must be dropped because a
        #: system-level write already consumed (superseded) its data via a
        #: probe ack out of the victim buffer.
        self._stale_victims: dict[int, set[str]] = {}
        #: admission queue when dir_max_transactions (the TBE count) is hit
        self._admission: deque[Message] = deque()
        self._l2_names: list[str] | None = None
        self._tcc_names: list[str] | None = None
        #: own counters and the per-request-type ``txn`` child's, bound once
        #: (an empty child adds no key to ``as_dict()``)
        self._counters = self.stats._counters
        self._txn_counters = self.stats.child("txn")._counters

    def fsm_tables(self):
        """The declared tables this controller dispatches through."""
        return (self.fsm_table,)

    # -- peers ----------------------------------------------------------------

    @property
    def l2_names(self) -> list[str]:
        if self._l2_names is None:
            self._l2_names = sorted(self.network.endpoints_of_kind("l2"))
        return self._l2_names

    @property
    def tcc_names(self) -> list[str]:
        if self._tcc_names is None:
            self._tcc_names = sorted(self.network.endpoints_of_kind("tcc"))
        return self._tcc_names

    def all_cache_names(self) -> list[str]:
        return self.l2_names + self.tcc_names

    # -- FSM plumbing ----------------------------------------------------------

    def _fig2_next(self, txn: Transaction) -> str:
        """Derive the Figure-2 state a transaction is in right now."""
        if self._active.get(txn.addr) is not txn:
            return "U"
        return txn.blocked_on

    # -- message dispatch ------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is _PROBE_ACK:
            self._on_probe_ack(msg)
        elif mtype is _UNBLOCK:
            self._on_unblock(msg)
        elif mtype in REQUEST_TYPES:
            self._accept_request(msg)
        else:
            raise ProtocolError(f"directory received unexpected {msg!r}")

    def _accept_request(self, msg: Message) -> None:
        counters = self._counters
        mtype = msg.mtype
        counters["requests"] += 1
        counters[_REQUEST_KEY[mtype]] += 1
        txn = self._active.get(msg.addr)
        if txn is not None:
            txn.state = self.fsm_table.fire(
                txn.state, EVENT_OF[mtype], self, msg.addr, msg
            )
            return
        limit = self.policy.dir_max_transactions
        if limit is not None and len(self._active) >= limit:
            # out of transaction buffers (TBEs): stall at admission, before
            # any per-line state machine exists
            counters["admission_stalls"] += 1
            self._admission.append(msg)
            return
        self._start(msg)

    def _start(self, msg: Message) -> None:
        txn = Transaction(msg)
        txn.started_at = self.events.now
        self._active[msg.addr] = txn
        txn.state = self.fsm_table.fire(
            txn.state, EVENT_OF[msg.mtype], self, msg.addr, txn
        )

    def _act_start_request(self, txn: Transaction) -> None:
        self.schedule(self.latency_cycles, self._launch, arg=txn)
        return None  # single declared next: B

    def _act_queue_request(self, msg: Message) -> None:
        self._counters["requests_queued"] += 1
        self._waiting.setdefault(msg.addr, deque()).append(msg)
        return None  # stays in the current blocked state

    # -- transaction launch ------------------------------------------------------

    def _launch(self, txn: Transaction) -> None:
        txn.state = self.fsm_table.fire(txn.state, EV_LAUNCH, self, txn.addr, txn)

    def _act_launch(self, txn: Transaction) -> str:
        if not self.prepare_entry(txn):
            # parked (or retrying); the entry-eviction path will relaunch us
            return self._fig2_next(txn)
        mtype = txn.request.mtype
        if mtype in VICTIM_TYPES:
            self._handle_victim(txn)
        elif mtype is _FLUSH:
            self._handle_flush(txn)
        else:
            self._handle_permission(txn)
        return self._fig2_next(txn)

    def relaunch(self, txn: Transaction) -> None:
        """Re-fire ``Launch`` after an entry eviction made space."""
        self._launch(txn)

    def _handle_permission(self, txn: Transaction) -> None:
        plan = self.plan_request(txn)
        txn.needs_data = plan.needs_data
        targets = list(plan.probe_targets) if plan.probe_requester else [
            t for t in plan.probe_targets if t != txn.request.requester
        ]
        if targets:
            if plan.probe_type is None:
                raise ProtocolError(f"probe targets without a probe type for {txn!r}")
            self._send_probes(txn, targets, plan.probe_type)
        if plan.needs_data and plan.read_data_now:
            self._read_llc_then_memory(txn)
        self._maybe_finish_permission(txn)

    def _send_probes(self, txn: Transaction, targets: list[str], ptype: ProbeType) -> None:
        count = len(targets)
        txn.pending_acks += count
        counters = self._counters
        counters["probes_sent"] += count
        counters["probes_sent.inv" if ptype is _INVALIDATE
                 else "probes_sent.down"] += count
        send, probe = self.network.send, Message.probe
        name, addr, tid = self.name, txn.addr, txn.tid
        for target in targets:
            send(probe(name, target, addr, ptype, tid))

    # -- data fetch (LLC backed by memory) ----------------------------------------

    def _read_llc_then_memory(self, txn: Transaction) -> None:
        txn.read_issued = True
        self.schedule(self.llc.latency_cycles, self._fire_llc_data, arg=txn)

    def _fire_llc_data(self, txn: Transaction) -> None:
        txn.state = self.fsm_table.fire(txn.state, EV_LLC_DATA, self, txn.addr, txn)

    def _act_llc_data(self, txn: Transaction) -> str:
        hit, data = self.llc.read(txn.addr)
        if hit:
            txn.fetched_data = data
            txn.data_ready = True
            self._maybe_finish_permission(txn)
            return self._fig2_next(txn)
        txn.mem_outstanding = True
        self._mem_read(
            txn.addr, lambda mem_data: self._on_mem_data(txn, mem_data),
            source=txn.request.requester,
        )
        return self._fig2_next(txn)

    def _on_mem_data(self, txn: Transaction, data: LineData) -> None:
        txn.state = self.fsm_table.fire(
            txn.state, EV_MEM_DATA, self, txn.addr, (txn, data)
        )

    def _act_mem_data(self, ctx: tuple) -> str:
        txn, data = ctx
        txn.mem_outstanding = False
        if not txn.data_ready:
            txn.fetched_data = data
            txn.data_ready = True
        self._maybe_finish_permission(txn)
        self._maybe_complete(txn)
        return self._fig2_next(txn)

    def _mem_read(
        self, addr: int, callback: Callable[[LineData], None],
        source: str | None = None,
    ) -> None:
        self._counters["mem_reads"] += 1
        self.memory.read(addr, callback, source=source or self.name)

    def _mem_write(
        self, addr: int, data: LineData, source: str | None = None
    ) -> None:
        self._counters["mem_writes"] += 1
        self.memory.write(addr, data, source=source or self.name)

    # -- probe acks / unblocks ------------------------------------------------------

    def _on_probe_ack(self, msg: Message) -> None:
        txn = self._active.get(msg.addr)
        if txn is None or msg.tid != txn.tid:
            raise ProtocolError(f"orphan probe ack {msg!r}")
        txn.state = self.fsm_table.fire(
            txn.state, EV_PROBE_ACK, self, msg.addr, (txn, msg)
        )

    def _act_probe_ack(self, ctx: tuple) -> str:
        txn, msg = ctx
        txn.pending_acks -= 1
        if msg.had_copy:
            txn.any_copy_acked = True
        if msg.from_victim:
            txn.victim_ack_sources.add(msg.src)
        if msg.dirty and msg.data is not None:
            if txn.dirty_data is not None:
                raise ProtocolError(f"two dirty probe acks for {txn!r}")
            txn.dirty_data = msg.data
        if msg.word_updates:
            # word-granular dirty forwarding (WB-mode TCC/TCP probes)
            txn.partial_updates.update(msg.word_updates)
        if txn.pending_acks == 0 and txn.on_all_acks is not None:
            hook, txn.on_all_acks = txn.on_all_acks, None
            hook()
            return self._fig2_next(txn)
        self._maybe_finish_permission(txn)
        self._maybe_complete(txn)
        return self._fig2_next(txn)

    def _on_unblock(self, msg: Message) -> None:
        txn = self._active.get(msg.addr)
        if txn is None or msg.tid != txn.tid:
            raise ProtocolError(f"orphan unblock {msg!r}")
        txn.state = self.fsm_table.fire(txn.state, EV_UNBLOCK, self, msg.addr, txn)

    def _act_unblock(self, txn: Transaction) -> str:
        txn.awaiting_unblock = False
        self._maybe_complete(txn)
        return self._fig2_next(txn)

    # -- permission completion -------------------------------------------------------

    def _maybe_finish_permission(self, txn: Transaction) -> None:
        if txn.responded or txn.is_eviction:
            return
        mtype = txn.request.mtype
        if mtype in _NO_PERMISSION:
            return
        # §III-A: early response from the first dirty ack, downgrades only.
        if (
            self.policy.early_dirty_response
            and mtype in READ_PERMISSION_TYPES
            and txn.dirty_data is not None
        ):
            self._counters["early_dirty_responses"] += 1
            self._respond(txn)
            return
        if txn.pending_acks > 0:
            return
        if txn.needs_data and txn.dirty_data is None and not txn.data_ready:
            if not txn.read_issued:
                # Deferred read: the precise directory expected the owner's
                # dirty data but the owner turned out to hold E (clean).
                self._counters["deferred_data_reads"] += 1
                self._read_llc_then_memory(txn)
            return
        self._respond(txn)

    def _respond(self, txn: Transaction) -> None:
        txn.responded = True
        req = txn.request
        mtype = req.mtype
        data = txn.dirty_data if txn.dirty_data is not None else txn.fetched_data
        if mtype in _CPU_READS:
            state = self.grant_state(txn)
            if data is None and txn.needs_data:
                raise ProtocolError(f"responding without data for {txn!r}")
            # data may legitimately be None for an elided-read upgrade
            # (RdBlkM from the tracked holder): the requester keeps its copy.
            # Word-granular dirty data forwarded by probed VI caches rides
            # along and is applied by the receiver on top of its base.
            self.network.send(
                Message(
                    _DATA_RESP, self.name, req.requester, txn.addr,
                    data=data, state=state,
                    word_updates=dict(txn.partial_updates) or None,
                    dirty=txn.dirty_data is not None, tid=txn.tid,
                )
            )
            if req.requester_kind is _CPU_L2:
                txn.awaiting_unblock = True
        elif mtype is _DMA_RD:
            if data is None:
                raise ProtocolError(f"DMA read without data for {txn!r}")
            data = data.merged(txn.partial_updates)
            resp = Message(_DMA_RESP, self.name, req.requester, txn.addr,
                           data=data, tid=txn.tid)
            self.network.send(resp)
        elif mtype is _DMA_WR:
            self._commit_dma_write(txn)
        elif mtype is _WT:
            self._commit_write_through(txn)
        elif mtype is _ATOMIC:
            self._commit_atomic(txn, data)
        else:  # pragma: no cover - dispatch is exhaustive
            raise ProtocolError(f"cannot respond to {txn!r}")
        self.update_state_after_response(txn)
        self._maybe_complete(txn)

    def _commit_dma_write(self, txn: Transaction) -> None:
        """DMA writes go to memory and invalidate any LLC copy (the paper:
        DMA accesses do not update the L3)."""
        req = txn.request
        if req.data is None:
            raise ProtocolError(f"DMA write without data: {req!r}")
        self._mark_superseded_victims(txn)
        self.llc.invalidate(txn.addr)  # dropped copy is superseded by req.data
        self._mem_write(txn.addr, req.data, source=req.requester)
        self.network.send(
            Message(_DMA_RESP, self.name, req.requester, txn.addr, tid=txn.tid)
        )

    def _commit_write_through(self, txn: Transaction) -> None:
        """GPU write-through / write-back: system-visible write (full line
        for TCC write-backs, word-masked for streaming write-throughs)."""
        req = txn.request
        self._mark_superseded_victims(txn)
        if req.data is not None:
            self._system_write(
                txn.addr, req.data.merged(txn.partial_updates),
                source=req.requester,
            )
        elif req.word_updates:
            if txn.dirty_data is not None:
                # A CPU cache held the line dirty (false sharing): merge the
                # masked write onto the probed-out dirty data so the CPU's
                # words in the rest of the line are not lost.  Word-granular
                # dirty data from probed VI caches merges the same way, with
                # the committing WT winning overlaps.
                merged = txn.dirty_data.merged(txn.partial_updates)
                merged = merged.merged(req.word_updates)
                self._system_write(txn.addr, merged, source=req.requester)
            else:
                combined = dict(txn.partial_updates)
                combined.update(req.word_updates)
                self._system_write_masked(
                    txn.addr, combined, source=req.requester
                )
        else:
            raise ProtocolError(f"WT without data: {req!r}")
        self.network.send(
            Message(_WT_ACK, self.name, req.requester, txn.addr, tid=txn.tid)
        )

    def _commit_atomic(self, txn: Transaction, base: LineData | None) -> None:
        """System-scope atomic, executed here for full-system visibility."""
        req = txn.request
        if base is None:
            raise ProtocolError(f"atomic without base data: {txn!r}")
        # dirty words the requesting TCC carried along when it bypassed
        # (invalidated) its own modified copy ride in req.word_updates
        base = base.merged(txn.partial_updates).merged(req.word_updates)
        self._mark_superseded_victims(txn)
        new_data, old_value = apply_atomic(
            base, req.word, req.atomic_op, req.operand, req.compare
        )
        self._system_write(txn.addr, new_data, source=req.requester)
        self.network.send(
            Message(
                _ATOMIC_RESP, self.name, req.requester, txn.addr,
                result=old_value, tid=txn.tid,
            )
        )

    def _mark_superseded_victims(self, txn: Transaction) -> None:
        """After a system-level write consumed victim-buffer data via probe
        acks, the still-in-flight Vic* messages from those caches carry
        *older* data than what was just committed — they must be dropped on
        arrival or they would clobber the write."""
        if txn.victim_ack_sources:
            self._stale_victims.setdefault(txn.addr, set()).update(
                txn.victim_ack_sources
            )

    def _system_write(
        self, addr: int, data: LineData, source: str | None = None
    ) -> None:
        """A write at system-level visibility (WT/atomic commit point).

        With ``useL3OnWT`` the LLC is written (and, unless the LLC is
        write-back, memory as well).  Without it the write bypasses the LLC
        straight to memory; a stale LLC copy must then be dropped (its dirty
        data, if any, is superseded by this full-line write).
        """
        if self.policy.use_l3_on_wt:
            dirty_in_llc = self.policy.llc_writeback
            displaced = self.llc.write_through(addr, data, dirty=dirty_in_llc)
            if displaced is not None:
                self._mem_write(displaced.addr, displaced.data)
            if not self.policy.llc_writeback:
                self._mem_write(addr, data, source=source)
        else:
            # Bypass mode: memory is the destination; an existing LLC copy
            # is updated in place so it never goes stale (see DESIGN.md).
            self.llc.update_in_place(addr, data, dirty=False)
            self._mem_write(addr, data, source=source)

    def _system_write_masked(
        self, addr: int, updates: dict[int, int], source: str | None = None
    ) -> None:
        """A partial-line system-visible write.

        The LLC copy (if any) is always kept coherent by applying the words
        in place; a write-back LLC under ``useL3OnWT`` absorbs the write,
        every other combination also writes memory.  A partial line can
        never *allocate* in the LLC.
        """
        absorb = self.policy.use_l3_on_wt and self.policy.llc_writeback
        hit = self.llc.apply_words(addr, updates, dirty=absorb)
        if hit and absorb:
            return
        self._counters["mem_writes"] += 1
        self.memory.write_words(addr, updates, source=source or self.name)

    # -- victims ---------------------------------------------------------------------

    def _handle_victim(self, txn: Transaction) -> None:
        req = txn.request
        if req.data is None:
            raise ProtocolError(f"victim without data: {req!r}")
        superseded = self._stale_victims.get(txn.addr)
        if superseded is not None and req.requester in superseded:
            superseded.discard(req.requester)
            if not superseded:
                del self._stale_victims[txn.addr]
            accepted = False
            self._counters["superseded_victims_dropped"] += 1
        else:
            accepted = self.accept_victim(txn)
        self.schedule(self.llc.latency_cycles, self._fire_victim_commit,
                      arg=(txn, accepted))

    def _fire_victim_commit(self, ctx: tuple) -> None:
        txn = ctx[0]
        txn.state = self.fsm_table.fire(txn.state, EV_COMMIT, self, txn.addr, ctx)

    def _act_victim_commit(self, ctx: tuple) -> str:
        """Write an accepted victim per the §III knobs, then ack and complete."""
        txn, accepted = ctx
        req = txn.request
        if accepted:
            self._write_victim(req)
        else:
            self._counters["stale_victims_dropped"] += 1
        self.network.send(
            Message(_WB_ACK, self.name, req.requester, txn.addr, tid=txn.tid)
        )
        txn.responded = True
        self.update_state_after_response(txn)
        self._maybe_complete(txn)
        return self._fig2_next(txn)

    def _write_victim(self, req: Message) -> None:
        """Write a victim to the LLC and/or memory per the §III knobs."""
        dirty = req.mtype is _VIC_DIRTY
        policy = self.policy
        displaced = None
        if dirty or policy.clean_victims_to_llc:
            displaced = self.llc.write_victim(req.addr, req.data, dirty=dirty)
        if displaced is not None:
            # Write-back LLC evicting a dirty line: the deferred memory write.
            self._mem_write(displaced.addr, displaced.data)
        if policy.llc_writeback:
            return  # no victim writes memory directly (§III-C)
        if dirty or policy.clean_victims_to_memory:
            self._mem_write(req.addr, req.data, source=req.requester)

    # -- flush --------------------------------------------------------------------------

    def _handle_flush(self, txn: Transaction) -> None:
        req = txn.request
        self.network.send(
            Message(_FLUSH_ACK, self.name, req.requester, txn.addr, tid=txn.tid)
        )
        txn.responded = True
        self._maybe_complete(txn)

    # -- completion -----------------------------------------------------------------------

    def _maybe_complete(self, txn: Transaction) -> None:
        if not txn.responded or not txn.settled:
            return
        current = self._active.get(txn.addr)
        if current is not txn:
            return  # already completed
        del self._active[txn.addr]
        elapsed = self.events.now - txn.started_at
        counters = self._counters
        counters["transactions_completed"] += 1
        counters["latency_ticks"] += elapsed
        mtype = txn.request.mtype
        per_type = self._txn_counters
        per_type[_TXN_COUNT_KEY[mtype]] += 1
        per_type[_TXN_LATENCY_KEY[mtype]] += elapsed
        if txn.on_complete is not None:
            txn.on_complete()
        queue = self._waiting.get(txn.addr)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._waiting[txn.addr]
            self._start(nxt)
        self._admit()

    def _admit(self) -> None:
        """Start admission-stalled requests while TBEs are free."""
        limit = self.policy.dir_max_transactions
        if limit is None:
            return
        pending = len(self._admission)
        while pending and len(self._active) < limit:
            pending -= 1
            msg = self._admission.popleft()
            if msg.addr in self._active:
                self._waiting.setdefault(msg.addr, deque()).append(msg)
            else:
                self._start(msg)

    # -- planning hooks (overridden by the precise directory) ------------------------------

    def plan_request(self, txn: Transaction) -> RequestPlan:
        """Baseline: broadcast probes on everything; read data in parallel.

        Read-permission requests send downgrade probes to the L2s only (the
        TCC never forwards data and cannot be dirty towards a reader);
        write-permission requests broadcast invalidations to L2s and TCC
        (footnote 4 of the paper).
        """
        mtype = txn.request.mtype
        plan = RequestPlan(needs_data=mtype in _DATA_REQUESTS)
        plan.read_data_now = plan.needs_data
        if mtype in WRITE_PERMISSION_TYPES:
            plan.probe_targets = self.all_cache_names()
            plan.probe_type = _INVALIDATE
        elif mtype in READ_PERMISSION_TYPES:
            plan.probe_targets = list(self.l2_names)
            plan.probe_type = _DOWNGRADE
        return plan

    def grant_state(self, txn: Transaction) -> MoesiState:
        """Baseline grant: E only when no cache acked holding a copy."""
        mtype = txn.request.mtype
        if mtype is _RDBLKM:
            return _GRANT_M
        if mtype is _RDBLKS:
            return _GRANT_S
        if txn.dirty_data is not None or txn.any_copy_acked:
            return _GRANT_S
        return _GRANT_E

    def accept_victim(self, txn: Transaction) -> bool:
        """Baseline: the stateless directory writes every victim."""
        return True

    def prepare_entry(self, txn: Transaction) -> bool:
        """Ensure tracking space exists.  Baseline tracks nothing."""
        return True

    def update_state_after_response(self, txn: Transaction) -> None:
        """State bookkeeping after the response.  Baseline keeps none."""

    # -- deadlock/debug ------------------------------------------------------------------------

    def close(self) -> None:
        super().close()
        self._active.clear()
        self._waiting.clear()
        self._stale_victims.clear()
        self._admission.clear()

    def pending_work(self) -> str | None:
        if self._active:
            sample = next(iter(self._active.values()))
            return f"{len(self._active)} active transactions (e.g. {sample!r})"
        if self._waiting:
            return f"{sum(map(len, self._waiting.values()))} queued requests"
        if self._admission:
            return f"{len(self._admission)} admission-stalled requests"
        return None


# -- Figure 2 table ----------------------------------------------------------------


def _dispatch_dir_evict(ctl, ctx) -> str:
    # virtual dispatch: the action is defined by PreciseDirectory
    return ctl._act_dir_evict(ctx)


def _victim_overlay(policy: DirectoryPolicy) -> str | None:
    """Name the §III overlay the victim-policy knobs select (None for the
    §II-D baseline); :meth:`DirectoryController._write_victim` applies it."""
    combo = (
        policy.clean_victims_to_llc,
        policy.clean_victims_to_memory,
        policy.llc_writeback,
    )
    if policy.llc_writeback:
        return OVL_LLC_WB if policy.clean_victims_to_llc else OVL_CUSTOM_VIC
    if combo == (True, True, False):
        return None
    if combo == (True, False, False):
        return OVL_NO_CLEAN_MEM
    if combo == (False, False, False):
        return OVL_DROP_CLEAN
    return OVL_CUSTOM_VIC


_TABLE_CACHE: dict[tuple, TransitionTable] = {}


def build_directory_table(policy: DirectoryPolicy, precise: bool) -> TransitionTable:
    """Build (and cache) the Figure-2 transaction table for a policy.

    §III policies select overlays: early_dirty_response adds the
    ``B_PU``/``B_PMU`` states, the victim knobs name the ``(B, Commit)``
    overlay, and the §VII conservative-VicDirty variant lets a victim commit
    end in ``B_P`` (sharer invalidations in flight).  A precise directory
    additionally handles ``DirEvict`` (entry evictions run as transactions).
    """
    early = policy.early_dirty_response
    conservative_vic = bool(precise and policy.vicdirty_invalidates_sharers)
    vic_overlay = _victim_overlay(policy)
    key = (precise, early, conservative_vic, vic_overlay)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached

    D = DirectoryController
    states = ("U",) + _BLOCKED_BASE + (_BLOCKED_EARLY if early else ())
    events = REQUEST_EVENTS + (
        EV_LAUNCH, EV_LLC_DATA, EV_MEM_DATA, EV_PROBE_ACK, EV_UNBLOCK, EV_COMMIT,
    ) + ((EV_DIR_EVICT,) if precise else ())
    name = "dir-fig2/" + ("precise" if precise else "stateless")
    table = TransitionTable(name, states, events, initial="U")

    # Requests: U starts a transaction; any blocked state queues behind it.
    table.on("U", REQUEST_EVENTS, "B", action=D._act_start_request,
             note="allocate a TBE and schedule the launch (Fig. 2 U -> B)")
    for blocked in states[1:]:
        table.on(blocked, REQUEST_EVENTS, blocked, action=D._act_queue_request,
                 note="line busy: queue behind the active transaction")

    # Launch: plan probes / data reads, or commit victims and flushes.
    table.on("B", EV_LAUNCH, ("B", "B_P", "B_U", "U"), action=D._act_launch,
             note="plan probes/data (Fig. 2 B -> B_P); B_U = elided-read "
                  "upgrade respond; U = probe-free commit (WT/flush)")

    # LLC lookup completion: hit -> respond path, miss -> memory read.
    table.on("B", EV_LLC_DATA, ("B_M", "B_U", "U"), action=D._act_llc_data,
             note="LLC hit responds (Fig. 2 B -> B_U/U); miss goes to memory (B_M)")
    table.on("B_P", EV_LLC_DATA, ("B_P", "B_PM"), action=D._act_llc_data,
             note="data ready/miss while probes outstanding (Fig. 2 B_P -> B_PM)")
    table.on("B_U", EV_LLC_DATA, ("B_U", "B_MU"), action=D._act_llc_data,
             note="read still in flight after a dirty-ack response")
    table.on("U", EV_LLC_DATA, "U", action=D._act_llc_data,
             note="late LLC return after the unblock already completed the "
                  "transaction; a miss still issues the (modelled) memory read")
    if early:
        table.on("B_PU", EV_LLC_DATA, ("B_PU", "B_PMU"), action=D._act_llc_data,
                 overlay=OVL_EARLY)

    # Memory read completion.
    table.on("B_M", EV_MEM_DATA, ("B_U", "U"), action=D._act_mem_data,
             note="respond from memory data (Fig. 2 B_M -> U)")
    table.on("B_PM", EV_MEM_DATA, "B_P", action=D._act_mem_data)
    table.on("B_MU", EV_MEM_DATA, "B_U", action=D._act_mem_data)
    table.on("U", EV_MEM_DATA, "U", action=D._act_mem_data,
             note="late memory return for an already-completed transaction")
    if early:
        table.on("B_PMU", EV_MEM_DATA, "B_PU", action=D._act_mem_data,
                 overlay=OVL_EARLY)

    # Probe acks.
    probe_ack = D._act_probe_ack
    table.on("B_P", EV_PROBE_ACK,
             ("B_P", "B", "B_U", "U") + (("B_PU",) if early else ()),
             action=probe_ack,
             note="collect dirty data; last ack responds or defers the read")
    table.on("B_PM", EV_PROBE_ACK,
             ("B_PM", "B_M", "B_MU") + (("B_PMU",) if early else ()),
             action=probe_ack)
    if early:
        table.on("B_PU", EV_PROBE_ACK, ("B_PU", "B_U"), action=probe_ack,
                 overlay=OVL_EARLY,
                 note="acks draining after the §III-A early response")
        table.on("B_PMU", EV_PROBE_ACK, ("B_PMU", "B_MU"), action=probe_ack,
                 overlay=OVL_EARLY)

    # Unblocks close CPU fill transactions.
    table.on("B_U", EV_UNBLOCK, "U", action=D._act_unblock,
             note="requester installed the line (Fig. 2 -> U)")
    table.on("B_MU", EV_UNBLOCK, "B_M", action=D._act_unblock)
    if early:
        table.on("B_PU", EV_UNBLOCK, "B_P", action=D._act_unblock,
                 overlay=OVL_EARLY)
        table.on("B_PMU", EV_UNBLOCK, "B_PM", action=D._act_unblock,
                 overlay=OVL_EARLY)

    # Victim commit (the LLC-latency write point).
    commit_nexts = ("U", "B_P") if conservative_vic else ("U",)
    table.on("B", EV_COMMIT, commit_nexts, action=D._act_victim_commit,
             overlay=OVL_CONSERVATIVE_VIC if conservative_vic else vic_overlay,
             note="write the victim per the §III policy and ack"
                  + ("; B_P = §VII sharer invalidations in flight"
                     if conservative_vic else ""))

    # Precise only: a directory-entry eviction runs as its own transaction.
    if precise:
        table.on("U", EV_DIR_EVICT, ("B_P", "U"), action=_dispatch_dir_evict,
                 note="§IV-A1 entry eviction: back-invalidate tracked "
                      "holders (B_P) or finish immediately (U)")

    # Everything else is explicitly illegal: the engine raises if it fires.
    early_states = _BLOCKED_EARLY if early else ()
    table.illegal(("U",) + tuple(s for s in _BLOCKED_BASE if s != "B")
                  + early_states, EV_LAUNCH,
                  note="launch fires exactly once, out of B")
    table.illegal(("B_M", "B_PM", "B_MU") + (("B_PMU",) if early else ()),
                  EV_LLC_DATA, note="the LLC lookup already completed")
    table.illegal(("B", "B_P", "B_U") + (("B_PU",) if early else ()),
                  EV_MEM_DATA, note="no memory read outstanding")
    table.illegal(("U", "B", "B_M", "B_U", "B_MU"), EV_PROBE_ACK,
                  note="no probes outstanding (an extra ack is a protocol bug)")
    table.illegal(("U", "B", "B_P", "B_M", "B_PM"), EV_UNBLOCK,
                  note="no response awaiting an unblock")
    table.illegal(tuple(s for s in states if s != "B"), EV_COMMIT,
                  note="victim commits happen once, out of B")
    if precise:
        table.illegal(tuple(s for s in states if s != "U"), EV_DIR_EVICT,
                      note="entry evictions only start on idle lines")

    _TABLE_CACHE[key] = table
    return table
