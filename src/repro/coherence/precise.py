"""The §IV precise state-tracking system-level directory.

Tracks each line known to be cached above in one of three stable states —
``I`` (uncached), ``S`` (clean-shared), ``O`` (owned/exclusive/modified
somewhere) — plus the transient ``B`` while a directory entry is being
evicted.  Owner tracking alone enables:

- eliding *all* probes for requests to ``I`` and (for reads) ``S`` lines,
- probing only the owner (instead of broadcasting) for ``O`` lines,
- eliding the LLC/memory read when the owner's dirty data will serve the
  request, or when the requester itself is the tracked holder (upgrades).

Sharer tracking additionally narrows invalidations from broadcasts to
multicasts over the tracked sharer list (full-map by default, or a
limited-pointer list with broadcast-on-overflow).  Each tracked line carries
one :class:`~repro.coherence.directory_entry.DirEntry`, built when the line
is allocated; its sharers are a bitmask over :meth:`all_cache_names`, so a
multicast probes its targets in broadcast order.

The directory is itself a set-associative cache of entries; allocating into
a full set evicts a victim entry with back-invalidations to its tracked
holders (§IV-A1).  The transition rules implement Table I of the paper,
including its footnoted special cases; deviations are documented inline and
in DESIGN.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coherence.directory import (
    _DATA_REQUESTS,
    EV_DIR_EVICT,
    EVENT_OF,
    DirectoryController,
    ProtocolError,
    RequestPlan,
    build_directory_table,
)
from repro.coherence.directory_entry import DirEntry
from repro.coherence.engine import TransitionTable
from repro.coherence.llc import LastLevelCache
from repro.coherence.policies import DirectoryPolicy
from repro.coherence.transactions import Transaction
from repro.mem.cache_array import CacheArray, CacheLine
from repro.mem.main_memory import MainMemory
from repro.protocol.messages import Message
from repro.protocol.types import (
    READ_PERMISSION_TYPES,
    WRITE_PERMISSION_TYPES,
    DirState,
    MoesiState,
    MsgType,
    ProbeType,
    RequesterKind,
)
from repro.sim.clock import ClockDomain

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator
    from repro.sim.network import Network

#: request types that allocate a tracking entry on a directory miss.
#: WT does not allocate: the TCC does not write-allocate in WT mode, so
#: there is nothing new to track.
_ALLOCATING = frozenset({MsgType.RDBLK, MsgType.RDBLKS, MsgType.RDBLKM})

#: retry delay (directory cycles) when every way of a set is transaction-busy
_ALLOC_RETRY_CYCLES = 20.0

#: Table I events: the nine fabric requests that reach the state-update
#: point (Flush never changes directory state), plus entry evictions.
_T1_REQUESTS = tuple(
    m.value for m in (
        MsgType.RDBLK, MsgType.RDBLKS, MsgType.RDBLKM,
        MsgType.VIC_DIRTY, MsgType.VIC_CLEAN,
        MsgType.WT, MsgType.ATOMIC, MsgType.DMA_RD, MsgType.DMA_WR,
    )
)
EV_EVICT_DONE = "EvictDone"  #: entry-eviction back-invalidations all acked

#: enum members the handlers compare against, bound once (a class lookup
#: such as ``DirState.O`` is slow on CPython 3.11; see DESIGN.md)
_DIR_I, _DIR_S, _DIR_O, _DIR_B = DirState.I, DirState.S, DirState.O, DirState.B
_GRANT_M, _GRANT_E, _GRANT_S = MoesiState.M, MoesiState.E, MoesiState.S
_RDBLKS, _RDBLKM, _ATOMIC = MsgType.RDBLKS, MsgType.RDBLKM, MsgType.ATOMIC
_VIC_DIRTY, _VIC_CLEAN, _PROBE = MsgType.VIC_DIRTY, MsgType.VIC_CLEAN, MsgType.PROBE
_INVALIDATE, _DOWNGRADE = ProbeType.INVALIDATE, ProbeType.DOWNGRADE
_CPU_L2 = RequesterKind.CPU_L2


class PreciseDirectory(DirectoryController):
    """Owner- or sharer-tracking directory (``DirectoryKind.OWNER``/``SHARERS``)."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        network: "Network",
        llc: LastLevelCache,
        memory: MainMemory,
        policy: DirectoryPolicy,
        latency_cycles: float = 20.0,
        service_cycles: float = 2.0,
    ) -> None:
        super().__init__(
            sim, name, clock, network, llc, memory, policy,
            latency_cycles=latency_cycles, service_cycles=service_cycles,
        )
        policy.validate()
        if not policy.is_precise:
            raise ValueError("PreciseDirectory requires kind OWNER or SHARERS")
        # Replace the stateless Figure-2 table with the precise variant
        # (adds the DirEvict transitions) and declare Table I.
        self.fsm_table = build_directory_table(policy, precise=True)
        self.table1 = build_table1(policy)
        num_sets = max(1, policy.dir_entries // policy.dir_assoc)
        ways = min(policy.dir_assoc, policy.dir_entries)
        self.dir_cache = CacheArray(num_sets, ways)
        # name -> sharer bit, shared by every entry; built on the first
        # allocation, once the caches have attached to the network
        self._sharer_bits: dict[str, int] | None = None

    def fsm_tables(self):
        """Both declared tables: Figure-2 transactions and Table I entries."""
        return (self.fsm_table, self.table1)

    # -- entry helpers --------------------------------------------------------

    def _new_entry(self) -> DirEntry:
        policy = self.policy
        if not policy.tracks_sharers:
            return DirEntry(None)
        bits = self._sharer_bits
        if bits is None:
            bits = self._sharer_bits = {
                name: 1 << index for index, name in enumerate(self.all_cache_names())
            }
        return DirEntry(bits, policy.sharer_pointer_limit)

    def entry_line(self, addr: int, touch: bool = False) -> CacheLine | None:
        return self.dir_cache.lookup(addr, touch=touch)

    def dir_state(self, addr: int) -> DirState:
        line = self.entry_line(addr)
        return _DIR_I if line is None else line.state

    def _holder_targets(self, line: CacheLine, include_owner: bool) -> list[str]:
        """Invalidation targets for a tracked line: multicast when the
        sharer identities are known, broadcast otherwise."""
        entry: DirEntry = line.meta
        targets: list[str] = []
        if line.state is _DIR_O and include_owner and entry.owner is not None:
            targets.append(entry.owner)
        if entry.sharer_count > 0 or entry.overflow:
            if entry.multicast_possible:
                targets.extend(entry.sharer_names())
            else:
                targets = list(dict.fromkeys(targets + self.all_cache_names()))
        return targets

    # -- allocation / eviction (§IV-A1) -----------------------------------------

    def prepare_entry(self, txn: Transaction) -> bool:
        line = self.entry_line(txn.addr, touch=True)
        if line is not None:
            txn.prior_state = line.state
            return True
        txn.prior_state = _DIR_I
        if txn.request.mtype not in _ALLOCATING:
            return True
        if self.policy.is_readonly(txn.addr):
            # Declared read-only region (future work from the paper's
            # conclusion): reads are served untracked — no entry, no
            # probes, shared grant.  Writing a declared read-only region
            # violates the contract, like a page-protection fault.
            if txn.request.mtype is _RDBLKM:
                raise ProtocolError(
                    f"write-permission request to read-only region: {txn.request!r}"
                )
            self._counters["readonly_reads_untracked"] += 1
            return True
        victim = self.dir_cache.choose_victim(txn.addr, cost_of=self._eviction_cost)
        if not victim.valid:
            self.dir_cache.fill(victim, txn.addr, _DIR_B, meta=self._new_entry())
            return True
        if victim.addr in self._active:
            # Every way busy with a transaction: retry shortly (re-fires
            # Launch out of the still-blocked B state).
            self._counters["alloc_retries"] += 1
            self.schedule(_ALLOC_RETRY_CYCLES, self._launch, arg=txn)
            return False
        self._start_entry_eviction(victim, then=txn)
        return False

    def _eviction_cost(self, line: CacheLine) -> tuple[int, int, int]:
        busy = 1 if line.addr in self._active else 0
        if not self.policy.state_aware_dir_replacement:
            return (busy, 0, 0)
        # §VII future work: prefer unmodified entries with fewest sharers.
        entry: DirEntry = line.meta
        modified = 1 if line.state is _DIR_O else 0
        return (busy, modified, entry.sharer_count)

    def _start_entry_eviction(self, victim: CacheLine, then: Transaction) -> None:
        """Evict a directory entry: back-invalidate its tracked holders,
        write any dirty data to the LLC, then relaunch the parked request.

        The eviction runs as its own Figure-2 transaction (``DirEvict`` out
        of ``U``); the entry walks Table I's ``S/O -> B -> I``.
        """
        self._counters["dir_evictions"] += 1
        evict_req = Message(_PROBE, self.name, self.name, victim.addr)
        evict_txn = Transaction(evict_req, is_eviction=True)
        evict_txn.started_at = self.now
        self._active[victim.addr] = evict_txn
        evict_txn.on_complete = lambda: self.relaunch(then)
        evict_txn.state = self.fsm_table.fire(
            evict_txn.state, EV_DIR_EVICT, self, victim.addr, (evict_txn, victim)
        )

    def _act_dir_evict(self, ctx: tuple) -> str:
        evict_txn, victim = ctx
        # targets must be computed before Table I's S/O -> B flip (the
        # owner is only probed while the entry still shows O)
        targets = self._holder_targets(victim, include_owner=True)
        self.table1.fire(victim.state, EV_DIR_EVICT, self, victim.addr, victim)
        self._counters["backward_invalidations"] += len(targets)
        if targets:
            evict_txn.on_all_acks = lambda: self._finish_eviction(evict_txn, victim)
            self._send_probes(evict_txn, targets, _INVALIDATE)
        else:
            self._finish_eviction(evict_txn, victim)
        return self._fig2_next(evict_txn)

    def _finish_eviction(self, evict_txn: Transaction, victim: CacheLine) -> None:
        self.table1.fire(
            _DIR_B, EV_EVICT_DONE, self, victim.addr, (evict_txn, victim)
        )
        evict_txn.responded = True
        self._maybe_complete(evict_txn)

    def _act_t1_evict_begin(self, victim: CacheLine) -> DirState:
        victim.state = _DIR_B  # Table I's transient B: requests stall
        return _DIR_B

    def _act_t1_evict_done(self, ctx: tuple) -> DirState:
        evict_txn, victim = ctx
        if evict_txn.dirty_data is not None:
            displaced = self.llc.write_victim(
                victim.addr, evict_txn.dirty_data, dirty=True
            )
            if displaced is not None:
                self._mem_write(displaced.addr, displaced.data)
            if not self.policy.llc_writeback:
                self._mem_write(victim.addr, evict_txn.dirty_data)
        self._drop_entry(victim)
        return _DIR_I

    # -- request planning (Table I) ------------------------------------------------

    def plan_request(self, txn: Transaction) -> RequestPlan:
        req = txn.request
        mtype = req.mtype
        state: DirState = txn.prior_state  # type: ignore[assignment]
        line = self.entry_line(txn.addr)
        entry: DirEntry | None = line.meta if line is not None else None
        plan = RequestPlan(needs_data=mtype in _DATA_REQUESTS)

        requester_is_tracked_holder = (
            entry is not None
            and req.requester_kind is _CPU_L2
            and (
                (state is _DIR_O and entry.owner == req.requester)
                or (
                    state is _DIR_S
                    and entry.multicast_possible
                    and entry.is_sharer(req.requester)
                )
            )
        )

        if mtype in READ_PERMISSION_TYPES:
            if state is _DIR_O:
                assert entry is not None and entry.owner is not None
                plan.probe_targets = [entry.owner]
                plan.probe_type = _DOWNGRADE
                # Expect the owner's dirty data; fall back to a deferred
                # LLC/memory read if the owner turns out to hold E (clean).
                plan.read_data_now = False
            else:
                # I: nothing cached above.  S: LLC/memory guaranteed
                # coherent.  Either way, no probes (the paper's main win).
                plan.read_data_now = plan.needs_data
        elif mtype in WRITE_PERMISSION_TYPES:
            if self.policy.is_readonly(txn.addr):
                raise ProtocolError(
                    f"write-permission request to read-only region: {req!r}"
                )
            plan.probe_type = _INVALIDATE
            if mtype is _ATOMIC:
                # The atomic commits here, not at the requester: a tracked
                # requester copy (a fill that raced in behind the atomic)
                # must be invalidated like any other holder's, or it
                # outlives the dropped directory entry as stale data.
                plan.probe_requester = True
            if state is _DIR_O:
                assert line is not None
                plan.probe_targets = self._holder_targets(line, include_owner=True)
            elif state is _DIR_S:
                assert line is not None
                plan.probe_targets = self._holder_targets(line, include_owner=False)
            if requester_is_tracked_holder and mtype is _RDBLKM:
                # Upgrade: the requester already holds the data; elide the
                # LLC/memory read entirely ("the LLC reads are elided").
                plan.needs_data = False
                self._counters["upgrade_data_elided"] += 1
            else:
                plan.read_data_now = plan.needs_data and state is not _DIR_O
        return plan

    def grant_state(self, txn: Transaction) -> MoesiState:
        mtype = txn.request.mtype
        if mtype is _RDBLKM:
            return _GRANT_M
        if mtype is _RDBLKS:
            return _GRANT_S
        if self.policy.is_readonly(txn.addr):
            # untracked read-only line: never exclusive (E could silently
            # become M without anyone knowing)
            return _GRANT_S
        # RdBlk: in S the response is forced shared (it comes from the LLC
        # without consulting the sharers); in O, any surviving copy denies
        # exclusivity; in I (or an O whose owner vanished), grant E.
        state: DirState = txn.prior_state  # type: ignore[assignment]
        if state is _DIR_S:
            return _GRANT_S
        if txn.dirty_data is not None or txn.any_copy_acked:
            return _GRANT_S
        return _GRANT_E

    # -- victims ----------------------------------------------------------------------

    def accept_victim(self, txn: Transaction) -> bool:
        req = txn.request
        line = self.entry_line(txn.addr)
        if line is None:
            return False  # stale: the entry was evicted/overwritten meanwhile
        entry: DirEntry = line.meta
        if req.mtype is _VIC_DIRTY:
            return line.state is _DIR_O and entry.owner == req.requester
        # VicClean: from the owner (an E line, footnote g) or from a sharer
        # — including a dirty sharer of an O line (footnote h: non-owner
        # copies evict clean, the owner keeps the write-back duty).
        if line.state is _DIR_O and (
            entry.owner == req.requester or entry.is_sharer(req.requester)
        ):
            return True
        if line.state is _DIR_S and entry.is_sharer(req.requester):
            return True
        return False

    # -- state updates (Table I) ----------------------------------------------------------

    def update_state_after_response(self, txn: Transaction) -> None:
        """Fire the Table I transition for the completed request.

        Dispatch starts from :attr:`~Transaction.prior_state` — the stable
        state recorded when the transaction launched (the line is blocked in
        between, so nothing else can move it) — and each action reports the
        resulting stable state, which the engine checks against Table I's
        declared next-states.
        """
        prior: DirState = txn.prior_state  # type: ignore[assignment]
        self.table1.fire(prior, EVENT_OF[txn.request.mtype], self, txn.addr, txn)

    # -- Table I actions (return the resulting stable state) --------------------

    def _act_t1_read(self, txn: Transaction) -> DirState:
        line = self.entry_line(txn.addr)
        if line is None and self.policy.is_readonly(txn.addr):
            return _DIR_I  # untracked read-only read: nothing to record
        self._update_after_read(txn, line)
        return self.dir_state(txn.addr)

    def _act_t1_rdblkm(self, txn: Transaction) -> DirState:
        self._update_after_rdblkm(txn, self.entry_line(txn.addr))
        return self.dir_state(txn.addr)

    def _act_t1_wt(self, txn: Transaction) -> DirState:
        self._update_after_wt(txn, self.entry_line(txn.addr))
        return self.dir_state(txn.addr)

    def _act_t1_drop(self, txn: Transaction) -> DirState:
        self._drop_entry(self.entry_line(txn.addr))
        return _DIR_I

    def _act_t1_keep(self, txn: Transaction) -> DirState:
        return self.dir_state(txn.addr)

    def _act_t1_dma_rd(self, txn: Transaction) -> DirState:
        line = self.entry_line(txn.addr)
        if line is not None and line.state is _DIR_O:
            entry: DirEntry = line.meta
            if txn.dirty_data is not None:
                pass  # dirty owner answered the probe and keeps write-back duty
            elif txn.any_copy_acked:
                # Footnote f analogue: the owner held E and the DMA probe
                # downgraded it to S; the line is now clean-shared.
                old_owner = entry.owner
                line.state = _DIR_S
                entry.owner = None
                if old_owner is not None:
                    entry.add_sharer(old_owner)
            else:
                # The owner's copy was gone (victim in flight, later dropped
                # as stale): surviving sharers keep a clean-shared entry.
                entry.owner = None
                if entry.sharer_count > 0 or entry.overflow:
                    line.state = _DIR_S
                else:
                    self._drop_entry(line)
        return self.dir_state(txn.addr)

    def _act_t1_victim(self, txn: Transaction) -> DirState:
        self._update_after_victim(txn, self.entry_line(txn.addr))
        return self.dir_state(txn.addr)

    def _update_after_read(self, txn: Transaction, line: CacheLine | None) -> None:
        req = txn.request
        state: DirState = txn.prior_state  # type: ignore[assignment]
        if line is None:
            raise ProtocolError(f"read response without a directory entry: {txn!r}")
        entry: DirEntry = line.meta
        requester = req.requester
        is_cpu = req.requester_kind is _CPU_L2
        granted = self.grant_state(txn)
        if state is _DIR_I:
            if granted is _GRANT_E and is_cpu:
                line.state = _DIR_O
                entry.owner = requester
                entry.clear_sharers()
            else:
                line.state = _DIR_S
                entry.owner = None
                entry.clear_sharers()
                entry.add_sharer(requester)
        elif state is _DIR_S:
            line.state = _DIR_S
            entry.add_sharer(requester)
        else:  # O
            if txn.dirty_data is not None:
                # Owner downgraded M->O (or stayed O); requester joins dirty-shared.
                line.state = _DIR_O
                entry.add_sharer(requester)
            elif txn.any_copy_acked:
                # Footnotes d/f: the owner actually held E and downgraded to
                # S; the line is now clean-shared under the LLC/memory.
                old_owner = entry.owner
                line.state = _DIR_S
                entry.owner = None
                if old_owner is not None:
                    entry.add_sharer(old_owner)
                entry.add_sharer(requester)
            else:
                # The owner's copy was gone (victim in flight, later dropped
                # as stale): the requester becomes the new tracked holder.
                if granted is _GRANT_E and is_cpu:
                    line.state = _DIR_O
                    entry.owner = requester
                    entry.clear_sharers()
                else:
                    line.state = _DIR_S
                    entry.owner = None
                    entry.clear_sharers()
                    entry.add_sharer(requester)

    def _update_after_rdblkm(self, txn: Transaction, line: CacheLine | None) -> None:
        if line is None:
            raise ProtocolError(f"RdBlkM response without a directory entry: {txn!r}")
        entry: DirEntry = line.meta
        line.state = _DIR_O
        entry.owner = txn.request.requester
        entry.clear_sharers()

    def _update_after_wt(self, txn: Transaction, line: CacheLine | None) -> None:
        req = txn.request
        if line is None:
            return  # untracked line; nothing changes (WT never allocates)
        if req.is_writeback:
            # TCC eviction/flush write-back: the TCC no longer holds the
            # line and every other holder was just invalidated.
            self._drop_entry(line)
            return
        # Streaming write-through: every holder except the writing TCC was
        # invalidated; the TCC keeps its copy only if it had one.
        entry: DirEntry = line.meta
        keeps_copy = entry.is_sharer(req.requester) or (
            line.state is _DIR_O and entry.owner == req.requester
        )
        if not keeps_copy:
            self._drop_entry(line)
            return
        line.state = _DIR_S
        entry.owner = None
        entry.clear_sharers()
        entry.add_sharer(req.requester)

    def _update_after_victim(self, txn: Transaction, line: CacheLine | None) -> None:
        if line is None:
            return  # stale victim, already dropped
        req = txn.request
        entry: DirEntry = line.meta
        if line.state is _DIR_O and entry.owner == req.requester:
            # Owner write-back (VicDirty) or E eviction (VicClean).  The
            # LLC is now coherent with any remaining dirty sharers
            # (footnote h), so the line becomes clean-shared or dies.
            # (§VII: the conservative alternative deallocates the entry and
            # invalidates those sharers, costing extra probes.)
            entry.owner = None
            if entry.sharer_count > 0 or entry.overflow:
                if self.policy.vicdirty_invalidates_sharers:
                    self._invalidate_sharers_and_drop(line)
                else:
                    line.state = _DIR_S
            else:
                self._drop_entry(line)
        elif line.state is _DIR_S and req.mtype is _VIC_CLEAN:
            entry.remove_sharer(req.requester)
            if entry.sharer_count == 0 and not entry.overflow:
                self._drop_entry(line)
        elif (
            line.state is _DIR_O
            and req.mtype is _VIC_CLEAN
            and entry.is_sharer(req.requester)
        ):
            # a (possibly dirty) sharer of an owned line evicted clean
            entry.remove_sharer(req.requester)
        # Stale victims (accept_victim returned False) change nothing.

    def _invalidate_sharers_and_drop(self, line: CacheLine) -> None:
        """§VII conservative VicDirty handling: deallocate the entry and
        invalidate the remaining (dirty) sharers.  The probes ride on the
        still-active victim transaction, which completes once they ack."""
        txn = self._active[line.addr]
        targets = [
            t for t in self._holder_targets(line, include_owner=False)
            if t != txn.request.requester
        ]
        self._drop_entry(line)
        if targets:
            self._counters["vicdirty_sharer_invalidations"] += len(targets)
            self._send_probes(txn, targets, _INVALIDATE)

    def _drop_entry(self, line: CacheLine | None) -> None:
        if line is not None:
            self.dir_cache.invalidate(line.addr)

    # -- introspection for verification ---------------------------------------------------

    def snapshot_entry(self, addr: int) -> tuple[DirState, DirEntry | None]:
        line = self.entry_line(addr)
        if line is None:
            return _DIR_I, None
        return line.state, line.meta


# -- Table I --------------------------------------------------------------------


_T1_CACHE: dict[tuple, TransitionTable] = {}

OVL_DMA_KEEPS_STATE = "DMA leaves dir state (dma_updates_dir_state=False)"
OVL_CONSERVATIVE_VIC = "conservative VicDirty (§VII)"


def build_table1(policy: DirectoryPolicy) -> TransitionTable:
    """Declare the paper's Table I over the stable states ``I/S/O`` (plus
    the transient ``B`` of an entry eviction).

    Multiple declared next-states mirror Table I's footnoted splits: e.g.
    ``(I, RdBlk) -> O|S|I`` is "grant E to a lone CPU reader (track as O,
    footnote a), else S" with ``I`` covering untracked read-only regions,
    and ``(O, RdBlk) -> O|S`` is footnotes d/f (the owner's ack decides
    whether the line stays dirty-owned or decays to clean-shared).
    """
    key = (policy.dma_updates_dir_state, policy.vicdirty_invalidates_sharers)
    cached = _T1_CACHE.get(key)
    if cached is not None:
        return cached

    P = PreciseDirectory
    states = (DirState.I, DirState.S, DirState.O, DirState.B)
    events = _T1_REQUESTS + (EV_DIR_EVICT, EV_EVICT_DONE)
    table = TransitionTable("dir-table1", states, events, initial=DirState.I)
    I, S, O, B = DirState.I, DirState.S, DirState.O, DirState.B
    rd = (MsgType.RDBLK.value, MsgType.RDBLKS.value)
    rdm = MsgType.RDBLKM.value
    wt = MsgType.WT.value
    atomic = MsgType.ATOMIC.value
    dma_rd = MsgType.DMA_RD.value
    dma_wr = MsgType.DMA_WR.value
    vic_d = MsgType.VIC_DIRTY.value
    vic_c = MsgType.VIC_CLEAN.value

    # I: nothing tracked above.
    table.on(I, MsgType.RDBLK.value, (O, S, I), action=P._act_t1_read,
             note="lone CPU reader granted E is tracked as O (fn. a); GPU or "
                  "forced-shared readers as S; read-only regions untracked")
    table.on(I, MsgType.RDBLKS.value, (S, I), action=P._act_t1_read,
             note="shared-read fill; I only for untracked read-only regions")
    table.on(I, rdm, O, action=P._act_t1_rdblkm,
             note="write fill: requester becomes owner")
    table.on(I, wt, I, action=P._act_t1_wt,
             note="WT never allocates (the TCC does not write-allocate)")
    table.on(I, atomic, I, action=P._act_t1_drop)
    table.on(I, dma_rd, I, action=P._act_t1_keep, note="DMA reads don't track")
    table.on(I, dma_wr, I,
             action=P._act_t1_drop if policy.dma_updates_dir_state
             else P._act_t1_keep)
    table.on(I, (vic_d, vic_c), I, action=P._act_t1_victim,
             note="stale victim: the entry was already evicted")

    # S: clean-shared under the LLC/memory.
    table.on(S, rd, S, action=P._act_t1_read, note="another sharer joins")
    table.on(S, rdm, O, action=P._act_t1_rdblkm,
             note="upgrade: sharers invalidated, requester owns")
    table.on(S, wt, (S, I), action=P._act_t1_wt,
             note="holders invalidated; the writing TCC keeps its copy only "
                  "if it was a tracked sharer")
    table.on(S, atomic, I, action=P._act_t1_drop,
             note="system-scope atomic invalidates every copy")
    table.on(S, dma_rd, S, action=P._act_t1_keep)
    if policy.dma_updates_dir_state:
        table.on(S, dma_wr, I, action=P._act_t1_drop,
                 note="DMA write invalidates the tracked copies")
    else:
        table.on(S, dma_wr, S, action=P._act_t1_keep,
                 overlay=OVL_DMA_KEEPS_STATE)
    table.on(S, vic_c, (S, I), action=P._act_t1_victim,
             note="sharer leaves; last one frees the entry")
    table.on(S, vic_d, S, action=P._act_t1_victim,
             note="VicDirty from a non-owner is stale: dropped, no change")

    # O: owned (E/M/O somewhere above); the owner holds write-back duty.
    table.on(O, rd, (O, S), action=P._act_t1_read,
             note="dirty owner keeps O (fn. d); an E owner downgrades to S "
                  "(fn. f); a vanished owner hands the line to the requester")
    table.on(O, rdm, O, action=P._act_t1_rdblkm,
             note="ownership transfers to the requester")
    table.on(O, wt, (S, I), action=P._act_t1_wt,
             note="write-back frees the entry; streaming WT may keep the TCC")
    table.on(O, atomic, I, action=P._act_t1_drop)
    table.on(O, dma_rd, (O, S, I), action=P._act_t1_dma_rd,
             note="DMA read probes the owner: a dirty owner answers and "
                  "keeps O (fn. d); a clean E owner downgrades to S (fn. f); "
                  "a vanished owner leaves sharers clean-shared or frees "
                  "the entry")
    if policy.dma_updates_dir_state:
        table.on(O, dma_wr, I, action=P._act_t1_drop)
    else:
        table.on(O, dma_wr, O, action=P._act_t1_keep,
                 overlay=OVL_DMA_KEEPS_STATE)
    if policy.vicdirty_invalidates_sharers:
        table.on(O, (vic_d, vic_c), (O, I), action=P._act_t1_victim,
                 overlay=OVL_CONSERVATIVE_VIC,
                 note="owner write-back deallocates and invalidates the "
                      "remaining sharers (§VII); non-owner victims keep O")
    else:
        table.on(O, (vic_d, vic_c), (O, S, I), action=P._act_t1_victim,
                 note="owner write-back: remaining sharers become clean-shared "
                      "(fn. h) or the entry dies; non-owner victims keep O")

    # Entry evictions (§IV-A1): S/O -> B while back-invalidating, then I.
    table.on((S, O), EV_DIR_EVICT, B, action=P._act_t1_evict_begin,
             note="entry eviction begins: requests to the line stall")
    table.on(B, EV_EVICT_DONE, I, action=P._act_t1_evict_done,
             note="holders acked: write dirty data to the LLC, free the entry")

    # Illegal pairs: B is only visible to the eviction machinery (requests
    # to a B line queue at the Figure-2 layer and launch after EvictDone).
    table.illegal(B, _T1_REQUESTS,
                  note="blocked entry: requests queue behind the eviction")
    table.illegal((I, B), EV_DIR_EVICT,
                  note="only resident stable entries are eviction victims")
    table.illegal((I, S, O), EV_EVICT_DONE,
                  note="no eviction in progress")

    _T1_CACHE[key] = table
    return table
