"""In-flight directory transaction state.

One transaction per line at a time; further requests to the line queue
behind it.  The ``_PM`` / ``_Pm`` / ``_M`` blocked states of Figure 2 map
onto the combination of :attr:`pending_acks` (P), :attr:`mem_outstanding`
(M), and :attr:`awaiting_unblock`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from repro.mem.block import LineData

if TYPE_CHECKING:
    from repro.protocol.messages import Message

_tid_counter = itertools.count()


class Transaction:
    """One coherence transaction at the system-level directory."""

    __slots__ = (
        "tid",
        "addr",
        "request",
        "state",
        "pending_acks",
        "mem_outstanding",
        "dirty_data",
        "any_copy_acked",
        "responded",
        "awaiting_unblock",
        "on_all_acks",
        "on_complete",
        "started_at",
        "is_eviction",
        "needs_data",
        "read_issued",
        "data_ready",
        "fetched_data",
        "prior_state",
        "victim_ack_sources",
        "partial_updates",
    )

    def __init__(self, request: "Message", is_eviction: bool = False) -> None:
        self.tid = next(_tid_counter)
        self.addr = request.addr
        self.request = request
        #: Figure-2 state, advanced by the directory's table on every event
        self.state = "U"
        self.pending_acks = 0
        self.mem_outstanding = False
        #: dirty data collected from a probe ack (the most recent wins —
        #: only one dirty owner can exist, so at most one ack carries data).
        self.dirty_data: LineData | None = None
        #: did any probed cache report holding a copy (denies Exclusive)?
        self.any_copy_acked = False
        self.responded = False
        self.awaiting_unblock = False
        #: hook run once when the last probe ack arrives.
        self.on_all_acks: Callable[[], None] | None = None
        #: hook run when the transaction fully completes (for state updates).
        self.on_complete: Callable[[], None] | None = None
        self.started_at = 0
        self.is_eviction = is_eviction
        #: does the response require line data?
        self.needs_data = False
        #: has an LLC/memory read been issued for this transaction?
        self.read_issued = False
        #: has the LLC/memory read completed?
        self.data_ready = False
        #: data returned by the LLC or memory (dirty probe data wins over it).
        self.fetched_data: LineData | None = None
        #: directory state of the line when the transaction launched
        #: (recorded by the precise directory for its update rules).
        self.prior_state: object = None
        #: caches whose probe ack was served from a victim buffer — a Vic*
        #: message from them is in flight and may need to be dropped.
        self.victim_ack_sources: set[str] = set()
        #: word-granular dirty data forwarded by probed VI caches (the TCC
        #: forwards only its *modified words*); applied on top of whatever
        #: base data serves the request.
        self.partial_updates: dict[int, int] = {}

    @property
    def blocked_on(self) -> str:
        """A Figure-2-style suffix describing what the transaction awaits."""
        p = "P" if self.pending_acks else ""
        m = "M" if self.mem_outstanding else ""
        u = "U" if self.awaiting_unblock else ""
        return f"B_{p}{m}{u}" if (p or m or u) else "B"

    @property
    def settled(self) -> bool:
        """All probes acked, memory quiet, and any required unblock seen."""
        return (
            self.pending_acks == 0
            and not self.mem_outstanding
            and not self.awaiting_unblock
        )

    def __repr__(self) -> str:
        return (
            f"Transaction(tid={self.tid}, addr={self.addr:#x}, "
            f"{self.request.mtype.value}, state={self.blocked_on})"
        )
