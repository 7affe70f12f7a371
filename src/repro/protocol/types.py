"""State and message-type enumerations.

These mirror the vocabulary of §II of the paper: the MOESI states of the
CorePair caches, the VI states of the GPU caches, the request types the
system-level directory accepts from L2s / the TCC / the DMA engine, and the
two probe flavours the directory sends.
"""

from __future__ import annotations

import enum


class MoesiState(enum.Enum):
    """CPU-side (CorePair L1/L2) stable states."""

    M = "M"  # modified: sole dirty copy
    O = "O"  # owned: dirty, shared, this copy responsible for write-back
    E = "E"  # exclusive: sole clean copy; may silently become M
    S = "S"  # shared: readable copy (may be dirty w.r.t. memory under an O owner)
    I = "I"  # invalid

    # members are identity-compared singletons, so the C-level id hash is
    # equivalent to Enum's Python-level name hash — and these enums key the
    # per-event transition/category dict lookups.
    __hash__ = object.__hash__


class ViState(enum.Enum):
    """GPU-side (TCP/TCC/SQC) stable states — a simple Valid/Invalid protocol."""

    V = "V"
    I = "I"

    __hash__ = object.__hash__


class DirState(enum.Enum):
    """Precise-directory stable states (§IV-A of the paper).

    ``I``: no processor cache holds the line.
    ``S``: held only in shared, LLC-coherent form.
    ``O``: modified/owned/exclusive somewhere above (E is conservatively O
    because E can turn M silently).
    ``B``: transient — the directory entry is being evicted; requests stall.
    """

    I = "I"
    S = "S"
    O = "O"
    B = "B"

    __hash__ = object.__hash__


class MsgType(enum.Enum):
    """Every message class that crosses the fabric."""

    # CPU L2 -> directory requests (§II-A)
    RDBLK = "RdBlk"      # read, may be granted Exclusive or Shared
    RDBLKS = "RdBlkS"    # read, Shared only (instruction-cache misses)
    RDBLKM = "RdBlkM"    # write permission
    VIC_DIRTY = "VicDirty"
    VIC_CLEAN = "VicClean"
    # TCC -> directory requests
    WT = "WT"            # write-through (doubles as write-back when TCC is WB)
    ATOMIC = "Atomic"    # system-scope (SLC) atomic, executed at the directory
    FLUSH = "Flush"      # store-release support
    # DMA -> directory requests
    DMA_RD = "DMARd"
    DMA_WR = "DMAWr"
    # directory -> caches
    PROBE = "Probe"
    # caches -> directory
    PROBE_ACK = "ProbeAck"
    # directory -> requester
    DATA_RESP = "DataResp"
    WB_ACK = "WBAck"
    WT_ACK = "WTAck"
    ATOMIC_RESP = "AtomicResp"
    FLUSH_ACK = "FlushAck"
    DMA_RESP = "DMAResp"
    # requester -> directory, closing a transaction
    UNBLOCK = "Unblock"

    __hash__ = object.__hash__


# -- flag sets ------------------------------------------------------------
#
# State and message-type flags are membership tests on these module-level
# sets: on CPython 3.11 each ``MsgType.X`` class lookup costs several times a
# plain attribute load, so nothing per message spells a member out (see
# DESIGN.md, "Hot-path idioms").

READABLE_STATES = frozenset(
    {MoesiState.M, MoesiState.O, MoesiState.E, MoesiState.S}
)
# E may silently become M
WRITABLE_STATES = frozenset({MoesiState.M, MoesiState.E})
# states that oblige the cache to supply / write back data
DIRTY_STATES = frozenset({MoesiState.M, MoesiState.O})

REQUEST_TYPES = frozenset(
    {
        MsgType.RDBLK,
        MsgType.RDBLKS,
        MsgType.RDBLKM,
        MsgType.VIC_DIRTY,
        MsgType.VIC_CLEAN,
        MsgType.WT,
        MsgType.ATOMIC,
        MsgType.FLUSH,
        MsgType.DMA_RD,
        MsgType.DMA_WR,
    }
)
# requests that trigger *invalidating* probes (incl. the TCC)
WRITE_PERMISSION_TYPES = frozenset(
    {MsgType.RDBLKM, MsgType.WT, MsgType.ATOMIC, MsgType.DMA_WR}
)
# requests that trigger *downgrading* probes (TCC excluded)
READ_PERMISSION_TYPES = frozenset({MsgType.RDBLK, MsgType.RDBLKS, MsgType.DMA_RD})
VICTIM_TYPES = frozenset({MsgType.VIC_DIRTY, MsgType.VIC_CLEAN})


class ProbeType(enum.Enum):
    INVALIDATE = "inv"
    DOWNGRADE = "down"

    __hash__ = object.__hash__


class RequesterKind(enum.Enum):
    """Who a directory request came from — decides response shape."""

    CPU_L2 = "l2"
    TCC = "tcc"
    DMA = "dma"

    __hash__ = object.__hash__
