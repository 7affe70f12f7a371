"""The concrete message record exchanged between controllers.

A single :class:`Message` type covers the whole protocol; unused fields stay
at their defaults.  Factory classmethods build each message shape so call
sites stay readable and sizes/categories are set consistently (control
messages are 8 bytes, data-carrying messages 72 bytes = 8 control + 64
data — the constants the network uses for byte accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.block import LineData
from repro.protocol.atomics import AtomicOp
from repro.protocol.types import (
    REQUEST_TYPES,
    MoesiState,
    MsgType,
    ProbeType,
    RequesterKind,
)

CTRL_MSG_BYTES = 8
DATA_MSG_BYTES = 72

#: the members the factories stamp, bound once (no per-message enum lookup)
_PROBE, _PROBE_ACK, _UNBLOCK = MsgType.PROBE, MsgType.PROBE_ACK, MsgType.UNBLOCK


def _category(mtype: MsgType) -> str:
    if mtype is _PROBE:
        return "probe"
    if mtype is _PROBE_ACK:
        return "probe_ack"
    if mtype is _UNBLOCK:
        return "unblock"
    if mtype in REQUEST_TYPES:
        return "request"
    return "response"


#: category is fixed per message type; the fabric reads it once per send.
_CATEGORY_OF = {mtype: _category(mtype) for mtype in MsgType}


@dataclass(slots=True)
class Message:
    mtype: MsgType
    src: str
    dst: str
    addr: int
    requester: str | None = None
    requester_kind: RequesterKind | None = None
    data: LineData | None = None
    dirty: bool = False
    probe_type: ProbeType | None = None
    state: MoesiState | None = None
    atomic_op: AtomicOp | None = None
    operand: int = 0
    compare: int = 0
    word: int = 0
    is_writeback: bool = False
    #: partial-line GPU write-through: sparse {word_index: value} updates
    #: (mutually exclusive with a full-line ``data`` payload).
    word_updates: dict[int, int] | None = None
    #: probe acks: did the probed cache hold a (possibly clean) copy?
    had_copy: bool = False
    #: probe acks: the copy lives in a victim buffer (a Vic* message for
    #: this line is already in flight and must be treated as superseded by
    #: any system-level write this probe serves).
    from_victim: bool = False
    #: atomic responses: the old value read-modify-written.
    result: int = 0
    tid: int = -1

    @property
    def category(self) -> str:
        return _CATEGORY_OF[self.mtype]

    @property
    def size_bytes(self) -> int:
        if self.data is not None:
            return DATA_MSG_BYTES
        if self.word_updates:
            return CTRL_MSG_BYTES + 4 * len(self.word_updates)
        return CTRL_MSG_BYTES

    # -- factories ----------------------------------------------------------

    @classmethod
    def request(
        cls,
        mtype: MsgType,
        src: str,
        dst: str,
        addr: int,
        kind: RequesterKind,
        data: LineData | None = None,
        **fields: object,
    ) -> "Message":
        if mtype not in REQUEST_TYPES:
            raise ValueError(f"{mtype} is not a request type")
        return cls(
            mtype, src, dst, addr, requester=src, requester_kind=kind, data=data, **fields
        )

    @classmethod
    def probe(
        cls,
        src: str,
        dst: str,
        addr: int,
        probe_type: ProbeType,
        tid: int,
    ) -> "Message":
        return cls(_PROBE, src, dst, addr, probe_type=probe_type, tid=tid)

    @classmethod
    def probe_ack(
        cls,
        src: str,
        dst: str,
        addr: int,
        tid: int,
        data: LineData | None = None,
        dirty: bool = False,
        had_copy: bool = False,
        from_victim: bool = False,
        word_updates: dict[int, int] | None = None,
    ) -> "Message":
        return cls(
            _PROBE_ACK, src, dst, addr, tid=tid, data=data, dirty=dirty,
            had_copy=had_copy or data is not None, from_victim=from_victim,
            word_updates=word_updates,
        )

    @classmethod
    def unblock(cls, src: str, dst: str, addr: int, tid: int) -> "Message":
        return cls(_UNBLOCK, src, dst, addr, tid=tid)

    def __repr__(self) -> str:
        parts = [f"{self.mtype.value}", f"{self.src}->{self.dst}", f"addr={self.addr:#x}"]
        if self.probe_type is not None:
            parts.append(self.probe_type.value)
        if self.state is not None:
            parts.append(f"grant={self.state.value}")
        if self.data is not None:
            parts.append("+data" + ("(dirty)" if self.dirty else ""))
        if self.tid >= 0:
            parts.append(f"tid={self.tid}")
        return f"<Msg {' '.join(parts)}>"
