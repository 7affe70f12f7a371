"""Harness for CorePair unit tests: a real CorePair against a scripted
fake directory, so every request/response/probe is controllable."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.corepair import CorePair
from repro.mem.address import line_addr, word_index
from repro.mem.block import ZERO_LINE, LineData
from repro.protocol.messages import Message
from repro.protocol.types import VICTIM_TYPES, MoesiState, MsgType, ProbeType
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import Simulator
from repro.sim.network import Network


@dataclass
class DirScript:
    """How the fake directory answers the next request for a line."""

    state: MoesiState = MoesiState.E
    data: LineData = field(default_factory=lambda: ZERO_LINE)


class FakeDirectory(Controller):
    """Answers requests immediately per script; records everything."""

    def __init__(self, sim, name, clock, network):
        super().__init__(sim, name, clock)
        self.network = network
        self.script: dict[int, DirScript] = {}
        self.requests: list[Message] = []
        self.unblocks: list[Message] = []
        self.probe_acks: list[Message] = []
        self.respond = True  # set False to hold responses

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is MsgType.UNBLOCK:
            self.unblocks.append(msg)
            return
        if msg.mtype is MsgType.PROBE_ACK:
            self.probe_acks.append(msg)
            return
        self.requests.append(msg)
        if not self.respond:
            return
        self.release(msg)

    def release(self, msg: Message) -> None:
        """Answer one (possibly previously withheld) request."""
        if msg.mtype in VICTIM_TYPES:
            self.network.send(
                Message(MsgType.WB_ACK, self.name, msg.src, msg.addr, tid=msg.tid)
            )
            return
        if msg.mtype is MsgType.WT:
            script = self.script.setdefault(msg.addr, DirScript())
            if msg.data is not None:
                script.data = msg.data
            elif msg.word_updates:
                data = script.data
                for index, value in msg.word_updates.items():
                    data = data.with_word(index, value)
                script.data = data
            self.network.send(
                Message(MsgType.WT_ACK, self.name, msg.src, msg.addr, tid=msg.tid)
            )
            return
        if msg.mtype is MsgType.FLUSH:
            self.network.send(
                Message(MsgType.FLUSH_ACK, self.name, msg.src, msg.addr, tid=msg.tid)
            )
            return
        if msg.mtype is MsgType.ATOMIC:
            from repro.protocol.atomics import apply_atomic

            script = self.script.setdefault(msg.addr, DirScript())
            new_data, old = apply_atomic(
                script.data, msg.word, msg.atomic_op, msg.operand, msg.compare
            )
            script.data = new_data
            self.network.send(
                Message(MsgType.ATOMIC_RESP, self.name, msg.src, msg.addr,
                        result=old, tid=msg.tid)
            )
            return
        script = self.script.get(msg.addr, DirScript())
        granted = script.state
        if msg.mtype is MsgType.RDBLKM:
            granted = MoesiState.M
        elif msg.mtype is MsgType.RDBLKS:
            granted = MoesiState.S
        self.network.send(
            Message(
                MsgType.DATA_RESP, self.name, msg.src, msg.addr,
                data=script.data, state=granted, tid=msg.tid,
            )
        )

    def probe(self, target: str, addr: int, ptype: ProbeType, tid: int = 7) -> None:
        self.network.send(Message.probe(self.name, target, addr, ptype, tid))

    def requests_of(self, mtype: MsgType) -> list[Message]:
        return [m for m in self.requests if m.mtype is mtype]


class CorePairHarness:
    def __init__(self, l2_geometry=(512, 4), l1_geometry=(128, 2)):
        self.sim = Simulator()
        self.clock = ClockDomain("test", 1e9)
        self.network = Network(self.sim, self.clock, default_latency_cycles=5)
        self.corepair = CorePair(
            self.sim, "l2.0", self.clock, self.network, "dir",
            l2_geometry=l2_geometry, l1d_geometry=l1_geometry,
            l1i_geometry=l1_geometry, l1_latency=1, l2_latency=4,
        )
        self.network.attach(self.corepair, kind="l2")
        self.directory = FakeDirectory(self.sim, "dir", self.clock, self.network)
        self.network.attach(self.directory, kind="dir")
        self.results: list[object] = []

    def run(self) -> None:
        self.sim.run()

    def access(self, kind: str, addr: int, slot: int = 0, **fields):
        from repro.cpu.corepair import CpuRequest

        self.corepair.access(
            slot, CpuRequest(kind, addr, **fields), self.results.append
        )

    def l2_state(self, line: int) -> MoesiState:
        cached = self.corepair.l2.lookup(line, touch=False)
        return MoesiState.I if cached is None else cached.state

    def l2_word(self, addr: int) -> int | None:
        cached = self.corepair.l2.lookup(line_addr(addr), touch=False)
        if cached is None or cached.data is None:
            return None
        return cached.data.word(word_index(addr))
