"""Directed-test harness for the system-level directory.

Builds a minimal fabric — directory + LLC + memory + scriptable fake
caches — so tests can drive individual protocol scenarios and observe
every probe, response, and memory access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.directory import DirectoryController
from repro.coherence.llc import LastLevelCache
from repro.coherence.policies import DirectoryPolicy
from repro.coherence.precise import PreciseDirectory
from repro.mem.block import ZERO_LINE, LineData
from repro.mem.main_memory import MainMemory
from repro.protocol.messages import Message
from repro.protocol.types import MoesiState, MsgType, ProbeType, RequesterKind
from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import Simulator
from repro.sim.network import Network


@dataclass
class ProbeBehavior:
    """How a fake cache answers a probe for one line."""

    had_copy: bool = False
    dirty: bool = False
    data: LineData | None = None
    from_victim: bool = False


@dataclass
class Received:
    """Everything a fake cache has observed."""

    probes: list[Message] = field(default_factory=list)
    responses: list[Message] = field(default_factory=list)


class FakeCache(Controller):
    """A scriptable L2/TCC/DMA stand-in."""

    def __init__(self, sim, name, clock, network, kind: str, auto_unblock: bool = True):
        super().__init__(sim, name, clock)
        self.network = network
        self.kind = kind
        self.auto_unblock = auto_unblock
        self.probe_behavior: dict[int, ProbeBehavior] = {}
        self.received = Received()

    def behave(self, addr: int, **kwargs) -> None:
        self.probe_behavior[addr] = ProbeBehavior(**kwargs)

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is MsgType.PROBE:
            self.received.probes.append(msg)
            behavior = self.probe_behavior.get(msg.addr, ProbeBehavior())
            self.network.send(
                Message.probe_ack(
                    self.name, msg.src, msg.addr, msg.tid,
                    data=behavior.data, dirty=behavior.dirty,
                    had_copy=behavior.had_copy, from_victim=behavior.from_victim,
                )
            )
            if msg.probe_type is ProbeType.INVALIDATE:
                # an invalidated copy answers nothing next time
                self.probe_behavior.pop(msg.addr, None)
        else:
            self.received.responses.append(msg)
            if (
                self.auto_unblock
                and msg.mtype is MsgType.DATA_RESP
                and self.kind == "l2"
            ):
                self.network.send(
                    Message.unblock(self.name, msg.src, msg.addr, msg.tid)
                )

    def request(self, mtype: MsgType, addr: int, **fields) -> None:
        kind = {
            "l2": RequesterKind.CPU_L2,
            "tcc": RequesterKind.TCC,
            "dma": RequesterKind.DMA,
        }[self.kind]
        self.network.send(
            Message.request(mtype, self.name, "dir", addr, kind, **fields)
        )

    def last_response(self) -> Message:
        assert self.received.responses, f"{self.name} got no response"
        return self.received.responses[-1]

    def probes_seen(self, addr: int | None = None) -> list[Message]:
        if addr is None:
            return list(self.received.probes)
        return [p for p in self.received.probes if p.addr == addr]


def dirty_in_llc(llc: LastLevelCache, addr: int) -> bool:
    line = llc.array.lookup(addr, touch=False)
    return line is not None and line.dirty


class DirHarness:
    """Directory + LLC + memory + 2 fake L2s + 1 fake TCC + 1 fake DMA."""

    def __init__(
        self,
        policy: DirectoryPolicy | None = None,
        num_l2s: int = 2,
        llc_kwargs: dict | None = None,
    ):
        self.sim = Simulator()
        self.clock = ClockDomain("test", 1e9)
        self.network = Network(self.sim, self.clock, default_latency_cycles=5)
        self.memory = MainMemory(self.sim, self.clock, latency_cycles=50, gap_cycles=5)
        policy = policy or DirectoryPolicy()
        self.llc = LastLevelCache(
            **(llc_kwargs or dict(size_bytes=4096, assoc=4)),
            writeback=policy.llc_writeback,
        )
        dir_cls = PreciseDirectory if policy.is_precise else DirectoryController
        self.directory = dir_cls(
            self.sim, "dir", self.clock, self.network, self.llc, self.memory,
            policy, latency_cycles=4, service_cycles=1,
        )
        self.network.attach(self.directory, kind="dir")
        self.l2s = []
        for index in range(num_l2s):
            l2 = FakeCache(self.sim, f"l2.{index}", self.clock, self.network, "l2")
            self.network.attach(l2, kind="l2")
            self.l2s.append(l2)
        self.tcc = FakeCache(self.sim, "tcc0", self.clock, self.network, "tcc")
        self.network.attach(self.tcc, kind="tcc")
        self.dma = FakeCache(self.sim, "dma0", self.clock, self.network, "dma")
        self.network.attach(self.dma, kind="dma")

    def run(self) -> None:
        self.sim.run()

    def seed_memory(self, addr: int, word0: int) -> None:
        self.memory.poke(addr, ZERO_LINE.with_word(0, word0))

    @property
    def probes_sent(self) -> int:
        return int(self.directory.stats["probes_sent"])

    @property
    def mem_reads(self) -> int:
        return int(self.directory.stats["mem_reads"])

    @property
    def mem_writes(self) -> int:
        return int(self.directory.stats["mem_writes"])


def line_with(word0: int) -> LineData:
    return ZERO_LINE.with_word(0, word0)


def grant_of(cache: FakeCache) -> MoesiState:
    return cache.last_response().state
