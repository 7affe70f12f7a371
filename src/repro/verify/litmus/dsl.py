"""The litmus DSL: tiny programs over symbolic locations, exact postconditions.

A litmus test is a handful of agents — CPU threads, GPU wavefronts, DMA
transfers — each running a short *serializable* op list over named memory
locations, plus a postcondition over the registers the agents observed and
the final memory state.  Unlike :class:`~repro.workloads.base.Workload`
programs (arbitrary Python generators), litmus ops are plain tuples of
primitives, so a failing test can be shrunk op-by-op by the minimizer and
dumped to JSON as a replayable artifact.

Op vocabulary (``loc`` is a symbolic location name from the layout):

==============================  ==========================================
``("store", loc, value)``       store one word
``("load", loc, reg)``          load one word into register ``reg``
``("atomic", loc, op, operand, reg[, scope])``
                                atomic RMW; old value lands in ``reg``;
                                ``scope`` ("slc"/"glc") applies on the GPU
``("spin", loc, value)``        CPU: spin until the word equals ``value``;
                                GPU: acquire-fence + load polling loop
``("spin_ge", loc, value)``     like ``spin`` but until ``word >= value``
``("think", cycles)``           compute delay
``("vstore", [locs], value)``   GPU: coalesced vector store (broadcast)
``("vload", [locs], reg)``      GPU: vector load; tuple lands in ``reg``
``("acq",)`` / ``("rel",)``     GPU: acquire / release fence
``("flush", loc)``              evict ``loc``'s line from the issuing
                                agent's caches by loading a hidden run of
                                same-set lines (conflict eviction — the
                                model has no flush instruction), forcing
                                Evict/victim traffic on that line
==============================  ==========================================

Locations map to ``(line, word)`` pairs through the test's ``layout``;
distinct lines are allocated contiguously, so layouts can place two symbols
in the same line (false sharing) or ``L2_CONFLICT_STRIDE`` lines apart
(same L2 set, forcing evictions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.mem.address import LINE_BYTES, WORDS_PER_LINE, make_addr
from repro.mem.block import ZERO_LINE
from repro.protocol.atomics import AtomicOp
from repro.system.config import SystemConfig
from repro.workloads import trace as ops
from repro.workloads.base import (
    AddressSpace,
    KernelSpec,
    Workload,
    WorkloadBuild,
    code_region,
)
from repro.workloads.trace import DmaTransfer

#: ops legal on a CPU thread
CPU_OPS = frozenset(
    {"store", "load", "atomic", "spin", "spin_ge", "think", "flush"}
)
#: ops legal on a GPU wavefront
GPU_OPS = frozenset(
    {"store", "load", "atomic", "spin", "spin_ge", "think", "vstore",
     "vload", "acq", "rel", "flush"}
)

#: lines this many apart share an L2 set in the litmus system — the lever
#: for forcing evictions (VicDirty/VicClean races).  The small TCC's set
#: count divides this, so the same stride conflicts in the GPU hierarchy.
_SMALL_L2 = SystemConfig.small().l2
L2_CONFLICT_STRIDE = max(
    1, _SMALL_L2.size_bytes // LINE_BYTES // _SMALL_L2.assoc
)
#: stores needed to overflow one L2 set (associativity + 1 lines)
L2_WAYS = _SMALL_L2.assoc
#: backoff between polling loads, CPU spins and GPU spin loops alike
SPIN_BACKOFF_CYCLES = 50
#: polling-loop backstop so a shrunk-away flag store cannot livelock a run
MAX_SPIN_ROUNDS = 4_000


class LitmusError(ValueError):
    """A malformed litmus test (bad op, unknown location, bad agent)."""


@dataclass(frozen=True)
class DmaSpec:
    """One DMA agent: a single read or write transfer over ``lines`` lines
    starting at symbolic location ``loc``."""

    kind: str  # "read" | "write"
    loc: str
    lines: int = 1
    value: int = 0

    def to_json(self) -> dict:
        return {"kind": self.kind, "loc": self.loc, "lines": self.lines,
                "value": self.value}

    @classmethod
    def from_json(cls, data: dict) -> "DmaSpec":
        return cls(**data)


class LitmusEnv:
    """What a postcondition may inspect: observed registers and final memory.

    Registers are named ``"<agent>:<reg>"`` (``t0:r1``, ``g1:old``); a
    register an agent never wrote reads as None, so postconditions stay
    evaluable on minimizer-shrunk op lists.  ``expect*`` helpers accumulate
    failure strings instead of raising, letting one run report every
    violated clause.
    """

    def __init__(self, regs: dict[str, int], mem: Callable[[str], int]) -> None:
        self.regs = regs
        self._mem = mem
        self.errors: list[str] = []

    def reg(self, name: str):
        return self.regs.get(name)

    def mem(self, loc: str) -> int:
        return self._mem(loc)

    def expect(self, ok: bool, description: str) -> None:
        if not ok:
            self.errors.append(description)

    def expect_mem(self, loc: str, value: int) -> None:
        got = self._mem(loc)
        self.expect(got == value, f"final {loc} = {got}, expected {value}")

    def expect_reg(self, name: str, value: int) -> None:
        got = self.regs.get(name)
        self.expect(got == value, f"{name} = {got}, expected {value}")

    def expect_reg_in(self, name: str, allowed) -> None:
        got = self.regs.get(name)
        self.expect(
            got is None or got in allowed,
            f"{name} = {got}, allowed {sorted(allowed)}",
        )


@dataclass
class LitmusTest:
    """One litmus shape: agents, layout, initial memory, postcondition.

    ``layout`` maps symbolic names to ``(line_index, word_index)``;
    line indices are logical (0-based) and allocated as one contiguous
    block, so relative placement (same line, same L2 set) is preserved.
    ``postcondition`` receives a :class:`LitmusEnv` and returns a list of
    failure descriptions (empty = pass); None means "verifier-only" (the
    invariant monitor and value oracle are the only checks).
    """

    name: str
    description: str
    layout: dict[str, tuple[int, int]]
    threads: list[list[tuple]] = field(default_factory=list)
    gpu_waves: list[list[tuple]] = field(default_factory=list)
    dma: list[DmaSpec] = field(default_factory=list)
    init: dict[str, int] = field(default_factory=dict)
    postcondition: Callable[[LitmusEnv], list[str]] | None = None

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        if not self.threads and not self.gpu_waves and not self.dma:
            raise LitmusError(f"{self.name}: no agents")
        for loc, (line, word) in self.layout.items():
            if line < 0 or not 0 <= word < WORDS_PER_LINE:
                raise LitmusError(f"{self.name}: bad layout for {loc!r}")
        for agent, script in self.agents():
            allowed = CPU_OPS if agent.startswith("t") else GPU_OPS
            for op in script:
                if not op or op[0] not in allowed:
                    raise LitmusError(f"{self.name}: {agent} cannot run {op!r}")
                for loc in _op_locs(op):
                    if loc not in self.layout:
                        raise LitmusError(
                            f"{self.name}: {agent} references unknown "
                            f"location {loc!r}"
                        )
        for spec in self.dma:
            if spec.loc not in self.layout:
                raise LitmusError(f"{self.name}: DMA references {spec.loc!r}")
        for loc in self.init:
            if loc not in self.layout:
                raise LitmusError(f"{self.name}: init references {loc!r}")

    def agents(self) -> list[tuple[str, list[tuple]]]:
        """Every program-carrying agent as ``(name, op_list)`` pairs."""
        return [(f"t{i}", script) for i, script in enumerate(self.threads)] + [
            (f"g{i}", script) for i, script in enumerate(self.gpu_waves)
        ]

    def total_ops(self) -> int:
        return sum(len(script) for _agent, script in self.agents()) + len(self.dma)

    # -- shrinking support -----------------------------------------------------

    def with_agents(
        self,
        threads: list[list[tuple]],
        gpu_waves: list[list[tuple]],
        dma: list[DmaSpec],
    ) -> "LitmusTest":
        """A copy with replaced agent op lists (the minimizer's edit point)."""
        return LitmusTest(
            name=self.name,
            description=self.description,
            layout=self.layout,
            threads=[list(script) for script in threads],
            gpu_waves=[list(script) for script in gpu_waves],
            dma=list(dma),
            init=dict(self.init),
            postcondition=self.postcondition,
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-able description (postcondition is referenced by name only)."""
        return {
            "name": self.name,
            "description": self.description,
            "layout": {loc: list(pos) for loc, pos in self.layout.items()},
            "threads": [[list(op) for op in script] for script in self.threads],
            "gpu_waves": [[list(op) for op in script] for script in self.gpu_waves],
            "dma": [spec.to_json() for spec in self.dma],
            "init": dict(self.init),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LitmusTest":
        test = cls(
            name=data["name"],
            description=data.get("description", ""),
            layout={loc: tuple(pos) for loc, pos in data["layout"].items()},
            threads=[[tuple(op) for op in script] for script in data["threads"]],
            gpu_waves=[
                [tuple(op) for op in script] for script in data["gpu_waves"]
            ],
            dma=[DmaSpec.from_json(spec) for spec in data.get("dma", [])],
            init={loc: value for loc, value in data.get("init", {}).items()},
        )
        test.validate()
        return test


def _op_locs(op: tuple) -> list[str]:
    """Symbolic locations an op references."""
    kind = op[0]
    if kind in ("store", "load", "atomic", "spin", "spin_ge", "flush"):
        return [op[1]]
    if kind in ("vstore", "vload"):
        return list(op[1])
    return []


# -- compilation to a Workload -------------------------------------------------


class CompiledLitmus(Workload):
    """A litmus test compiled to the standard Workload interface.

    Thread 0's program launches one GPU kernel holding every wavefront (one
    workgroup per wave, so waves land on distinct CUs when available) and
    waits for it after its own script; DMA specs become the build's
    transfer list.  Registers observed during the run land in
    :attr:`regs` keyed ``"<agent>:<reg>"``.
    """

    def __init__(self, test: LitmusTest) -> None:
        test.validate()
        self.test = test
        self.name = f"litmus_{test.name}"
        self.description = test.description
        self.regs: dict[str, int] = {}
        self._addrs: dict[str, int] = {}
        #: layout line index -> hidden conflict-run addresses (flush ops)
        self._flush_addrs: dict[int, list[int]] = {}

    def addr_of(self, loc: str) -> int:
        """Byte address of a symbolic location (valid after build())."""
        return self._addrs[loc]

    def build(self, ctx) -> WorkloadBuild:
        test = self.test
        self.regs = {}
        space = AddressSpace()
        num_lines = 1 + max(
            (line for line, _word in test.layout.values()), default=0
        )
        base = space.lines(num_lines)
        base_line = base // LINE_BYTES
        self._addrs = {
            loc: make_addr(base_line + line, word)
            for loc, (line, word) in test.layout.items()
        }
        code = code_region(space)

        # Flush ops evict by conflict: each distinct target line gets a
        # hidden region of (L2_WAYS + 1) same-set lines (stride-apart), so
        # loading the run displaces the target from every level.  Existing
        # tests without flush ops allocate nothing — their address maps
        # are unchanged.
        flush_lines = sorted({
            test.layout[op[1]][0]
            for _agent, script in test.agents()
            for op in script if op[0] == "flush"
        })
        self._flush_addrs = {}
        for target_line in flush_lines:
            region = space.lines((L2_WAYS + 1) * L2_CONFLICT_STRIDE)
            region_line = region // LINE_BYTES
            start = region_line + (
                (base_line + target_line - region_line) % L2_CONFLICT_STRIDE
            )
            self._flush_addrs[target_line] = [
                make_addr(start + way * L2_CONFLICT_STRIDE, 0)
                for way in range(L2_WAYS + 1)
            ]

        initial_memory = {}
        for loc, value in test.init.items():
            addr = self._addrs[loc]
            line = addr - (addr % LINE_BYTES)
            data = initial_memory.get(line, ZERO_LINE)
            initial_memory[line] = data.with_word(
                (addr % LINE_BYTES) // 4, value
            )

        if len(test.threads) > ctx.num_cpu_cores:
            raise LitmusError(
                f"{test.name}: wants {len(test.threads)} CPU threads, "
                f"system has {ctx.num_cpu_cores} cores"
            )

        gpu_factories = [
            self._interpreter(f"g{index}", script, gpu=True)
            for index, script in enumerate(test.gpu_waves)
        ]
        thread_factories = [
            self._interpreter(f"t{index}", script, gpu=False)
            for index, script in enumerate(test.threads)
        ]

        if gpu_factories:
            kernel = KernelSpec(
                f"litmus_{test.name}",
                [[factory] for factory in gpu_factories],
                code_addrs=code,
            )
            t0 = thread_factories[0] if thread_factories else _empty_program

            def host():
                handle = yield ops.LaunchKernel(kernel)
                yield from t0()
                yield ops.WaitKernel(handle)

            cpu_programs = [host] + thread_factories[1:]
        else:
            cpu_programs = thread_factories

        dma_transfers = [
            DmaTransfer(
                kind=spec.kind,
                start_addr=self._addrs[spec.loc],
                lines=spec.lines,
                value=spec.value,
            )
            for spec in test.dma
        ]
        return WorkloadBuild(
            cpu_programs=cpu_programs,
            dma_transfers=dma_transfers,
            initial_memory=initial_memory,
        )

    # -- the op interpreter ----------------------------------------------------

    def _interpreter(self, agent: str, script: list[tuple], gpu: bool):
        addrs = self._addrs
        regs = self.regs
        test = self.test
        flush_addrs = self._flush_addrs

        def program() -> Generator:
            for op in script:
                kind = op[0]
                if kind == "store":
                    yield ops.Store(addrs[op[1]], op[2])
                elif kind == "load":
                    value = yield ops.Load(addrs[op[1]])
                    regs[f"{agent}:{op[2]}"] = value
                elif kind == "atomic":
                    scope = op[5] if len(op) > 5 else "slc"
                    old = yield ops.AtomicRMW(
                        addrs[op[1]], AtomicOp[op[2].upper()],
                        operand=op[3], scope=scope,
                    )
                    regs[f"{agent}:{op[4]}"] = old
                elif kind in ("spin", "spin_ge"):
                    value = yield from _spin(
                        agent, op[1], addrs[op[1]], op[2],
                        ge=(kind == "spin_ge"), gpu=gpu,
                    )
                    regs[f"{agent}:spin@{op[1]}"] = value
                elif kind == "think":
                    yield ops.Think(op[1])
                elif kind == "vstore":
                    yield ops.VStore([addrs[loc] for loc in op[1]], op[2])
                elif kind == "vload":
                    values = yield ops.VLoad([addrs[loc] for loc in op[1]])
                    if not isinstance(values, tuple):
                        values = (values,)
                    regs[f"{agent}:{op[2]}"] = values
                elif kind == "flush":
                    for hidden in flush_addrs[test.layout[op[1]][0]]:
                        yield ops.Load(hidden)
                elif kind == "acq":
                    yield ops.AcquireFence()
                elif kind == "rel":
                    yield ops.ReleaseFence()
                else:  # pragma: no cover - validate() rejects these
                    raise LitmusError(f"{agent}: cannot interpret {op!r}")

        return program


class SpinTimeout(LitmusError):
    """A litmus spin exhausted its polling budget (the writer it waits on
    was probably shrunk away, or the protocol lost the flag store)."""


def _spin(agent: str, loc: str, addr: int, target: int,
          ge: bool, gpu: bool) -> Generator:
    """Bounded polling loop: load, compare, back off.

    GPU waves acquire-fence before every poll (dropping stale TCP copies);
    CPU loads are kept coherent by the protocol itself.  The
    ``MAX_SPIN_ROUNDS`` bound turns a spin whose writer was shrunk away by
    the minimizer into a fast, classifiable :class:`SpinTimeout` instead of
    a multi-million-event livelock.
    """
    value = None
    for _round in range(MAX_SPIN_ROUNDS):
        if gpu:
            yield ops.AcquireFence()
        value = yield ops.Load(addr)
        if (value >= target) if ge else (value == target):
            return value
        yield ops.Think(SPIN_BACKOFF_CYCLES)
    raise SpinTimeout(
        f"{agent}: spin on {loc} never saw "
        f"{'>=' if ge else '=='} {target} (last value {value})"
    )


def _empty_program() -> Generator:
    return
    yield  # pragma: no cover - makes this a generator function
