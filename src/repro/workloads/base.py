"""Workload framework: kernels, builds, and the Workload base class.

A workload ``build()`` produces per-CPU-thread programs, GPU kernels (which
the CPU programs launch), optional DMA transfers, initial memory contents,
and post-run functional checks — our substitute for the CHAI benchmarks'
output verification step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.mem.address import LINE_BYTES, make_addr
from repro.mem.block import LineData
from repro.workloads.trace import DmaTransfer


@dataclass
class KernelSpec:
    """A GPU kernel: workgroups of wavefront program factories.

    ``code_addrs`` is the ring of instruction lines wavefronts fetch through
    the SQC (every ``ifetch_interval`` ops).
    """

    name: str
    workgroups: list[list[Callable[[], Generator]]]
    code_addrs: tuple[int, ...] = ()
    ifetch_interval: int = 8


@dataclass
class WorkloadContext:
    """What a workload may inspect while building itself."""

    num_cpu_cores: int
    num_cus: int
    seed: int = 0
    #: problem-size multiplier; 1.0 is the default benchmark size.
    scale: float = 1.0

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def scaled(self, n: int, minimum: int = 1) -> int:
        return max(minimum, int(n * self.scale))


@dataclass
class WorkloadBuild:
    """Everything a built workload hands to the APU system."""

    cpu_programs: list[Callable[[], Generator]]
    dma_transfers: list[DmaTransfer] = field(default_factory=list)
    initial_memory: dict[int, LineData] = field(default_factory=dict)
    #: post-run checks: each callable receives the ApuSystem and returns a
    #: list of failure descriptions (empty = pass).
    checks: list[Callable[[object], list[str]]] = field(default_factory=list)


class Workload:
    """Base class for benchmarks.  Subclasses set the metadata fields and
    implement :meth:`build`."""

    #: short name, e.g. "tq"
    name: str = "abstract"
    #: one-line description
    description: str = ""

    def build(self, ctx: WorkloadContext) -> WorkloadBuild:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Workload {self.name}>"


class AddressSpace:
    """A bump allocator of line-aligned regions, keeping workload address
    maps readable and collision-free.

    Line 0 is reserved (the directory Flush fence uses address 0).
    """

    def __init__(self, base_line: int = 16) -> None:
        self._next_line = base_line

    def lines(self, count: int) -> int:
        """Allocate ``count`` consecutive lines; returns the base address."""
        if count < 1:
            raise ValueError("allocation needs at least one line")
        base = self._next_line * LINE_BYTES
        self._next_line += count
        return base

    def words(self, count: int) -> list[int]:
        """Allocate ``count`` words, one per line (no false sharing)."""
        return [self.lines(1) for _ in range(count)]

    def array(self, num_words: int) -> list[int]:
        """Allocate a dense array of word addresses (16 words per line)."""
        lines = (num_words + 15) // 16
        base = self.lines(lines)
        return [base + 4 * i for i in range(num_words)]


def checker(expected: dict[int, int], label: str) -> Callable[[object], list[str]]:
    """A post-run check asserting coherent word values.

    ``expected`` maps word addresses to required final values; the check
    reads through :meth:`ApuSystem.coherent_word`.
    """

    def run(system: object) -> list[str]:
        errors = []
        for addr, want in expected.items():
            got = system.coherent_word(addr)
            if got != want:
                errors.append(f"{label}: word {addr:#x} = {got}, expected {want}")
        return errors

    return run


def code_region(space: AddressSpace, lines: int = 4) -> tuple[int, ...]:
    """Allocate a small instruction region; returns its line addresses."""
    base = space.lines(lines)
    return tuple(base + i * LINE_BYTES for i in range(lines))


__all__ = [
    "AddressSpace",
    "KernelSpec",
    "Workload",
    "WorkloadBuild",
    "WorkloadContext",
    "checker",
    "code_region",
    "make_addr",
]
