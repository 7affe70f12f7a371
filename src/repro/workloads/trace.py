"""The op vocabulary of CPU-thread and GPU-wavefront programs.

Programs are Python generators: they ``yield`` ops and receive the op's
result back from the executing core/wavefront, so data-dependent control
flow (work-queue dequeues, CAS loops, flag spins) is expressed naturally::

    def worker(queue_head: int, items: int):
        while True:
            index = yield AtomicRMW(queue_head, AtomicOp.ADD, 1)
            if index >= items:
                return
            value = yield Load(item_addr(index))
            yield Store(result_addr(index), value + 1)

CPU-only ops: :class:`SpinUntil`, :class:`LaunchKernel`, :class:`WaitKernel`,
:class:`Barrier`.  GPU-only ops: :class:`VLoad`, :class:`VStore`,
:class:`LdsAccess`, :class:`WgBarrier`, :class:`AcquireFence`,
:class:`ReleaseFence`, and the ``scope`` field of :class:`AtomicRMW`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.protocol.atomics import AtomicOp


@dataclass(frozen=True)
class Think:
    """Compute for ``cycles`` of the executing core's clock."""

    cycles: int


@dataclass(frozen=True)
class Load:
    """Load one word; the yield returns its value."""

    addr: int


@dataclass(frozen=True)
class Store:
    """Store ``value`` to one word."""

    addr: int
    value: int


@dataclass(frozen=True)
class AtomicRMW:
    """Atomic read-modify-write on one word; the yield returns the old value.

    On the CPU this acquires M in the L2 and executes locally.  On the GPU,
    ``scope="glc"`` executes at the TCC (device visibility) and
    ``scope="slc"`` at the system directory (full-system visibility).
    """

    addr: int
    op: AtomicOp
    operand: int = 0
    compare: int = 0
    scope: str = "slc"  # GPU only; ignored on CPU


@dataclass(frozen=True)
class SpinUntil:
    """CPU: repeatedly load ``addr`` until ``predicate(value)``; returns the
    final value.  ``backoff_cycles`` separates retries."""

    addr: int
    predicate: Callable[[int], bool]
    backoff_cycles: int = 100


class HostBarrier:
    """A host-side (std::thread style) barrier among CPU threads."""

    def __init__(self, parties: int) -> None:
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.parties = parties
        self._waiting: list[Callable[[], None]] = []

    def arrive(self, callback: Callable[[], None]) -> None:
        self._waiting.append(callback)
        if len(self._waiting) >= self.parties:
            waiters, self._waiting = self._waiting, []
            for waiter in waiters:
                waiter()


@dataclass(frozen=True)
class Barrier:
    """CPU: wait at a :class:`HostBarrier`."""

    barrier: HostBarrier


@dataclass(frozen=True)
class LaunchKernel:
    """CPU: enqueue a GPU kernel; returns a kernel handle immediately."""

    kernel: object  # a KernelSpec; typed loosely to avoid a cycle


@dataclass(frozen=True)
class WaitKernel:
    """CPU: block until the kernel behind ``handle`` completes."""

    handle: object


@dataclass(frozen=True)
class VLoad:
    """GPU: coalesced vector load; returns a tuple of word values."""

    addrs: Sequence[int]


@dataclass(frozen=True)
class VStore:
    """GPU: coalesced vector store of ``values`` (or one broadcast value)."""

    addrs: Sequence[int]
    values: Sequence[int] | int


@dataclass(frozen=True)
class LdsAccess:
    """GPU: a Local Data Share access (CU-local scratchpad, fixed latency)."""

    count: int = 1


@dataclass(frozen=True)
class WgBarrier:
    """GPU: barrier across all wavefronts of this workgroup."""


@dataclass(frozen=True)
class AcquireFence:
    """GPU: acquire — invalidate this CU's TCP so later loads see
    system-visible data (the TCC is kept coherent by directory probes)."""


@dataclass(frozen=True)
class ReleaseFence:
    """GPU: release — make this wavefront's prior writes system-visible
    (drain outstanding write-throughs; flush dirty TCC lines in WB mode)."""


@dataclass
class DmaTransfer:
    """One DMA descriptor: read or write ``lines`` consecutive lines."""

    kind: str  # "read" | "write"
    start_addr: int
    lines: int
    value: int = 0  # fill word value for writes
    after_kernel: object | None = None  # optional ordering dependency

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ValueError(f"bad DMA kind {self.kind!r}")
        if self.lines < 1:
            raise ValueError("DMA transfer needs at least one line")
