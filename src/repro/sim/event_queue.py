"""Tick-based event queue and top-level simulator object.

Global simulated time is measured in integer *ticks* (picoseconds by
convention).  Components never touch ticks directly; they schedule through
their :class:`~repro.sim.clock.ClockDomain`, which converts local cycles to
ticks.

The kernel is one binary heap of ``(time, priority, seq, callback, arg)``
tuples (:class:`EventQueue`).  Events run in ``(time, priority, seq)``
order: lower priority first among same-tick events, then FIFO by the
sequence number taken at scheduling time.  That order is the contract every
golden stat set, the litmus schedule pin and the per-run litmus hashes rest
on; :meth:`EventQueue.set_tie_break` is the only sanctioned way to permute
it.  The queue keeps no free lists: the event tuple is the whole record.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while components report pending work."""


#: Sentinel marking an event scheduled without an argument (``callback()``
#: form).  Distinct from ``None`` so callers can legitimately pass ``None``
#: as an event argument.
_NO_ARG = object()


class EventQueue:
    """A binary-heap priority queue of ``(time, priority, seq)`` events.

    ``priority`` breaks ties between events scheduled for the same tick
    (lower runs first); ``seq`` preserves FIFO order among equals so the
    simulation is fully deterministic.

    Events come in two shapes: ``callback()`` (the classic closure form) and
    ``callback(arg)`` when an ``arg`` is supplied to :meth:`schedule` /
    :meth:`schedule_after`.  The second form lets hot paths schedule a
    bound method plus its payload instead of allocating a fresh closure per
    event.

    *Schedule exploration* (:meth:`set_tie_break`): tests can replace the
    FIFO tie-break among same-``(time, priority)`` events with a seeded
    random permutation, exploring alternative *legal* event orders the
    default schedule never samples.  Every explored schedule is still fully
    deterministic for a given seed.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Callable, object]] = []
        self._seq = 0
        self.now = 0
        self.executed_events = 0
        #: optional RNG permuting same-(time, priority) ordering (see
        #: :meth:`set_tie_break`); None = deterministic FIFO.
        self._tie_break = None

    def __len__(self) -> int:
        return len(self._heap)

    def set_tie_break(self, rng) -> None:
        """Permute the ordering of same-``(time, priority)`` events.

        ``rng`` is a seeded :class:`random.Random` (or None to restore FIFO
        order).  Each newly scheduled event's sequence number gains a random
        high-order key, so events that tie on time and priority run in a
        seeded-random (but reproducible) order instead of FIFO.  Low-order
        bits keep the raw sequence, so keys stay unique and ordering never
        falls through to comparing callbacks.

        This is the litmus suite's schedule-exploration hook; production
        runs never call it and pay only a None-check per scheduled event.
        """
        self._tie_break = rng

    def schedule(
        self,
        when: int,
        callback: Callable,
        priority: int = 0,
        arg: object = _NO_ARG,
    ) -> None:
        """Schedule ``callback`` (or ``callback(arg)``) at absolute tick ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: when={when} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if self._tie_break is not None:
            seq |= self._tie_break.getrandbits(32) << 32
        _heappush(self._heap, (when, priority, seq, callback, arg))

    def schedule_after(
        self,
        delay: int,
        callback: Callable,
        priority: int = 0,
        arg: object = _NO_ARG,
    ) -> None:
        """Schedule ``callback`` to run ``delay`` ticks from now.

        Open-coded rather than delegating to :meth:`schedule`: this is the
        kernel's most common scheduling entry point, and one call frame per
        event is a measurable share of the per-event cost.
        """
        if delay < 0:
            raise SimulationError(
                "cannot schedule event in the past: "
                f"when={self.now + delay} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if self._tie_break is not None:
            seq |= self._tie_break.getrandbits(32) << 32
        _heappush(self._heap, (self.now + delay, priority, seq, callback, arg))

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` ticks, or ``max_events``.

        This is the kernel's inner loop: per event one heap pop and the
        callback.  The try/finally keeps ``executed_events`` exact when a
        callback raises.
        """
        heap = self._heap
        pop = _heappop
        no_arg = _NO_ARG
        # -1 == unlimited: ``executed`` (counting up from 0) never hits it.
        limit = -1 if max_events is None else max_events
        executed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                if executed == limit:
                    return
                when, _priority, _seq, callback, arg = pop(heap)
                self.now = when
                executed += 1
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            self.executed_events += executed

    def next_time(self) -> int | None:
        """Tick of the earliest pending event (None when the queue is empty)."""
        return self._heap[0][0] if self._heap else None


class Simulator:
    """Top-level container: event queue, component registry, and run control.

    ``Simulator`` also provides the *quiesce* check used for deadlock
    detection: any registered component may implement ``pending_work()``
    returning a truthy description of outstanding work; if the event queue
    drains while some component still has pending work, the run raises
    :class:`DeadlockError` naming the offenders.
    """

    #: Default hard cap on executed events, as a runaway-protocol backstop.
    DEFAULT_MAX_EVENTS = 500_000_000

    def __init__(self) -> None:
        self.events = EventQueue()
        self.components: list[Any] = []
        #: armed liveness checker (see :mod:`repro.sim.watchdog`), if any
        self.watchdog: Any = None

    def install_watchdog(self, watchdog: Any) -> None:
        """Attach a liveness watchdog; its report enriches DeadlockErrors."""
        self.watchdog = watchdog

    @property
    def now(self) -> int:
        return self.events.now

    def register(self, component: Any) -> None:
        self.components.append(component)

    def close(self) -> None:
        """Drop every reference back to the components this simulator ran:
        the registry, the watchdog and any events a crashed run left in the
        heap.  Components point at the simulator, so these are the edges
        that would make a finished system a reference cycle.  ``now`` and
        ``events.executed_events`` stay readable."""
        self.components = []
        self.watchdog = None
        self.events._heap.clear()

    def pending_work(self) -> list[str]:
        """Describe outstanding work across all components (empty = quiesced)."""
        pending: list[str] = []
        for component in self.components:
            probe = getattr(component, "pending_work", None)
            if probe is None:
                continue
            description = probe()
            if description:
                pending.append(f"{component.name}: {description}")
        return pending

    def run(self, max_events: int | None = None) -> int:
        """Run to completion; returns the final tick.

        Raises :class:`DeadlockError` if the queue drains with work pending.
        """
        limit = self.DEFAULT_MAX_EVENTS if max_events is None else max_events
        if self.watchdog is None:
            self.events.run(max_events=limit)
        else:
            self._run_watched(limit)
        if len(self.events) > 0:
            raise SimulationError(
                f"simulation exceeded max_events={limit} (possible livelock)"
            )
        pending = self.pending_work()
        if pending:
            if self.watchdog is not None:
                self.watchdog.deadlock(pending)  # raises WatchdogError
            raise DeadlockError(
                "event queue drained with pending work:\n  " + "\n  ".join(pending)
            )
        return self.events.now

    def _run_watched(self, limit: int) -> None:
        """Run to completion in watchdog-window slices.

        The watchdog schedules no events; instead the run pauses every
        ``window_ticks`` for a liveness check.  Event order, event counts,
        and the final tick are bit-identical to an unwatched run — the
        only difference is where the inner loop briefly returns.
        """
        events = self.events
        watchdog = self.watchdog
        window = watchdog.window_ticks
        start = events.executed_events
        while True:
            remaining = limit - (events.executed_events - start)
            if remaining <= 0:
                return  # the caller raises the max_events backstop
            events.run(until=events.now + window, max_events=remaining)
            if events.next_time() is None:
                return
            watchdog.check()  # raises WatchdogError on a starved port


def drain(simulator: Simulator, sources: Iterable[Any]) -> int:
    """Convenience: run ``simulator`` to completion and assert sources finished."""
    end = simulator.run()
    for source in sources:
        done = getattr(source, "done", None)
        if done is not None and not done:
            raise DeadlockError(f"source {source!r} did not finish")
    return end
