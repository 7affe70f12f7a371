"""Deadlock/starvation watchdog for flow-controlled simulations.

Bounded queues invert the fabric's control flow: a message may sit with *no
scheduled event* while it waits for a credit or a gated grant engine, so a
wedged protocol no longer shows up as a runaway event count — it shows up
as silence.  The :class:`Watchdog` converts that silence into a loud,
annotated failure:

- **Deadlock** — the event queue drains while some component still reports
  ``pending_work()``.  In a discrete-event simulation this is exactly the
  "no event fires for a window" condition: any pending event *will* fire
  when time jumps to it, so work stranded behind a full port can only
  manifest as an empty queue.
- **Starvation** — a probe (:meth:`add_probe`) reports the same port
  blocked with an unchanged since-stamp for :attr:`STARVATION_WINDOWS`
  consecutive windows: the port has waited multiple full windows for a
  credit without a single grant reaching it, while the rest of the system
  kept executing events (livelock).

The watchdog schedules **no events of its own**.  :meth:`Simulator.run
<repro.sim.event_queue.Simulator.run>` drives it: when armed, the run is
sliced into ``window_cycles``-sized chunks and :meth:`check` fires between
slices, so an armed watchdog leaves event order, event counts, and the
final tick bit-identical to an unwatched run — golden stats do not move
when the watchdog is switched on.

A trip raises :class:`WatchdogError` (a :class:`DeadlockError` subclass,
so existing handlers classify it the same way) whose message carries the
offending ports, every registered dump hook (the network's blocked-port
wait-for graph, the memory controller's bank queues), and — when a
:class:`~repro.sim.tracing.ProtocolTrace` is attached — the tail of the
protocol trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.clock import ClockDomain
from repro.sim.component import Component
from repro.sim.event_queue import DeadlockError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator


class WatchdogError(DeadlockError):
    """Raised when the watchdog detects a deadlock or a starved port."""


class Watchdog(Component):
    """Periodic liveness checker (see module docstring)."""

    #: a port blocked with an unchanged since-stamp across this many
    #: consecutive windows counts as starved
    STARVATION_WINDOWS = 2

    #: protocol-trace events included in a trip report
    TRACE_TAIL = 20

    def __init__(
        self,
        sim: "Simulator",
        clock: ClockDomain,
        window_cycles: float,
        name: str = "watchdog",
    ) -> None:
        if window_cycles <= 0:
            raise ValueError(
                f"watchdog window must be > 0 cycles, got {window_cycles}"
            )
        super().__init__(sim, name, clock)
        self.window_cycles = window_cycles
        self.window_ticks = max(1, clock.cycles_to_ticks(window_cycles))
        #: ``probe() -> {port: blocked_since_tick}`` starvation probes
        self._probes: list[tuple[str, Callable[[], dict[str, int]]]] = []
        #: ``dump() -> str`` state dumps included in trip reports
        self._dumps: list[tuple[str, Callable[[], str]]] = []
        self._trace = None
        #: ``port key -> (since_tick, consecutive_windows)`` from the
        #: previous check
        self._blocked: dict[str, tuple[int, int]] = {}
        sim.install_watchdog(self)

    # -- wiring ------------------------------------------------------------

    def add_probe(self, name: str,
                  probe: Callable[[], dict[str, int]]) -> "Watchdog":
        """Register a starvation probe returning blocked-since stamps."""
        self._probes.append((name, probe))
        return self

    def add_dump(self, name: str, dump: Callable[[], str]) -> "Watchdog":
        """Register a state dump included in every trip report."""
        self._dumps.append((name, dump))
        return self

    def attach_trace(self, trace) -> "Watchdog":
        """Include the tail of ``trace`` (a ProtocolTrace) in trip reports."""
        self._trace = trace
        return self

    # -- checks (driven by Simulator.run between window slices) ------------

    def check(self) -> None:
        """One liveness check: raise on a port starved across windows."""
        self.stats.inc("checks")
        if not self._probes:
            return
        current: dict[str, int] = {}
        for probe_name, probe in self._probes:
            for port, since in probe().items():
                current[f"{probe_name}.{port}"] = since
        previous = self._blocked
        blocked: dict[str, tuple[int, int]] = {}
        starved: list[str] = []
        for key, since in current.items():
            prev = previous.get(key)
            windows = prev[1] + 1 if prev is not None and prev[0] == since else 0
            blocked[key] = (since, windows)
            if windows >= self.STARVATION_WINDOWS:
                starved.append(
                    f"{key} blocked since tick {since} "
                    f"({windows} full windows without a grant)"
                )
        self._blocked = blocked
        if starved:
            self._trip("starved ports", starved)

    def deadlock(self, pending: list[str]) -> None:
        """Trip on queue-drained-with-pending-work (called by the run loop)."""
        self._trip("event queue drained with pending work", pending)

    def _trip(self, reason: str, details: list[str]) -> None:
        self.stats.inc("trips")
        raise WatchdogError(self.report(reason, details))

    def report(self, reason: str, details: list[str]) -> str:
        """Render the full trip report: reason, details, every dump hook,
        and the protocol-trace tail."""
        lines = [
            f"watchdog: {reason} at tick {self.now} "
            f"(window = {self.window_cycles:g} {self.clock.name} cycles)"
        ]
        lines.extend(f"  {item}" for item in details)
        for name, dump in self._dumps:
            text = dump()
            if text:
                lines.append(f"-- {name} --")
                lines.append(text)
        if self._trace is not None and len(self._trace):
            lines.append(f"-- protocol trace tail ({self.TRACE_TAIL}) --")
            lines.append(self._trace.dump(limit=self.TRACE_TAIL))
        return "\n".join(lines)
