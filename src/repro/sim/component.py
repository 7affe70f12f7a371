"""Clocked components and serializing message controllers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.clock import ClockDomain
from repro.sim.event_queue import _NO_ARG
from repro.sim.stats import StatGroup

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator


class Component:
    """Base class for everything that lives on the simulated die.

    A component has a name, a clock domain, a stat group, and helpers to
    schedule callbacks a number of *local cycles* in the future.
    """

    def __init__(self, sim: "Simulator", name: str, clock: ClockDomain) -> None:
        self.sim = sim
        #: the simulator's event queue, bound once (it is never replaced)
        #: so hot paths skip the ``sim.events`` attribute chain.
        self.events = sim.events
        self.name = name
        self.clock = clock
        self.stats = StatGroup(name)
        sim.register(self)

    @property
    def now(self) -> int:
        return self.events.now

    def schedule(
        self, delay_cycles: float, callback: Callable, arg: object = _NO_ARG
    ) -> None:
        """Run ``callback`` (or ``callback(arg)``) after ``delay_cycles`` of
        this component's clock."""
        events = self.events
        events.schedule(
            events.now + self.clock.cycles_to_ticks(delay_cycles),
            callback, arg,
        )

    def pending_work(self) -> str | None:
        """Describe outstanding work for deadlock detection (None = quiesced)."""
        return None

    def close(self) -> None:
        """Drop the work a run left in flight (:meth:`ApuSystem.close`).

        A crashed or cut-off run leaves transactions, waiters and programs
        behind, and they hold callbacks into other components: the edges
        that would make a finished system a reference cycle.  Subclasses
        clear their own; counters and cached lines stay readable.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Controller(Component):
    """A component that receives messages from the network, serialized.

    Incoming messages occupy the controller for ``service_cycles`` each and
    are handled FIFO.  This is the occupancy model that makes probe broadcasts
    *cost* something at the receiving L2s/TCC — a first-order effect behind
    the paper's probe-elision speedups.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        clock: ClockDomain,
        service_cycles: float = 1.0,
    ) -> None:
        super().__init__(sim, name, clock)
        #: occupancy per message in ticks; ``service_cycles`` is fixed at
        #: construction everywhere in the tree, so the clock conversion is
        #: done once here instead of per delivered message.
        self._service_ticks = clock.cycles_to_ticks(service_cycles)
        self._next_free = 0
        #: transition observers (repro.coherence.engine.TransitionHook);
        #: a tuple so the per-fire "any hooks?" check is a cheap truth test.
        self.fsm_hooks: tuple = ()

    def close(self) -> None:
        # the coherence monitor (a transition hook) points back at the system
        self.fsm_hooks = ()

    def add_fsm_hook(self, hook) -> None:
        """Attach a TransitionHook to this controller's protocol FSM fires."""
        self.fsm_hooks = self.fsm_hooks + (hook,)

    def deliver(self, msg: Any) -> None:
        """Accept a message from the network; called at arrival time.

        Runs once per received message, so the occupancy update uses the
        memoized tick conversion and ``handle_message`` is scheduled with
        the event queue's ``(callback, arg)`` form instead of a closure.
        """
        events = self.events
        now = events.now
        counters = self.stats._counters
        start = self._next_free
        if start < now:
            start = now
        else:
            busy = start - now
            if busy:
                counters["queue_wait_ticks"] += busy
        self._next_free = start + self._service_ticks
        counters["messages_received"] += 1
        events.schedule(start, self.handle_message, msg)

    def handle_message(self, msg: Any) -> None:
        raise NotImplementedError(f"{type(self).__name__} must implement handle_message")
