"""On-chip message fabric.

The fabric is a star: every coherence controller registers an endpoint with a
*kind* (``"l2"``, ``"tcc"``, ``"dir"``, ``"dma"``, ...), and messages between
endpoints incur a one-way latency taken from a ``(src_kind, dst_kind)`` table
(falling back to a default).  The fabric counts every message by category and
by route — those counters are the "network traffic" data behind Figures 5
and 7 of the paper.

Messages are duck-typed: the fabric requires ``src``, ``dst``, ``category``
and ``size_bytes`` attributes and otherwise passes them through untouched.

Hot path: :meth:`Network.send` runs once per protocol message, so the route
latency (integer ticks) and the destination's bound ``deliver`` method are
precomputed per ``(src, dst)`` endpoint pair the first time the pair is used
(and invalidated on :meth:`attach` / :meth:`set_latency`).  Delivery is
scheduled as ``(deliver, msg)`` through the event queue's arg-passing form —
no per-message closure, no float math, no repeated latency lookup.

Contention model (``link_bytes_per_cycle > 0``): each endpoint owns a
finite-bandwidth *output port* — a message occupies its sender's port for
``ceil(size_bytes / link_bytes_per_cycle)`` cycles before it starts its
latency flight, so bursts queue up behind each other (FIFO per port) instead
of overlapping for free.  Shared destinations (the directory banks by
default) additionally arbitrate their *input port* with a weighted
round-robin :class:`~repro.sim.arbiter.WrrArbiter` over CPU/GPU/DMA traffic
classes, classified by the sending endpoint's kind.  With the default
``link_bytes_per_cycle = 0`` the fabric is pure latency and every contended
structure is dormant — that configuration is bit-identical to the committed
golden stats.

Flow control (``input_queue_depth > 0`` on top of the contention model):
every arbitrated input port becomes a *bounded* queue of
``input_queue_depth`` entries, tracked by a credit counter.  A sender's
output port turns into an event-driven FIFO whose head message must obtain
a credit from its destination's input port before it may start
serializing; with no credit available the output port parks on the
destination's waiter list and everything queued behind the head stalls
with it — head-of-line blocking is exactly what carries back-pressure
transitively to the component behind the sender.  A credit is consumed
when serialization starts (the message is "in the destination's queue"
from that point: in flight plus arbitrating) and released when the input
port *grants* the message; a freed credit is handed directly to the
longest-parked waiter rather than returned to the pool, so a same-tick
``send()`` can never steal it and starve a blocked port.  Input-port grant
engines can also be *gated* by kind (:meth:`Network.set_kind_gate`) —
the memory controller uses this to push its own bounded-queue overflow
back into the fabric.  With ``input_queue_depth = 0`` the contended path
above runs unchanged (unbounded queues, send-time scheduling).

An idle, unblocked output port always has an empty queue (``_out_done``
and ``_out_unblock`` start the next head before the port goes idle), so
:meth:`Network.send` starts such a port inline, in one frame: the credit
check (parking the port if there is none), ``busy``, the busy-ticks
counter and the ``_out_done`` schedule.  A busy or parked port just
queues the message, and ``_out_done`` or ``_out_unblock`` starts it when
its turn comes.

Per-message work on the contended and bounded paths is kept small: each
route binds its sender's :class:`_OutPort` when it is built, ``send`` reads
``msg.size_bytes`` once and carries the serialization delay (``ser``) with
the message, and the records passed between events are plain tuples --
output-queue entries ``(route, msg, enqueued_at, ser)``, flights and hops
``(route, msg, ser)``, arbitration entries ``(enqueued_at, msg, ser)``,
grants ``(port, msg)`` and credit hand-offs ``(port, out)`` -- with no free
lists.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.arbiter import WrrArbiter, class_of_kind
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, Controller
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.sim.event_queue import Simulator

#: shared cache of ``category -> "messages.<category>"`` counter names, so
#: the per-message accounting never builds an f-string.
_CATEGORY_KEYS: dict[str, str] = {}

#: endpoint kinds whose input port is WRR-arbitrated under contention.
#: The directory is the system's fought-over shared port (every request,
#: victim, ack and unblock lands there); point-to-point responses back to
#: private caches stay FIFO.
DEFAULT_ARBITRATED_KINDS = ("dir",)


class _Route:
    """Precomputed per-``(src, dst)`` transport state (see module docstring)."""

    __slots__ = ("delay_ticks", "deliver", "route_key", "out", "in_port",
                 "arb_class")

    def __init__(
        self,
        delay_ticks: int,
        deliver: Any,
        route_key: str,
        out: "_OutPort | None" = None,
        in_port: "_InPort | None" = None,
        arb_class: str = "other",
    ) -> None:
        self.delay_ticks = delay_ticks
        self.deliver = deliver
        self.route_key = route_key
        #: the sender's output port (None on the pure-latency fabric)
        self.out = out
        #: WRR-arbitrated destination input port (None = direct delivery)
        self.in_port = in_port
        #: sender's traffic class at that port (from the sender's kind)
        self.arb_class = arb_class


class _InPort:
    """A shared endpoint's WRR-arbitrated, finite-bandwidth input port.

    Stat-counter keys (``<name>.grants.<class>``, ``<name>.wait_ticks``,
    ``<name>.max_depth``, ``<name>.occupancy_ticks``) are precomputed once
    per port/class instead of being f-string-built per granted message.

    Under flow control the port additionally owns the credit counter
    (``credits``/``capacity``) and the FIFO of output ports parked waiting
    for a credit (``waiters``); ``gated`` freezes the grant engine while a
    downstream resource (the bounded memory controller) is saturated.
    """

    __slots__ = ("name", "arb", "deliver", "max_depth",
                 "wait_key", "depth_key", "occ_key",
                 "grant_keys", "class_wait_keys",
                 "depth", "last_change",
                 "capacity", "credits", "waiters", "gated")

    def __init__(self, name: str, arb: WrrArbiter, deliver: Any,
                 capacity: int = 0) -> None:
        self.name = name
        self.arb = arb
        self.deliver = deliver
        self.max_depth = 0
        self.wait_key = name + ".wait_ticks"
        self.depth_key = name + ".max_depth"
        self.occ_key = name + ".occupancy_ticks"
        #: traffic class -> "<port>.grants.<class>" (lazily extended)
        self.grant_keys: dict[str, str] = {}
        #: traffic class -> "<port>.wait_ticks.<class>" (lazily extended)
        self.class_wait_keys: dict[str, str] = {}
        #: current queue depth + last tick it changed (occupancy integral)
        self.depth = 0
        self.last_change = 0
        #: bounded-queue capacity (0 = unbounded) and remaining credits
        self.capacity = capacity
        self.credits = capacity
        #: output ports parked waiting for a credit, oldest first
        self.waiters: deque = deque()
        #: True while the grant engine is frozen by back-pressure
        self.gated = False


class _OutPort:
    """A sender's finite-bandwidth output port.

    Without flow control only ``free`` (the next tick the link is idle) is
    used — send-time arithmetic, no events.  Under flow control the port
    runs event-driven: ``queue`` holds ``(route, msg, enqueued_at, ser)``
    waiting to serialize (empty whenever the port is idle), ``busy`` marks
    an in-progress serialization, and ``blocked`` marks the port parked on
    a full input port's waiter list.
    """

    __slots__ = ("name", "free", "queue", "busy", "blocked", "blocked_since",
                 "busy_key", "wait_key", "queued_key",
                 "blocks_key", "blocked_key")

    def __init__(self, name: str) -> None:
        self.name = name
        self.free = 0
        self.queue: deque = deque()
        self.busy = False
        self.blocked = False
        self.blocked_since = 0
        self.busy_key = name + ".busy_ticks"
        self.wait_key = name + ".wait_ticks"
        self.queued_key = name + ".queued_msgs"
        self.blocks_key = name + ".credit_blocks"
        self.blocked_key = name + ".credit_blocked_ticks"


class Network(Component):
    """Star-topology interconnect with per-route latency and traffic stats."""

    def __init__(
        self,
        sim: "Simulator",
        clock: ClockDomain,
        default_latency_cycles: float = 10.0,
        name: str = "network",
        link_bytes_per_cycle: int = 0,
        arb_weights: dict[str, int] | None = None,
        arbitrated_kinds: tuple[str, ...] = DEFAULT_ARBITRATED_KINDS,
        input_queue_depth: int = 0,
    ) -> None:
        if link_bytes_per_cycle < 0:
            raise SimulationError(
                f"link bandwidth must be >= 0 bytes/cycle, got {link_bytes_per_cycle}"
            )
        if input_queue_depth < 0:
            raise SimulationError(
                f"input queue depth must be >= 0, got {input_queue_depth}"
            )
        super().__init__(sim, name, clock)
        self.default_latency_cycles = default_latency_cycles
        self._endpoints: dict[str, Controller] = {}
        self._kinds: dict[str, str] = {}
        self._latency_table: dict[tuple[str, str], float] = {}
        #: schedule-exploration overlay: per-(src_kind, dst_kind) extra
        #: cycles, kept separate from the base table so repeated jitter
        #: calls re-derive from the same base instead of compounding.
        self._jitter: dict[tuple[str, str], int] = {}
        #: lazily built ``(src_name, dst_name) -> _Route`` transport cache.
        self._routes: dict[tuple[str, str], _Route] = {}
        #: the fabric's own counters and those of its ``routes``, ``ports``
        #: and ``arb`` children, bound once (an empty child adds no key to
        #: ``as_dict()``).
        self._counters = self.stats._counters
        self._route_counters = self.stats.child("routes")._counters
        self._port_counters = self.stats.child("ports")._counters
        self._arb_counters = self.stats.child("arb")._counters
        # -- contention model (dormant while link_bytes_per_cycle == 0) ----
        self.arbitrated_kinds = tuple(arbitrated_kinds)
        self.arb_weights = dict(arb_weights) if arb_weights else {}
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self._ser_memo: dict[int, int] = {}
        #: per-sender output ports (free tick + precomputed stat keys)
        self._out_ports: dict[str, _OutPort] = {}
        #: per-shared-destination WRR input ports, keyed by endpoint name
        self._in_ports: dict[str, _InPort] = {}
        # -- flow control (dormant while input_queue_depth == 0) -----------
        self.input_queue_depth = input_queue_depth
        #: endpoint kinds whose input grant engines are currently gated
        self._gated_kinds: set[str] = set()

    # -- wiring -----------------------------------------------------------

    def attach(self, endpoint: Controller, kind: str) -> None:
        """Register ``endpoint`` (a Controller) under its ``name``."""
        if endpoint.name in self._endpoints:
            raise SimulationError(f"duplicate network endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        self._kinds[endpoint.name] = kind
        self._routes.clear()

    def set_latency(self, src_kind: str, dst_kind: str, cycles: float) -> None:
        """Set the one-way latency between two endpoint kinds (both directions)."""
        self._latency_table[(src_kind, dst_kind)] = cycles
        self._latency_table[(dst_kind, src_kind)] = cycles
        self._routes.clear()

    def set_kind_gate(self, kind: str, gated: bool) -> None:
        """Gate (or release) the grant engine of every arbitrated input
        port of ``kind``.

        While gated the ports keep accepting arrivals but grant nothing,
        so their queues fill and (under flow control) their credits run
        out — which stalls senders through the normal credit path.  The
        bounded memory controller uses this to propagate its own overflow
        back-pressure to the directory's input.  Releasing the gate
        schedules a same-tick grant resume for every port with queued
        work.
        """
        if gated:
            self._gated_kinds.add(kind)
        else:
            self._gated_kinds.discard(kind)
        events = self.events
        for name, port in self._in_ports.items():
            if self._kinds.get(name) != kind:
                continue
            port.gated = gated
            if not gated and not port.arb.busy and port.arb.pending():
                # claim the engine before the resume event fires so an
                # arrival in between cannot start a second grant engine
                port.arb.busy = True
                events.schedule(events.now, self._arb_grant, 0, port)

    def close(self) -> None:
        """Drop the endpoint and transport tables, and whatever a crashed
        run left queued on the ports.  They hold every endpoint's bound
        ``deliver``, and every endpoint holds the network, so these are the
        edges that would make a finished system a reference cycle.  The
        counters and the endpoint kinds stay readable."""
        for out in self._out_ports.values():
            out.queue.clear()
        self._endpoints.clear()
        self._routes.clear()
        self._in_ports.clear()

    def endpoints_of_kind(self, kind: str) -> list[str]:
        return [name for name, k in self._kinds.items() if k == kind]

    def kinds(self) -> list[str]:
        """Every endpoint kind currently attached, sorted."""
        return sorted(set(self._kinds.values()))

    def jitter_latencies(self, rng, max_extra_cycles: int = 3) -> None:
        """Schedule exploration: perturb every kind-pair latency.

        Adds a seeded-random 0..``max_extra_cycles`` to each directed
        ``(src_kind, dst_kind)`` latency (directions drawn independently, so
        request and response paths can skew against each other).  Call after
        all endpoints are attached; routes are invalidated like
        :meth:`set_latency`.  The litmus schedule-exploration driver uses
        this to reorder in-flight protocol messages across runs without ever
        creating an illegal schedule — latency is still deterministic per
        route within one run.

        The perturbation lives in a separate overlay on top of the base
        latency table, so repeated calls re-derive from the same base (two
        calls with the same seed give the same latencies) and the base table
        itself is never densified — ``default_latency_cycles`` and later
        :meth:`set_latency` calls keep their normal meaning.
        """
        jitter: dict[tuple[str, str], int] = {}
        for src in self.kinds():
            for dst in self.kinds():
                jitter[(src, dst)] = rng.randrange(max_extra_cycles + 1)
        self._jitter = jitter
        self._routes.clear()

    # -- transport --------------------------------------------------------

    def latency_cycles(self, src: str, dst: str) -> float:
        """One-way latency between two *attached* endpoints (in cycles).

        Unknown endpoint names raise :class:`SimulationError`, exactly like
        :meth:`send` — a silent default here would mask wiring mistakes.
        """
        src_kind = self._kinds.get(src)
        if src_kind is None:
            raise SimulationError(f"unknown network source {src!r}")
        dst_kind = self._kinds.get(dst)
        if dst_kind is None:
            raise SimulationError(f"unknown network endpoint {dst!r}")
        key = (src_kind, dst_kind)
        base = self._latency_table.get(key, self.default_latency_cycles)
        extra = self._jitter.get(key)
        return base if extra is None else base + extra

    def _ser_ticks(self, size_bytes: int) -> int:
        """Link-serialization delay for one message, in integer ticks."""
        ticks = self._ser_memo.get(size_bytes)
        if ticks is None:
            bpc = self.link_bytes_per_cycle
            cycles = -(-size_bytes // bpc)  # ceil; 0-byte messages are free
            ticks = self.clock.cycles_to_ticks(cycles)
            self._ser_memo[size_bytes] = ticks
        return ticks

    def _build_route(self, src: str, dst: str) -> _Route:
        """Resolve and cache the transport state for one endpoint pair."""
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            raise SimulationError(f"unknown network endpoint {dst!r}")
        if src not in self._endpoints:
            raise SimulationError(f"unknown network source {src!r}")
        delay = self.clock.cycles_to_ticks(self.latency_cycles(src, dst))
        src_kind = self._kinds[src]
        dst_kind = self._kinds[dst]
        out = in_port = None
        if self.link_bytes_per_cycle:
            out = self._out_ports.get(src)
            if out is None:
                out = self._out_ports[src] = _OutPort(src)
            if dst_kind in self.arbitrated_kinds:
                in_port = self._in_ports.get(dst)
                if in_port is None:
                    in_port = _InPort(
                        dst, WrrArbiter(dst, dict(self.arb_weights)),
                        endpoint.deliver, capacity=self.input_queue_depth,
                    )
                    in_port.gated = dst_kind in self._gated_kinds
                    self._in_ports[dst] = in_port
        route = _Route(
            delay, endpoint.deliver, f"{src_kind}->{dst_kind}",
            out=out, in_port=in_port, arb_class=class_of_kind(src_kind),
        )
        self._routes[(src, dst)] = route
        return route

    def send(self, msg: Any) -> None:
        """Deliver ``msg`` from ``msg.src`` to ``msg.dst`` after the route latency."""
        route = self._routes.get((msg.src, msg.dst))
        if route is None:
            try:
                route = self._build_route(msg.src, msg.dst)
            except SimulationError as exc:
                raise SimulationError(f"{exc} for {msg!r}") from None
        size = msg.size_bytes
        # count by category, bytes and route (each counter is created by
        # its first increment)
        counters = self._counters
        key = _CATEGORY_KEYS.get(msg.category)
        if key is None:
            key = _CATEGORY_KEYS.setdefault(msg.category, f"messages.{msg.category}")
        counters["messages"] += 1
        counters[key] += 1
        counters["bytes"] += size
        self._route_counters[route.route_key] += 1
        events = self.events
        if not self.link_bytes_per_cycle:
            events.schedule(events.now + route.delay_ticks, route.deliver, 0, msg)
            return
        ser = self._ser_memo.get(size)
        if ser is None:
            ser = self._ser_ticks(size)
        if not self.input_queue_depth:
            self._send_contended(msg, route, ser)
            return
        # flow-controlled: queue behind a busy or parked output port, or
        # start an idle one here (its queue is empty, so the message is its
        # head; see the module docstring)
        out = route.out
        now = events.now
        if out.busy or out.blocked:
            out.queue.append((route, msg, now, ser))
            return
        port = route.in_port
        if port is not None and port.capacity:
            if not port.credits:
                out.queue.append((route, msg, now, ser))
                self._park(out, port)
                return
            port.credits -= 1
        out.busy = True
        self._port_counters[out.busy_key] += ser
        events.schedule(now + ser, self._out_done, 0, (route, msg, ser))

    # -- contended transport ----------------------------------------------

    def _send_contended(self, msg: Any, route: _Route, ser: int) -> None:
        """Finite-bandwidth path: serialize on the sender's output port,
        fly the route latency, then either deliver or join the destination's
        WRR input arbitration.  Port stats use the precomputed
        :class:`_OutPort` keys."""
        events = self.events
        now = events.now
        port_out = route.out
        free = port_out.free
        start = now if free <= now else free
        port_out.free = start + ser
        counters = self._port_counters
        counters[port_out.busy_key] += ser
        wait = start - now
        if wait:
            counters[port_out.wait_key] += wait
            counters[port_out.queued_key] += 1
        arrival = start + ser + route.delay_ticks
        if route.in_port is None:
            events.schedule(arrival, route.deliver, 0, msg)
        else:
            events.schedule(arrival, self._arb_arrive, 0, (route, msg, ser))

    # -- flow-controlled transport ----------------------------------------

    def _out_pump(self, out: _OutPort) -> None:
        """Start the head of an idle output port's non-empty queue.

        Called by :meth:`_out_done` with ``busy == blocked == False``;
        either starts serialization (consuming a credit if the destination
        is bounded) or parks the port on the destination's waiter list.
        """
        queue = out.queue
        route, msg, enqueued_at, ser = queue[0]
        port = route.in_port
        if port is not None and port.capacity:
            if not port.credits:
                self._park(out, port)
                return
            port.credits -= 1
        queue.popleft()
        self._out_start(out, route, msg, enqueued_at, ser)

    def _park(self, out: _OutPort, port: _InPort) -> None:
        """The head of ``out`` found its destination's input queue full:
        park the port on the destination's waiter list.  The queue behind
        the head stalls with it (transitive back-pressure)."""
        out.blocked = True
        out.blocked_since = self.events.now
        port.waiters.append(out)
        self._port_counters[out.blocks_key] += 1

    def _out_start(self, out: _OutPort, route: _Route, msg: Any,
                   enqueued_at: int, ser: int) -> None:
        """Begin serializing one message (its credit is already paid)."""
        events = self.events
        now = events.now
        out.busy = True
        counters = self._port_counters
        counters[out.busy_key] += ser
        wait = now - enqueued_at
        if wait:
            counters[out.wait_key] += wait
            counters[out.queued_key] += 1
        events.schedule(now + ser, self._out_done, 0, (route, msg, ser))

    def _out_done(self, flight: tuple) -> None:
        """Serialization finished: launch the latency flight and pump the
        next queued message."""
        route, msg, ser = flight
        out = route.out
        out.busy = False
        events = self.events
        arrival = events.now + route.delay_ticks
        if route.in_port is None:
            events.schedule(arrival, route.deliver, 0, msg)
        else:
            events.schedule(arrival, self._arb_arrive, 0, flight)
        if out.queue:
            self._out_pump(out)

    def _out_unblock(self, wake: tuple) -> None:
        """A parked output port received a hand-off credit: start its head
        message.  The head cannot have changed while parked (nothing pops
        a blocked port's queue), so the credit pays for exactly the
        message that was refused."""
        port, out = wake
        if not out.blocked or not out.queue:
            port.credits += 1  # defensive: waiter vanished, return credit
            return
        blocked = self.events.now - out.blocked_since
        if blocked:
            self._port_counters[out.blocked_key] += blocked
        out.blocked = False
        route, msg, enqueued_at, ser = out.queue.popleft()
        self._out_start(out, route, msg, enqueued_at, ser)

    def _arb_arrive(self, hop: tuple) -> None:
        """A message reaches a shared port: enqueue in its class, and start
        the grant engine if the port is idle."""
        route, msg, ser = hop
        port = route.in_port
        arb = port.arb
        now = self.events.now
        arb.enqueue(route.arb_class, (now, msg, ser))
        counters = self._arb_counters
        # occupancy integral: depth * time since the depth last changed
        dt = now - port.last_change
        if dt:
            if port.depth:
                counters[port.occ_key] += port.depth * dt
            port.last_change = now
        port.depth += 1
        depth = arb.pending()
        if depth > port.max_depth:
            port.max_depth = depth
            counters[port.depth_key] = depth
        if not arb.busy:
            self._arb_grant(port)

    def _arb_grant(self, port: _InPort) -> None:
        """Grant the next message in WRR order and occupy the input port
        for its serialization time."""
        arb = port.arb
        if port.gated:
            # back-pressure gate: stop granting; set_kind_gate(False)
            # schedules the resume
            arb.busy = False
            return
        picked = arb.pick()
        if picked is None:
            arb.busy = False
            return
        arb.busy = True
        arb_class, (enqueued_at, msg, ser) = picked
        events = self.events
        now = events.now
        counters = self._arb_counters
        # occupancy integral + depth bookkeeping (mirrors _arb_arrive)
        dt = now - port.last_change
        if dt:
            if port.depth:
                counters[port.occ_key] += port.depth * dt
            port.last_change = now
        port.depth -= 1
        key = port.grant_keys.get(arb_class)
        if key is None:
            key = port.grant_keys.setdefault(
                arb_class, f"{port.name}.grants.{arb_class}"
            )
        counters[key] += 1
        wait = now - enqueued_at
        if wait:
            counters[port.wait_key] += wait
            key = port.class_wait_keys.get(arb_class)
            if key is None:
                key = port.class_wait_keys.setdefault(
                    arb_class, f"{port.name}.wait_ticks.{arb_class}"
                )
            counters[key] += wait
        if port.capacity:
            # the grant frees one input-queue slot: hand the credit to the
            # longest-parked sender (as an event, so the grant engine never
            # re-enters sender code), or return it to the pool
            if port.waiters:
                events.schedule(now, self._out_unblock, 0,
                                (port, port.waiters.popleft()))
            else:
                port.credits += 1
        events.schedule(now + ser, self._arb_complete, 0, (port, msg))

    def _arb_complete(self, grant: tuple) -> None:
        """The granted message has fully crossed the input port: deliver it
        and grant the next one."""
        port, msg = grant
        port.deliver(msg)
        self._arb_grant(port)

    # -- liveness introspection -------------------------------------------

    def pending_work(self) -> str | None:
        """Messages stranded behind back-pressure (the simulator's quiesce
        check: a drained event queue with a blocked or gated port is a
        deadlock, not a finished run)."""
        if not self.link_bytes_per_cycle:
            return None
        stuck = []
        for name, out in self._out_ports.items():
            if out.blocked:
                stuck.append(f"{name} credit-blocked ({len(out.queue)} queued)")
        for name, port in self._in_ports.items():
            pending = port.arb.pending()
            if port.gated and (pending or port.waiters):
                stuck.append(f"{name} gated ({pending} queued)")
            elif pending and not port.arb.busy:
                # should be unreachable: the grant engine restarts on every
                # arrival — report it rather than silently finishing
                stuck.append(f"{name} idle with {pending} queued")
        if stuck:
            return "; ".join(stuck)
        return None

    def blocked_snapshot(self) -> dict[str, int]:
        """``output port name -> blocked-since tick`` for every
        credit-blocked port (the watchdog's starvation probe: a port whose
        stamp never changes across windows is starved, not just busy)."""
        return {
            name: out.blocked_since
            for name, out in self._out_ports.items()
            if out.blocked
        }

    def describe_ports(self) -> str:
        """Multi-line wait-for dump of the flow-controlled fabric: every
        non-idle output port with its head destination, and every input
        port with credits, queue depth, and parked waiters.  This is the
        blocked-port wait-for graph the watchdog prints on a trip."""
        lines = []
        for name in sorted(self._out_ports):
            out = self._out_ports[name]
            if not out.queue and not out.busy and not out.blocked:
                continue
            if out.blocked:
                state = f"BLOCKED since tick {out.blocked_since}"
            elif out.busy:
                state = "serializing"
            else:
                state = "idle"
            head = out.queue[0][1] if out.queue else None
            dst = getattr(head, "dst", "-") if head is not None else "-"
            lines.append(
                f"out {name}: {state}, {len(out.queue)} queued, head -> {dst}"
            )
        for name in sorted(self._in_ports):
            port = self._in_ports[name]
            pending = port.arb.pending()
            if not pending and not port.waiters and not port.gated:
                continue
            waiting = ", ".join(w.name for w in port.waiters) or "-"
            gate = ", GATED" if port.gated else ""
            credits = (
                f"{port.credits}/{port.capacity}" if port.capacity else "inf"
            )
            lines.append(
                f"in {name}: credits {credits}, {pending} queued, "
                f"waiters [{waiting}]{gate}"
            )
        return "\n".join(lines)
