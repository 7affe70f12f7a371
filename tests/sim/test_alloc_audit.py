"""Allocation audit: the hot fabric path must not allocate per event.

Fabric records are short-lived tuples (event tuples, hop, flight, grant and
arbitration entries) and every stat counter exists after its first
increment, so steady-state simulation performs ~zero *net* heap allocation
per event.  This audit pins
that property with :mod:`tracemalloc`: warm a contended (and, separately, a
credit-bounded) ping-pong up until every route and counter exists, then run
an order of magnitude more events and demand the repro-owned heap footprint
stays flat.

(Net growth is the right metric: CPython recycles tuples and small ints
through internal free lists, so gross allocation counts are noisy, but any
per-event *leak* — a record kept alive past its message, a counter created
per message — shows up as monotone growth here.)
"""

from __future__ import annotations

import tracemalloc

from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import Simulator
from repro.sim.network import Network


class _Echo(Controller):
    """Bounces every message back to its source, forever."""

    def __init__(self, sim, name, clock, network):
        super().__init__(sim, name, clock, service_cycles=1.0)
        self.network = network

    def handle_message(self, msg) -> None:
        msg.src, msg.dst = msg.dst, msg.src
        self.network.send(msg)


class _Msg:
    __slots__ = ("src", "dst", "category", "size_bytes")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.category = "request"
        self.size_bytes = 8


def _build_fabric(input_queue_depth: int = 0):
    sim = Simulator()
    clock = ClockDomain("audit", 1e9)
    network = Network(
        sim, clock, default_latency_cycles=10.0,
        link_bytes_per_cycle=8,
        arb_weights={"cpu": 4, "gpu": 2, "dma": 1},
        input_queue_depth=input_queue_depth,
    )
    a = _Echo(sim, "a", clock, network)
    b = _Echo(sim, "b", clock, network)
    network.attach(a, "l2")
    network.attach(b, "dir")
    network.set_latency("l2", "dir", 6.0)
    return sim, network


def _assert_flat_footprint(input_queue_depth: int) -> Network:
    sim, network = _build_fabric(input_queue_depth)
    # a few concurrent balls keep the WRR arbiter and output-port queues
    # genuinely contended (queues more than one deep)
    for _ in range(4):
        network.send(_Msg("a", "b"))

    # warmup: create every stat counter and route
    sim.events.run(until=sim.now + 2_000_000)
    warm_events = sim.events.executed_events
    assert warm_events > 1_000

    tracemalloc.start(10)
    try:
        before = tracemalloc.take_snapshot()
        sim.events.run(until=sim.now + 25_000_000)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    events = sim.events.executed_events - warm_events
    assert events > 10 * warm_events  # measure >> warmup

    repro_only = [tracemalloc.Filter(True, "*repro*")]
    growth = sum(
        stat.size_diff
        for stat in after.filter_traces(repro_only).compare_to(
            before.filter_traces(repro_only), "lineno",
        )
        if stat.size_diff > 0
    )
    # Flat footprint: the budget is a fraction of a byte per event, far
    # below any real per-event allocation (a single tuple is 64+ bytes).
    assert growth < max(4096, events // 8), (
        f"steady-state fabric grew the heap by {growth} bytes "
        f"over {events} events ({growth / events:.2f} B/event)"
    )
    return network


def test_steady_state_fabric_allocates_nothing_per_event():
    _assert_flat_footprint(input_queue_depth=0)


def test_steady_state_bounded_fabric_allocates_nothing_per_event():
    """The credit path too: with one input-queue slot and four messages
    in flight, senders park and unblock throughout the measured run."""
    network = _assert_flat_footprint(input_queue_depth=1)
    ports = network.stats.child("ports")
    assert ports["a.credit_blocks"] > 1_000
