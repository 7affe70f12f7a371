"""Tests for the message fabric and controller serialization."""

from __future__ import annotations

import pytest

from repro.sim.clock import ClockDomain
from repro.sim.component import Controller
from repro.sim.event_queue import DeadlockError, SimulationError, Simulator
from repro.sim.network import Network


class Sink(Controller):
    """Records (arrival_handled_time, msg) pairs."""

    def __init__(self, sim, name, clock, service_cycles=1.0):
        super().__init__(sim, name, clock, service_cycles=service_cycles)
        self.received = []

    def handle_message(self, msg):
        self.received.append((self.now, msg))


class FakeMsg:
    def __init__(self, src, dst, category="request", size_bytes=8):
        self.src = src
        self.dst = dst
        self.category = category
        self.size_bytes = size_bytes


@pytest.fixture
def fabric(sim, clock):
    network = Network(sim, clock, default_latency_cycles=10)
    a = Sink(sim, "a", clock)
    b = Sink(sim, "b", clock)
    network.attach(a, kind="l2")
    network.attach(b, kind="dir")
    return network, a, b


class TestNetwork:
    def test_message_arrives_after_latency(self, sim, fabric):
        network, _a, b = fabric
        network.send(FakeMsg("a", "b"))
        sim.run()
        assert len(b.received) == 1
        handled_at, _ = b.received[0]
        assert handled_at == 10_000  # 10 cycles at 1 GHz

    def test_route_latency_table_overrides_default(self, sim, fabric):
        network, _a, b = fabric
        network.set_latency("l2", "dir", 3)
        network.send(FakeMsg("a", "b"))
        sim.run()
        assert b.received[0][0] == 3_000

    def test_latency_table_is_symmetric(self, sim, fabric):
        network, a, _b = fabric
        network.set_latency("l2", "dir", 3)
        network.send(FakeMsg("b", "a"))
        sim.run()
        assert a.received[0][0] == 3_000

    def test_unknown_destination_raises(self, fabric):
        network, _a, _b = fabric
        with pytest.raises(SimulationError, match="unknown network endpoint"):
            network.send(FakeMsg("a", "nope"))

    def test_unknown_source_raises(self, fabric):
        network, _a, _b = fabric
        with pytest.raises(SimulationError, match="unknown network source"):
            network.send(FakeMsg("ghost", "b"))

    def test_duplicate_endpoint_rejected(self, sim, clock, fabric):
        network, _a, _b = fabric
        dup = Sink(sim, "a", clock)
        with pytest.raises(SimulationError, match="duplicate"):
            network.attach(dup, kind="l2")

    def test_traffic_accounting(self, sim, fabric):
        network, _a, _b = fabric
        network.send(FakeMsg("a", "b", category="probe", size_bytes=8))
        network.send(FakeMsg("a", "b", category="request", size_bytes=72))
        sim.run()
        assert network.stats["messages"] == 2
        assert network.stats["messages.probe"] == 1
        assert network.stats["messages.request"] == 1
        assert network.stats["bytes"] == 80
        assert network.stats.child("routes")["l2->dir"] == 2

    def test_endpoints_of_kind(self, fabric):
        network, _a, _b = fabric
        assert network.endpoints_of_kind("l2") == ["a"]
        assert network.endpoints_of_kind("dir") == ["b"]
        assert network.endpoints_of_kind("none") == []

    def test_kinds_lists_attached_kinds(self, fabric):
        network, _a, _b = fabric
        assert network.kinds() == ["dir", "l2"]


class TestLatencyJitter:
    """``jitter_latencies`` — the litmus schedule-exploration knob."""

    def test_jitter_only_adds_bounded_latency(self, sim, fabric):
        import random

        network, _a, b = fabric
        network.jitter_latencies(random.Random(1), max_extra_cycles=3)
        network.send(FakeMsg("a", "b"))
        sim.run()
        arrival = b.received[0][0]
        assert 10_000 <= arrival <= 13_000 + 1_000  # +service cycle

    def test_jitter_is_deterministic_per_seed(self, clock):
        import random

        def arrival(seed: int) -> int:
            sim = Simulator()
            network = Network(sim, clock, default_latency_cycles=10)
            a, b = Sink(sim, "a", clock), Sink(sim, "b", clock)
            network.attach(a, kind="l2")
            network.attach(b, kind="dir")
            network.jitter_latencies(random.Random(seed), max_extra_cycles=5)
            network.send(FakeMsg("a", "b"))
            sim.run()
            return b.received[0][0]

        assert arrival(9) == arrival(9)
        assert len({arrival(seed) for seed in range(10)}) > 1

    def test_jitter_invalidates_primed_routes(self, sim, fabric):
        import random

        network, _a, b = fabric
        network.send(FakeMsg("a", "b"))  # primes the route cache
        sim.run()
        before = len(network._routes)
        network.jitter_latencies(random.Random(2), max_extra_cycles=4)
        assert network._routes == {} and before > 0

    def test_directions_jitter_independently(self, sim, fabric):
        import random

        network, _a, _b = fabric
        network.jitter_latencies(random.Random(0), max_extra_cycles=1000)
        forward = network.latency_cycles("a", "b")
        backward = network.latency_cycles("b", "a")
        # with a 1000-cycle range the two directions virtually never agree
        assert forward != backward


class TestRouteCacheInvalidation:
    """The precomputed per-(src, dst) route table must refresh whenever the
    topology or latency table changes — even after messages already flew."""

    def test_set_latency_after_sends_takes_effect(self, sim, fabric):
        network, _a, b = fabric
        network.send(FakeMsg("a", "b"))  # primes the route cache (default 10)
        sim.run()
        network.set_latency("l2", "dir", 3)
        network.send(FakeMsg("a", "b"))
        sim.run()
        assert [t for t, _ in b.received] == [10_000, 13_000]

    def test_attach_after_sends_is_routable(self, sim, clock, fabric):
        network, _a, b = fabric
        network.send(FakeMsg("a", "b"))
        sim.run()
        late = Sink(sim, "late", clock)
        network.attach(late, kind="tcc")
        network.set_latency("l2", "tcc", 2)
        network.send(FakeMsg("a", "late"))
        sim.run()
        assert len(b.received) == 1
        assert late.received[0][0] == 10_000 + 2_000

    def test_cached_route_error_still_mentions_message(self, fabric):
        network, _a, _b = fabric
        network.send(FakeMsg("a", "b"))  # cache the good route
        with pytest.raises(SimulationError, match="unknown network endpoint.*nope"):
            network.send(FakeMsg("a", "nope"))

    def test_route_delay_is_integer_ticks(self, sim, fabric):
        network, _a, _b = fabric
        network.send(FakeMsg("a", "b"))
        route = network._routes[("a", "b")]
        assert isinstance(route.delay_ticks, int)
        assert route.delay_ticks == 10_000


class TestJitterRederivesFromBase:
    """Regression tests: ``jitter_latencies`` must not compound across calls
    and must not densify the base latency table."""

    def test_repeated_same_seed_jitter_is_idempotent(self, fabric):
        import random

        network, _a, _b = fabric
        network.jitter_latencies(random.Random(7), max_extra_cycles=5)
        first = {
            (s, d): network.latency_cycles(s, d)
            for s in ("a", "b") for d in ("a", "b")
        }
        # the bug: a second call jittered the already-jittered table, so
        # latencies drifted upward run over run under the same seed
        network.jitter_latencies(random.Random(7), max_extra_cycles=5)
        second = {
            (s, d): network.latency_cycles(s, d)
            for s in ("a", "b") for d in ("a", "b")
        }
        assert first == second

    def test_jitter_does_not_densify_latency_table(self, fabric):
        import random

        network, _a, _b = fabric
        network.set_latency("l2", "dir", 3)
        before = dict(network._latency_table)
        network.jitter_latencies(random.Random(4), max_extra_cycles=5)
        assert network._latency_table == before

    def test_set_latency_after_jitter_keeps_meaning(self, fabric):
        """A post-jitter ``set_latency`` must change the *base*; previously
        the densified table shadowed it with stale jittered values."""
        import random

        network, _a, _b = fabric
        network.jitter_latencies(random.Random(3), max_extra_cycles=5)
        extra = network.latency_cycles("a", "b") - network.default_latency_cycles
        assert 0 <= extra <= 5
        network.set_latency("l2", "dir", 42)
        assert network.latency_cycles("a", "b") == 42 + extra

    def test_many_jitter_calls_stay_bounded(self, fabric):
        import random

        network, _a, _b = fabric
        for seed in range(20):
            network.jitter_latencies(random.Random(seed), max_extra_cycles=3)
            assert (
                network.default_latency_cycles
                <= network.latency_cycles("a", "b")
                <= network.default_latency_cycles + 3
            )


class TestLatencyCyclesStrict:
    """Regression: ``latency_cycles`` used to silently return the default
    for unknown endpoint names, masking wiring mistakes."""

    def test_unknown_source_raises(self, fabric):
        network, _a, _b = fabric
        with pytest.raises(SimulationError, match="unknown network source 'ghost'"):
            network.latency_cycles("ghost", "b")

    def test_unknown_destination_raises(self, fabric):
        network, _a, _b = fabric
        with pytest.raises(SimulationError, match="unknown network endpoint 'nope'"):
            network.latency_cycles("a", "nope")

    def test_known_pair_still_returns_latency(self, fabric):
        network, _a, _b = fabric
        assert network.latency_cycles("a", "b") == 10


class TestFiniteBandwidth:
    """The ``link_bytes_per_cycle`` serialization model."""

    def make(self, sim, clock, bpc, latency=10, weights=None):
        network = Network(
            sim, clock, default_latency_cycles=latency,
            link_bytes_per_cycle=bpc, arb_weights=weights,
        )
        return network

    def test_zero_bandwidth_keeps_pure_latency_path(self, sim, fabric):
        network, _a, b = fabric
        network.send(FakeMsg("a", "b", size_bytes=4096))
        sim.run()
        assert b.received[0][0] == 10_000
        # the ports/arb children are bound at construction but stay empty
        assert {"ports", "arb"} <= network.stats.children().keys()
        keys = network.stats.as_dict()
        assert not any(key.startswith("network.ports.") for key in keys)
        assert not any(key.startswith("network.arb.") for key in keys)

    def test_negative_bandwidth_rejected(self, sim, clock):
        with pytest.raises(SimulationError, match="link bandwidth"):
            self.make(sim, clock, bpc=-1)

    def test_serialization_delays_arrival(self, sim, clock):
        network = self.make(sim, clock, bpc=8, latency=10)
        a, b = Sink(sim, "a", clock), Sink(sim, "b", clock)
        network.attach(a, kind="l2")
        network.attach(b, kind="tcc")  # not arbitrated: isolates serialization
        network.send(FakeMsg("a", "b", size_bytes=64))
        sim.run()
        # 64B / 8Bpc = 8 cycles serialization + 10 cycles latency
        assert b.received[0][0] == 18_000

    def test_output_port_queues_bursts(self, sim, clock):
        network = self.make(sim, clock, bpc=8, latency=10)
        a, b = Sink(sim, "a", clock), Sink(sim, "b", clock)
        network.attach(a, kind="l2")
        network.attach(b, kind="tcc")
        for _ in range(3):
            network.send(FakeMsg("a", "b", size_bytes=64))
        sim.run()
        # serialization starts at 0 / 8 / 16 cycles; each flies 8 + 10 more
        assert [t for t, _ in b.received] == [18_000, 26_000, 34_000]
        ports = network.stats.child("ports")
        assert ports["a.busy_ticks"] == 24_000
        assert ports["a.wait_ticks"] == 8_000 + 16_000
        assert ports["a.queued_msgs"] == 2

    def test_distinct_senders_do_not_share_a_port(self, sim, clock):
        network = self.make(sim, clock, bpc=8, latency=10)
        a, c = Sink(sim, "a", clock), Sink(sim, "c", clock)
        b = Sink(sim, "b", clock, service_cycles=0)
        network.attach(a, kind="l2")
        network.attach(c, kind="l2")
        network.attach(b, kind="tcc")
        network.send(FakeMsg("a", "b", size_bytes=64))
        network.send(FakeMsg("c", "b", size_bytes=64))
        sim.run()
        # both serialize concurrently on their own output ports
        assert [t for t, _ in b.received] == [18_000, 18_000]

    def test_small_messages_serialize_faster(self, sim, clock):
        network = self.make(sim, clock, bpc=8, latency=0)
        a, b = Sink(sim, "a", clock), Sink(sim, "b", clock)
        network.attach(a, kind="l2")
        network.attach(b, kind="tcc")
        network.send(FakeMsg("a", "b", size_bytes=8))
        sim.run()
        assert b.received[0][0] == 1_000  # 8B / 8Bpc = 1 cycle


class TestWrrInputArbitration:
    """WRR arbitration at the directory's shared input port."""

    def build(self, sim, clock, weights, latency=0):
        network = Network(
            sim, clock, default_latency_cycles=latency,
            link_bytes_per_cycle=64, arb_weights=weights,
        )
        cpu = Sink(sim, "cpu_src", clock)
        gpu = Sink(sim, "gpu_src", clock)
        sink = Sink(sim, "d", clock, service_cycles=0)
        network.attach(cpu, kind="l2")
        network.attach(gpu, kind="tcc")
        network.attach(sink, kind="dir")
        return network, cpu, gpu, sink

    def test_wrr_interleaves_by_weight(self, sim, clock):
        network, _cpu, _gpu, sink = self.build(
            sim, clock, weights={"cpu": 2, "gpu": 1}
        )
        # 64B at 64Bpc = 1 cycle; all four per class arrive together and
        # contend at the directory's input port
        for i in range(4):
            network.send(FakeMsg("cpu_src", "d", category=f"c{i}", size_bytes=64))
            network.send(FakeMsg("gpu_src", "d", category=f"g{i}", size_bytes=64))
        sim.run()
        order = [msg.category for _, msg in sink.received]
        # c0 is granted alone on arrival; from then on 2 cpu : 1 gpu
        assert order == ["c0", "c1", "g0", "c2", "c3", "g1", "g2", "g3"]
        arb = network.stats.child("arb")
        assert arb["d.grants.cpu"] == 4
        assert arb["d.grants.gpu"] == 4
        assert arb["d.wait_ticks"] > 0
        assert arb["d.max_depth"] >= 2

    def test_uncontended_port_adds_only_serialization(self, sim, clock):
        network, _cpu, _gpu, sink = self.build(
            sim, clock, weights={"cpu": 2, "gpu": 1}, latency=10
        )
        network.send(FakeMsg("cpu_src", "d", size_bytes=64))
        sim.run()
        # 1 cycle output serialization + 10 latency + 1 cycle input port
        assert sink.received[0][0] == 12_000
        assert network.stats.child("arb")["d.grants.cpu"] == 1

    def test_non_arbitrated_kinds_deliver_directly(self, sim, clock):
        network, cpu, _gpu, _sink = self.build(sim, clock, weights=None)
        network.send(FakeMsg("d", "cpu_src", size_bytes=64))
        sim.run()
        # responses back to the cache are FIFO: no arb stats appear
        assert len(cpu.received) == 1
        assert not any(
            key.startswith("network.arb.") for key in network.stats.as_dict()
        )

    def test_port_drains_completely(self, sim, clock):
        network, _cpu, _gpu, sink = self.build(sim, clock, weights={"cpu": 4})
        for _ in range(10):
            network.send(FakeMsg("cpu_src", "d", size_bytes=64))
        sim.run()
        assert len(sink.received) == 10
        port = network._in_ports["d"]
        assert port.arb.pending() == 0 and not port.arb.busy


class TestFlowControl:
    """Credit-based back-pressure (``input_queue_depth``) and the stat
    counters the contended path promises: per-port ``credit_blocks`` /
    ``credit_blocked_ticks`` and the per-input occupancy integral with
    per-class wait breakdown."""

    def build(self, sim, clock, depth, latency=0):
        network = Network(
            sim, clock, default_latency_cycles=latency,
            link_bytes_per_cycle=64, arb_weights={"cpu": 1},
            input_queue_depth=depth,
        )
        src = Sink(sim, "src", clock)
        sink = Sink(sim, "d", clock, service_cycles=0)
        network.attach(src, kind="l2")
        network.attach(sink, kind="dir")
        return network, sink

    def test_burst_past_capacity_blocks_on_credits(self, sim, clock):
        network, sink = self.build(sim, clock, depth=1, latency=10)
        for _ in range(3):
            network.send(FakeMsg("src", "d", size_bytes=64))
        sim.run()
        # each message: 1 cycle out serialization + 10 latency + 1 cycle
        # input port; with a single credit the next serialization may only
        # start once the previous message is *granted*
        assert [t for t, _ in sink.received] == [12_000, 23_000, 34_000]
        ports = network.stats.child("ports")
        assert ports["src.credit_blocks"] == 2
        # both stalls last from serialization-done to the grant (10 cycles)
        assert ports["src.credit_blocked_ticks"] == 20_000
        # the credit pool keeps the input queue within its capacity
        assert network.stats.child("arb")["d.max_depth"] == 1

    def test_idle_port_without_credit_parks_at_send(self, sim, clock):
        network, sink = self.build(sim, clock, depth=1, latency=10)
        other = Sink(sim, "src2", clock)
        network.attach(other, kind="l2")
        network.send(FakeMsg("src", "d", size_bytes=64))
        # src2's port is idle, but src took the only credit: send parks it
        network.send(FakeMsg("src2", "d", size_bytes=64))
        assert network.blocked_snapshot() == {"src2": 0}
        sim.run()
        # src's grant at 11 cycles hands the credit to src2, which then
        # serializes (1 cycle), flies (10) and crosses the input port (1)
        assert [(t, m.src) for t, m in sink.received] == [
            (12_000, "src"), (23_000, "src2"),
        ]
        ports = network.stats.child("ports")
        assert ports["src2.credit_blocks"] == 1
        assert ports["src2.credit_blocked_ticks"] == 11_000
        assert "src.credit_blocks" not in ports.counters()

    def test_unbounded_port_never_blocks(self, sim, clock):
        network, sink = self.build(sim, clock, depth=0)
        for _ in range(3):
            network.send(FakeMsg("src", "d", size_bytes=64))
        sim.run()
        assert len(sink.received) == 3
        ports = network.stats.child("ports").as_dict()
        assert not any(key.endswith(".credit_blocks") for key in ports)

    def test_negative_queue_depth_rejected(self, sim, clock):
        with pytest.raises(SimulationError, match="input queue depth"):
            self.build(sim, clock, depth=-1)

    def test_occupancy_integral_matches_total_wait(self, sim, clock):
        network = Network(
            sim, clock, default_latency_cycles=0,
            link_bytes_per_cycle=64, arb_weights={"cpu": 2, "gpu": 1},
        )
        cpu = Sink(sim, "cpu_src", clock)
        gpu = Sink(sim, "gpu_src", clock)
        sink = Sink(sim, "d", clock, service_cycles=0)
        network.attach(cpu, kind="l2")
        network.attach(gpu, kind="tcc")
        network.attach(sink, kind="dir")
        for _ in range(4):
            network.send(FakeMsg("cpu_src", "d", size_bytes=64))
            network.send(FakeMsg("gpu_src", "d", size_bytes=64))
        sim.run()
        arb = network.stats.child("arb")
        # occupancy integrates queue depth over time, so it must equal the
        # summed per-message waits — and the per-class split must add up
        assert arb["d.occupancy_ticks"] > 0
        assert arb["d.occupancy_ticks"] == arb["d.wait_ticks"]
        assert arb["d.wait_ticks.cpu"] > 0
        assert arb["d.wait_ticks.gpu"] > 0
        assert (
            arb["d.wait_ticks.cpu"] + arb["d.wait_ticks.gpu"]
            == arb["d.wait_ticks"]
        )
        assert arb["d.grants.cpu"] == 4 and arb["d.grants.gpu"] == 4

    def test_kind_gate_deadlocks_then_drains(self, sim, clock):
        network, sink = self.build(sim, clock, depth=1)
        network.set_kind_gate("dir", True)
        network.send(FakeMsg("src", "d", size_bytes=64))
        network.send(FakeMsg("src", "d", size_bytes=64))
        # the gated port accepts the first message but grants nothing, so
        # its credit never returns and the second sender parks forever
        with pytest.raises(DeadlockError, match="gated"):
            sim.run()
        assert sink.received == []
        assert "credit-blocked" in (network.pending_work() or "")
        assert network.blocked_snapshot() == {"src": 1_000}
        network.set_kind_gate("dir", False)
        sim.run()
        assert len(sink.received) == 2
        assert network.pending_work() is None
        assert network.blocked_snapshot() == {}
    def test_back_to_back_messages_serialize(self, sim, clock):
        network = Network(sim, clock, default_latency_cycles=0)
        sink = Sink(sim, "sink", clock, service_cycles=5)
        src = Sink(sim, "src", clock)
        network.attach(sink, kind="dir")
        network.attach(src, kind="l2")
        for _ in range(3):
            network.send(FakeMsg("src", "sink"))
        sim.run()
        times = [t for t, _ in sink.received]
        assert times == [0, 5_000, 10_000]

    def test_queue_wait_is_counted(self, sim, clock):
        network = Network(sim, clock, default_latency_cycles=0)
        sink = Sink(sim, "sink", clock, service_cycles=4)
        src = Sink(sim, "src", clock)
        network.attach(sink, kind="dir")
        network.attach(src, kind="l2")
        network.send(FakeMsg("src", "sink"))
        network.send(FakeMsg("src", "sink"))
        sim.run()
        assert sink.stats["queue_wait_ticks"] == 4_000
        assert sink.stats["messages_received"] == 2

    def test_spaced_messages_do_not_queue(self, sim, clock):
        network = Network(sim, clock, default_latency_cycles=0)
        sink = Sink(sim, "sink", clock, service_cycles=2)
        src = Sink(sim, "src", clock)
        network.attach(sink, kind="dir")
        network.attach(src, kind="l2")
        network.send(FakeMsg("src", "sink"))
        sim.events.schedule(50_000, lambda: network.send(FakeMsg("src", "sink")))
        sim.run()
        assert sink.stats["queue_wait_ticks"] == 0
