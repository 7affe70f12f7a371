"""Tests for the event queue and simulator run control."""

from __future__ import annotations

import random

import pytest

from repro.sim.event_queue import (
    DeadlockError,
    EventQueue,
    SimulationError,
    Simulator,
)


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(30, lambda: order.append("c"))
        queue.schedule(10, lambda: order.append("a"))
        queue.schedule(20, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_events_run_fifo(self):
        queue = EventQueue()
        order = []
        for label in "abcd":
            queue.schedule(5, lambda lbl=label: order.append(lbl))
        queue.run()
        assert order == ["a", "b", "c", "d"]

    def test_now_advances_with_events(self):
        queue = EventQueue()
        seen = []
        queue.schedule(7, lambda: seen.append(queue.now))
        queue.schedule(42, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [7, 42]
        assert queue.now == 42

    def test_scheduling_in_past_raises(self):
        queue = EventQueue()
        queue.schedule(10, lambda: queue.schedule(5, lambda: None))
        with pytest.raises(SimulationError):
            queue.run()

    def test_schedule_after_is_relative(self):
        queue = EventQueue()
        seen = []
        queue.schedule(10, lambda: queue.schedule_after(5, lambda: seen.append(queue.now)))
        queue.run()
        assert seen == [15]

    def test_run_until_stops_before_later_events(self):
        queue = EventQueue()
        ran = []
        queue.schedule(10, lambda: ran.append(10))
        queue.schedule(100, lambda: ran.append(100))
        queue.run(until=50)
        assert ran == [10]
        assert queue.now == 50
        assert len(queue) == 1

    def test_next_time_reports_earliest_event(self):
        queue = EventQueue()
        assert queue.next_time() is None
        queue.schedule(7, lambda: None)
        queue.schedule(3, lambda: None)
        assert queue.next_time() == 3

    def test_events_scheduled_during_run_execute(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule_after(1, lambda: order.append("second"))

        queue.schedule(0, first)
        queue.run()
        assert order == ["first", "second"]

    def test_executed_event_count(self):
        queue = EventQueue()
        for t in range(5):
            queue.schedule(t, lambda: None)
        queue.run()
        assert queue.executed_events == 5

    def test_executed_event_count_exact_when_callback_raises(self):
        queue = EventQueue()
        queue.schedule(1, lambda: None)

        def boom():
            raise RuntimeError("boom")

        queue.schedule(2, boom)
        queue.schedule(3, lambda: None)
        with pytest.raises(RuntimeError):
            queue.run()
        assert queue.executed_events == 2  # the raising event still counts

    def test_far_future_events_run_in_time_order(self):
        queue = EventQueue()
        far = 1 << 40
        order = []
        queue.schedule(far * 3, order.append, arg="c")
        queue.schedule(5, order.append, arg="a")
        queue.schedule(far + 10, order.append, arg="b")
        assert len(queue) == 3
        queue.run()
        assert order == ["a", "b", "c"]
        assert queue.now == far * 3

    def test_far_timer_can_reschedule_near_work(self):
        queue = EventQueue()
        far = 1 << 40
        order = []

        def timer():
            order.append(("timer", queue.now))
            queue.schedule_after(3, lambda: order.append(("near", queue.now)))

        queue.schedule_after(far + 100, timer)
        queue.run()
        assert order == [("timer", far + 100), ("near", far + 103)]

    def test_schedule_at_now_runs_after_pending_events(self):
        # events scheduled for the current tick from inside a callback run
        # after the tick's already-pending events, in scheduling order
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule(queue.now, order.append, arg="third")
            queue.schedule(queue.now, order.append, arg="fourth")

        queue.schedule(5, first)
        queue.schedule(5, order.append, arg="second")
        queue.run()
        assert order == ["first", "second", "third", "fourth"]

    def test_random_schedule_runs_in_time_seq_order(self):
        # reference model: each event to run is the smallest
        # (time, scheduling order) key among those pending
        rng = random.Random(1234)
        queue = EventQueue()
        pending = set()
        count = [0]

        def spawn(key):
            assert key == min(pending)
            pending.remove(key)
            if count[0] < 400:
                delay = rng.choice([0, 1, 1, 8, 8, 8, 64, 1 << 23])
                add(queue.now + delay)

        def add(when):
            key = (when, count[0])
            count[0] += 1
            pending.add(key)
            queue.schedule(when, spawn, arg=key)

        for lane in range(8):
            add(lane % 3)
        queue.run()
        assert not pending
        assert queue.executed_events == count[0]


class TestTieBreakExploration:
    """``set_tie_break`` permutes same-tick ordering — the
    litmus suite's schedule-exploration hook."""

    @staticmethod
    def _order(rng) -> list[str]:
        import random

        queue = EventQueue()
        if rng is not None:
            queue.set_tie_break(random.Random(rng))
        order: list[str] = []
        for label in "abcdefgh":
            queue.schedule(5, order.append, arg=label)
        queue.run()
        return order

    def test_seeded_tie_break_is_deterministic(self):
        assert self._order(7) == self._order(7)

    def test_different_seeds_reach_different_orders(self):
        orders = {tuple(self._order(seed)) for seed in range(8)}
        assert len(orders) > 1

    def test_tie_break_permutes_but_never_drops_events(self):
        order = self._order(3)
        assert sorted(order) == list("abcdefgh")

    def test_time_order_still_respected(self):
        import random

        queue = EventQueue()
        queue.set_tie_break(random.Random(11))
        order: list[str] = []
        queue.schedule(20, order.append, arg="late")
        queue.schedule(10, order.append, arg="early")
        queue.schedule(15, order.append, arg="middle")
        queue.run()
        assert order == ["early", "middle", "late"]

    def test_none_restores_fifo(self):
        import random

        queue = EventQueue()
        queue.set_tie_break(random.Random(5))
        queue.set_tie_break(None)
        order: list[str] = []
        for label in "abcd":
            queue.schedule(5, order.append, arg=label)
        queue.run()
        assert order == list("abcd")


class TestArgScheduling:
    """``schedule(when, callback, arg=x)`` runs ``callback(x)`` — the
    closure-free form used by hot paths like ``Network.send``."""

    def test_arg_is_passed_to_callback(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5, seen.append, arg="payload")
        queue.run()
        assert seen == ["payload"]

    def test_none_is_a_valid_arg(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5, seen.append, arg=None)
        queue.run()
        assert seen == [None]

    def test_schedule_after_passes_arg(self):
        queue = EventQueue()
        seen = []
        queue.schedule(10, lambda: queue.schedule_after(5, seen.append, arg="x"))
        queue.run()
        assert seen == ["x"]
        assert queue.now == 15

    def test_arg_and_closure_events_interleave_deterministically(self):
        queue = EventQueue()
        order = []
        queue.schedule(5, order.append, arg="arg-form")
        queue.schedule(5, lambda: order.append("closure-form"))
        queue.schedule_after(5, order.append, arg="relative-arg-form")
        queue.run()
        assert order == ["arg-form", "closure-form", "relative-arg-form"]

    def test_schedule_after_negative_delay_raises(self):
        queue = EventQueue()
        queue.schedule(10, lambda: queue.schedule_after(-5, lambda: None))
        with pytest.raises(SimulationError):
            queue.run()


class TestSimulator:
    def test_run_returns_final_time(self):
        simulator = Simulator()
        simulator.events.schedule(123, lambda: None)
        assert simulator.run() == 123

    def test_deadlock_detection_via_pending_work(self):
        simulator = Simulator()

        class Stuck:
            name = "stuck"

            def pending_work(self):
                return "waiting forever"

        simulator.register(Stuck())
        with pytest.raises(DeadlockError, match="stuck"):
            simulator.run()

    def test_quiesced_components_do_not_trip_deadlock(self):
        simulator = Simulator()

        class Quiet:
            name = "quiet"

            def pending_work(self):
                return None

        simulator.register(Quiet())
        simulator.run()

    def test_max_events_backstop(self):
        simulator = Simulator()

        def respawn():
            simulator.events.schedule_after(1, respawn)

        simulator.events.schedule(0, respawn)
        with pytest.raises(SimulationError, match="max_events"):
            simulator.run(max_events=100)
