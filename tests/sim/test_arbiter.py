"""Unit tests for the weighted-round-robin arbiter."""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.sim.arbiter import (
    DEFAULT_CLASS,
    FrFcfsQueue,
    WrrArbiter,
    class_of_kind,
)


def drain(arb: WrrArbiter) -> list:
    order = []
    while True:
        picked = arb.pick()
        if picked is None:
            return order
        order.append(picked[1])


class TestWrrOrder:
    def test_fifo_within_one_class(self):
        arb = WrrArbiter("p", {"cpu": 2})
        for item in "abc":
            arb.enqueue("cpu", item)
        assert drain(arb) == ["a", "b", "c"]

    def test_weights_set_the_grant_ratio(self):
        arb = WrrArbiter("p", {"cpu": 2, "gpu": 1})
        for i in range(6):
            arb.enqueue("cpu", f"c{i}")
            arb.enqueue("gpu", f"g{i}")
        order = drain(arb)
        # 2 cpu grants per gpu grant while both queues are backlogged
        assert order[:6] == ["c0", "c1", "g0", "c2", "c3", "g1"]

    def test_empty_class_is_skipped_without_spending_credit(self):
        arb = WrrArbiter("p", {"cpu": 4, "gpu": 1, "dma": 1})
        arb.enqueue("dma", "d0")
        arb.enqueue("dma", "d1")
        assert drain(arb) == ["d0", "d1"]

    def test_single_class_degenerates_to_fifo(self):
        arb = WrrArbiter("p", {"cpu": 3, "gpu": 2})
        items = [f"g{i}" for i in range(5)]
        for item in items:
            arb.enqueue("gpu", item)
        assert drain(arb) == items

    def test_round_robin_under_equal_weights(self):
        arb = WrrArbiter("p", {"cpu": 1, "gpu": 1})
        for i in range(3):
            arb.enqueue("cpu", f"c{i}")
            arb.enqueue("gpu", f"g{i}")
        assert drain(arb) == ["c0", "g0", "c1", "g1", "c2", "g2"]

    def test_deterministic_for_fixed_arrival_order(self):
        def run() -> list:
            arb = WrrArbiter("p", {"cpu": 2, "gpu": 1, "dma": 1})
            for i in range(4):
                arb.enqueue("gpu", ("g", i))
                arb.enqueue("cpu", ("c", i))
            arb.enqueue("dma", ("d", 0))
            return drain(arb)

        assert run() == run()

    def test_interleaved_enqueue_and_pick(self):
        arb = WrrArbiter("p", {"cpu": 1, "gpu": 1})
        arb.enqueue("cpu", "c0")
        assert arb.pick() == ("cpu", "c0")
        arb.enqueue("gpu", "g0")
        arb.enqueue("cpu", "c1")
        first = arb.pick()
        second = arb.pick()
        assert {first, second} == {("gpu", "g0"), ("cpu", "c1")}
        assert arb.pick() is None


class TestClassManagement:
    def test_unknown_class_auto_created_with_weight_one(self):
        arb = WrrArbiter("p", {"cpu": 4})
        arb.enqueue("mystery", "m0")
        assert arb._weights["mystery"] == 1
        assert arb.pending() == 1
        assert drain(arb) == ["m0"]

    def test_classes_lists_registration_order(self):
        arb = WrrArbiter("p", {"cpu": 2, "gpu": 1})
        arb.enqueue("dma", "d0")
        assert arb.classes() == ("cpu", "gpu", "dma")

    def test_pending_counts(self):
        arb = WrrArbiter("p", {"cpu": 1, "gpu": 1})
        assert arb.pending() == 0 and len(arb) == 0
        arb.enqueue("cpu", "a")
        arb.enqueue("gpu", "b")
        assert arb.pending() == 2
        arb.pick()
        assert arb.pending() == 1

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            WrrArbiter("p", {"cpu": 0})

    def test_duplicate_class_rejected(self):
        arb = WrrArbiter("p", {"cpu": 1})
        with pytest.raises(ValueError, match="duplicate"):
            arb._add_class("cpu", 2)

    def test_empty_arbiter_picks_none(self):
        assert WrrArbiter("p").pick() is None


class _ReferenceWrr:
    """A frozen copy of the full-scan WRR arbiter: ``pending()`` sums the
    class queues and ``pick()`` scans ``len(order) + 1`` classes even when
    everything is empty.  :class:`WrrArbiter` must stay step-for-step
    identical to it."""

    def __init__(self, weights: dict[str, int]) -> None:
        self._weights: dict[str, int] = {}
        self._queues: dict[str, deque] = {}
        self._order: list[str] = []
        for cls, weight in weights.items():
            self._add_class(cls, weight)
        self._index = 0
        self._credit = self._weights[self._order[0]] if self._order else 0

    def _add_class(self, cls: str, weight: int) -> None:
        self._weights[cls] = weight
        self._queues[cls] = deque()
        self._order.append(cls)

    def enqueue(self, cls: str, item) -> None:
        queue = self._queues.get(cls)
        if queue is None:
            self._add_class(cls, 1)
            queue = self._queues[cls]
            if len(self._order) == 1:
                self._credit = self._weights[cls]
        queue.append(item)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def pick(self):
        order = self._order
        if not order:
            return None
        index = self._index
        credit = self._credit
        for _scan in range(len(order) + 1):
            cls = order[index]
            queue = self._queues[cls]
            if queue and credit > 0:
                self._index = index
                self._credit = credit - 1
                return cls, queue.popleft()
            index = (index + 1) % len(order)
            credit = self._weights[order[index]]
        self._index = index
        self._credit = credit
        return None


class TestMatchesFullScanReference:
    """Seeded random enqueue/pick sequences: every pick, the grant
    pointer, its credit and ``pending()`` match the
    full-scan reference after every step, including picks on an empty
    arbiter (which still rotate the pointer)."""

    CLASSES = ("cpu", "gpu", "dma", "other")

    @pytest.mark.parametrize("seed", range(12))
    def test_step_for_step(self, seed):
        rng = random.Random(seed)
        weights = {cls: rng.randint(1, 4)
                   for cls in rng.sample(self.CLASSES, rng.randint(0, 3))}
        arb = WrrArbiter("p", dict(weights))
        ref = _ReferenceWrr(dict(weights))
        pick_bias = rng.choice([0.5, 0.6, 0.7])
        empty_picks = 0
        for step in range(600):
            if rng.random() < pick_bias:
                empty_picks += ref.pending() == 0
                assert arb.pick() == ref.pick(), f"step {step}"
            else:
                cls = rng.choice(self.CLASSES)
                arb.enqueue(cls, step)
                ref.enqueue(cls, step)
            assert (arb._index, arb._credit, arb.pending()) == (
                ref._index, ref._credit, ref.pending()
            ), f"step {step}"
        assert empty_picks > 0  # the idle-rotation path was exercised


class TestFrFcfsQueue:
    """First-ready FCFS pick order for one DRAM bank."""

    ROW = staticmethod(lambda item: item[0])

    def test_empty_pick_returns_none(self):
        assert FrFcfsQueue("b0").pick(None, self.ROW) is None

    def test_no_open_row_degenerates_to_fcfs(self):
        queue = FrFcfsQueue("b0")
        for item in [(1, "a"), (0, "b"), (1, "c")]:
            queue.enqueue(item)
        assert queue.pick(None, self.ROW) == (1, "a")

    def test_oldest_row_hit_is_promoted(self):
        queue = FrFcfsQueue("b0")
        for item in [(1, "miss"), (0, "hit1"), (0, "hit2")]:
            queue.enqueue(item)
        assert queue.pick(0, self.ROW) == (0, "hit1")
        # the bypassed row-miss access stays oldest in the FIFO
        assert queue.pick(None, self.ROW) == (1, "miss")

    def test_streak_cap_forces_the_oldest_access(self):
        queue = FrFcfsQueue("b0", row_streak_cap=2)
        for item in [(1, "starving"), (0, "h1"), (0, "h2"), (0, "h3")]:
            queue.enqueue(item)
        assert queue.pick(0, self.ROW) == (0, "h1")
        queue.note_row(hit=True)
        assert queue.pick(0, self.ROW) == (0, "h2")
        queue.note_row(hit=True)
        # streak at the cap: the starving row-miss access must go next
        assert queue.pick(0, self.ROW) == (1, "starving")
        queue.note_row(hit=False)
        # the serviced miss reset the streak; row-hit service resumes
        assert queue.pick(0, self.ROW) == (0, "h3")

    def test_head_of_queue_row_hit_is_not_a_promotion(self):
        queue = FrFcfsQueue("b0")
        queue.enqueue((0, "head"))
        queue.enqueue((1, "tail"))
        assert queue.pick(0, self.ROW) == (0, "head")
        assert queue.pick(None, self.ROW) == (1, "tail")

    def test_pending_and_len(self):
        queue = FrFcfsQueue("b0")
        queue.enqueue((0, "a"))
        queue.enqueue((1, "b"))
        assert queue.pending() == 2 and len(queue) == 2

    def test_invalid_streak_cap_rejected(self):
        with pytest.raises(ValueError, match="streak cap"):
            FrFcfsQueue("b0", row_streak_cap=0)


class TestClassOfKind:
    def test_kind_mapping(self):
        assert class_of_kind("l2") == "cpu"
        assert class_of_kind("tcc") == "gpu"
        assert class_of_kind("dma") == "dma"
        assert class_of_kind("dir") == "cpu"

    def test_unknown_kind_falls_back(self):
        assert class_of_kind("???") == DEFAULT_CLASS
