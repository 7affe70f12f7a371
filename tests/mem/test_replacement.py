"""Tests for Tree-PLRU replacement and §VII's cost-keyed victim choice."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.cache_array import CacheArray
from repro.mem.replacement import TreePLRU, preferred_order


def full_set(ways: int, expensive=()) -> tuple[CacheArray, TreePLRU]:
    """A one-set array with every way filled in order (way ``w`` holds line
    ``w``; expensive ways hold state "O", the rest "S"), plus a reference
    TreePLRU touched the same way."""
    array = CacheArray(num_sets=1, ways=ways)
    mirror = TreePLRU(ways)
    for way in range(ways):
        array.install(way * 64, state="O" if way in expensive else "S")
        mirror.touch(way)
    return array, mirror


def owned_is_expensive(line) -> int:
    return 1 if line.state == "O" else 0


class TestTreePLRU:
    def test_untouched_tree_victimizes_way_zero(self):
        assert TreePLRU(4).victim() == 0

    def test_touching_a_way_protects_it(self):
        policy = TreePLRU(4)
        policy.touch(0)
        assert policy.victim() != 0

    def test_round_robin_under_cyclic_touches(self):
        """Touching every way in order leaves the first as PLRU victim."""
        policy = TreePLRU(8)
        for way in range(8):
            policy.touch(way)
        assert policy.victim() == 0

    def test_two_way_behaves_like_lru(self):
        policy = TreePLRU(2)
        policy.touch(0)
        assert policy.victim() == 1
        policy.touch(1)
        assert policy.victim() == 0

    @pytest.mark.parametrize("ways", [2, 3, 4, 6, 8, 16, 32])
    def test_victim_always_in_range(self, ways):
        policy = TreePLRU(ways)
        for way in range(ways):
            policy.touch(way)
            assert 0 <= policy.victim() < ways

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_victim_never_most_recent_when_multiple_ways(self, ways, data):
        policy = TreePLRU(ways)
        touches = data.draw(
            st.lists(st.integers(min_value=0, max_value=ways - 1), max_size=50)
        )
        for way in touches:
            policy.touch(way)
        victim = policy.victim()
        assert 0 <= victim < ways
        if ways > 1 and touches:
            assert victim != touches[-1]


class TestStateAwarePLRU:
    """§VII state-aware replacement: ``choose_victim(cost_of=...)`` keeps
    the cheapest ways and lets Tree-PLRU pick among them."""

    def test_prefers_cheapest_cost(self):
        costs = {0: 5, 1: 1, 2: 5, 3: 5}
        array, _ = full_set(4)
        victim = array.choose_victim(4 * 64, cost_of=lambda line: costs[line.way])
        assert victim.way == 1

    def test_ties_broken_by_plru(self):
        array, _ = full_set(4)
        array.lookup(0)  # way 0 most recent
        victim = array.choose_victim(4 * 64, cost_of=lambda line: 0)
        assert victim.way != 0

    def test_no_cost_function_falls_back_to_plru(self):
        array, mirror = full_set(4)
        assert array.choose_victim(4 * 64).way == mirror.victim()


class RefTreePLRU:
    """Independent reference model of Tree-PLRU.

    Implemented recursively over an explicit node map (vs the production
    iterative walk over a flat bit array) so the differential test compares
    two genuinely different encodings of the same policy.
    """

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.leaves = 1
        while self.leaves < ways:
            self.leaves *= 2
        self.lru_side: dict[tuple[int, int], str] = {}  # (lo, hi) -> "left"/"right"

    def _touch(self, lo: int, hi: int, way: int) -> None:
        if hi - lo == 1:
            return
        mid = (lo + hi) // 2
        if way < mid:
            self.lru_side[(lo, hi)] = "right"
            self._touch(lo, mid, way)
        else:
            self.lru_side[(lo, hi)] = "left"
            self._touch(mid, hi, way)

    def touch(self, way: int) -> None:
        self._touch(0, self.leaves, way)

    def _walk(self, lo: int, hi: int) -> int:
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        if self.lru_side.get((lo, hi), "left") == "left":
            return self._walk(lo, mid)
        return self._walk(mid, hi)

    def victim(self) -> int:
        for _attempt in range(self.leaves):
            leaf = self._walk(0, self.leaves)
            if leaf < self.ways:
                return leaf
            self.touch(leaf)  # padding leaf: mark recent, retry
        raise RuntimeError("reference model failed to find a victim")


class TestTreePLRUDifferential:
    """Randomized differential test against the reference model, covering
    power-of-two and non-power-of-two associativities."""

    @pytest.mark.parametrize("ways", [2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_matches_reference_on_random_sequences(self, ways):
        import random

        rng = random.Random(1234 + ways)
        for _trial in range(20):
            model = TreePLRU(ways)
            reference = RefTreePLRU(ways)
            for _step in range(100):
                if rng.random() < 0.7:
                    way = rng.randrange(ways)
                    model.touch(way)
                    reference.touch(way)
                else:
                    # victim() may mutate padding state; call on both.
                    assert model.victim() == reference.victim()
            assert model.victim() == reference.victim()

    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=15)),
                 max_size=60),
    )
    def test_matches_reference_property(self, ways, operations):
        model = TreePLRU(ways)
        reference = RefTreePLRU(ways)
        for is_touch, raw_way in operations:
            if is_touch:
                way = raw_way % ways
                model.touch(way)
                reference.touch(way)
            else:
                assert model.victim() == reference.victim()


class TestPreferredOrder:
    def test_lru_order_is_exact_recency(self):
        """Two-way Tree-PLRU is exact LRU, so its order is recency."""
        policy = TreePLRU(2)
        for way in (1, 0):
            policy.touch(way)
        assert preferred_order(policy) == [1, 0]

    def test_regression_not_just_current_victim_first(self):
        """The old implementation only pulled the current victim to the
        front, leaving the rest in input order."""
        policy = TreePLRU(4)
        for way in (3, 2, 1, 0):
            policy.touch(way)
        # true preference is [3, 1, 2, 0]; old code returned [3, 2, 1, 0]
        # for input [2, 1, 3, 0] (victim first, remainder untouched).
        assert preferred_order(policy, [2, 1, 3, 0]) == [3, 1, 2, 0]

    def test_tree_plru_first_is_victim_and_full_permutation(self):
        policy = TreePLRU(8)
        for way in (0, 3, 5, 1):
            policy.touch(way)
        order = preferred_order(policy)
        assert order[0] == policy.victim()
        assert sorted(order) == list(range(8))
        assert order.index(1) > order.index(2)  # recently touched ranks later

    def test_does_not_disturb_live_state(self):
        policy = TreePLRU(4)
        policy.touch(2)
        before = list(policy._bits)
        preferred_order(policy)
        assert policy._bits == before

    def test_subset_filtering(self):
        policy = TreePLRU(4)
        for way in (1, 0, 3, 2):
            policy.touch(way)
        assert preferred_order(policy) == [1, 3, 0, 2]
        assert preferred_order(policy, [0, 3]) == [3, 0]

    def test_out_of_range_way_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            preferred_order(TreePLRU(4), [0, 4])


class TestStateAwareFallback:
    """When Tree-PLRU's own victim is expensive, ``choose_victim`` falls
    back to the cheap way Tree-PLRU prefers most."""

    def test_fallback_uses_plru_preference_not_lowest_index(self):
        """Regression: when the raw PLRU choice is not a minimum-cost
        candidate, the victim must be the PLRU-preferred candidate, not
        simply the lowest way index."""
        array, mirror = full_set(4, expensive={0})
        # raw PLRU choice is way 0 (expensive); PLRU preference among the
        # cheap candidates {1, 2, 3} is way 2, not the lowest index 1.
        assert mirror.victim() == 0
        assert preferred_order(mirror, [1, 2, 3]) == [2, 1, 3]
        assert array.choose_victim(4 * 64, cost_of=owned_is_expensive).way == 2

    def test_fallback_is_stateless(self):
        array, _ = full_set(4, expensive={0})
        first = array.choose_victim(4 * 64, cost_of=owned_is_expensive)
        again = array.choose_victim(4 * 64, cost_of=owned_is_expensive)
        assert first is again
        assert len(list(array.iter_valid())) == 4

    def test_fallback_matches_preferred_order(self):
        import random

        rng = random.Random(99)
        fallbacks = 0
        for _trial in range(25):
            ways = rng.choice([4, 6, 8])
            expensive = set(rng.sample(range(ways), rng.randrange(1, ways - 1)))
            array, mirror = full_set(ways, expensive)
            for _touch in range(rng.randrange(0, 12)):
                way = rng.randrange(ways)
                array.lookup(way * 64)
                mirror.touch(way)
            victim = array.choose_victim(ways * 64, cost_of=owned_is_expensive).way
            # the array's walk rotates padding bits like the reference's
            fallbacks += mirror.victim() in expensive
            assert victim not in expensive
            assert victim == preferred_order(
                mirror, [w for w in range(ways) if w not in expensive]
            )[0]
        assert fallbacks > 0
