"""Tests for the set-associative cache array."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address import LINE_BYTES
from repro.mem.block import ZERO_LINE
from repro.mem.cache_array import CacheArray


def addr_of(line_no: int) -> int:
    return line_no * LINE_BYTES


class TestGeometry:
    def test_from_geometry_matches_table2_llc(self):
        """16 MB, 16-way LLC -> 16384 sets of 16 ways."""
        array = CacheArray.from_geometry(16 * 2**20, 16)
        assert array.ways == 16
        assert array.num_sets == 16 * 2**20 // 64 // 16

    def test_from_geometry_tiny_cache_clamps_ways(self):
        array = CacheArray.from_geometry(128, 16)  # only two lines
        assert array.ways == 2
        assert array.num_sets == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheArray(0, 4)


class TestLookupInstall:
    def test_miss_returns_none(self):
        array = CacheArray(4, 2)
        assert array.lookup(addr_of(1)) is None

    def test_install_then_hit(self):
        array = CacheArray(4, 2)
        line, evicted = array.install(addr_of(1), state="S", data=ZERO_LINE)
        assert evicted is None
        hit = array.lookup(addr_of(1))
        assert hit is line
        assert hit.state == "S"

    def test_reinstall_updates_in_place(self):
        array = CacheArray(4, 2)
        first, _ = array.install(addr_of(1), state="S")
        second, evicted = array.install(addr_of(1), state="M", dirty=True)
        assert second is first
        assert evicted is None
        assert first.state == "M"
        assert first.dirty

    def test_set_conflict_evicts(self):
        array = CacheArray(num_sets=2, ways=1)
        array.install(addr_of(0), state="S")  # set 0
        _, evicted = array.install(addr_of(2), state="M")  # also set 0
        assert evicted is not None
        assert evicted.addr == addr_of(0)
        assert array.lookup(addr_of(0)) is None
        assert array.lookup(addr_of(2)) is not None

    def test_eviction_snapshot_is_detached(self):
        array = CacheArray(1, 1)
        array.install(addr_of(0), state="M", data=ZERO_LINE, dirty=True)
        _, evicted = array.install(addr_of(1), state="S")
        assert evicted.state == "M"
        assert evicted.dirty
        assert evicted.data == ZERO_LINE

    def test_fill_replaces_a_valid_victim_in_place(self):
        array = CacheArray(num_sets=1, ways=2)
        array.install(addr_of(0), state="S")
        array.install(addr_of(1), state="S")
        victim = array.choose_victim(addr_of(2))
        old = victim.addr
        array.fill(victim, addr_of(2), "M", ZERO_LINE, True)
        assert array.lookup(addr_of(2), touch=False) is victim
        assert old not in array
        assert (victim.state, victim.dirty) == ("M", True)
        assert len(list(array.iter_valid())) == 2

    def test_invalidate(self):
        array = CacheArray(4, 2)
        array.install(addr_of(3), state="E")
        snapshot = array.invalidate(addr_of(3))
        assert snapshot.state == "E"
        assert array.lookup(addr_of(3)) is None
        assert array.invalidate(addr_of(3)) is None

    def test_contains_and_occupancy(self):
        array = CacheArray(4, 2)
        array.install(addr_of(1), state="S")
        array.install(addr_of(2), state="S")
        assert addr_of(1) in array
        assert addr_of(9) not in array
        assert len(list(array.iter_valid())) == 2

    def test_iter_valid(self):
        array = CacheArray(4, 2)
        for line_no in range(3):
            array.install(addr_of(line_no), state="S")
        addresses = sorted(line.addr for line in array.iter_valid())
        assert addresses == [addr_of(0), addr_of(1), addr_of(2)]


class TestReplacementIntegration:
    def test_lru_order_respected_within_set(self):
        """Two-way Tree-PLRU is exact LRU."""
        array = CacheArray(num_sets=1, ways=2)
        array.install(addr_of(0), state="S")
        array.install(addr_of(1), state="S")
        array.lookup(addr_of(0))  # make line 0 most recent
        _, evicted = array.install(addr_of(2), state="S")
        assert evicted.addr == addr_of(1)

    def test_choose_victim_prefers_invalid_ways(self):
        array = CacheArray(num_sets=1, ways=2)
        array.install(addr_of(0), state="S")
        victim = array.choose_victim(addr_of(1))
        assert not victim.valid

    def test_choose_victim_with_cost_function(self):
        array = CacheArray(num_sets=1, ways=3)
        array.install(addr_of(0), state="O")
        array.install(addr_of(1), state="S")
        array.install(addr_of(2), state="O")
        cost = {"S": 0, "O": 1}
        victim = array.choose_victim(addr_of(3), cost_of=lambda line: cost[line.state])
        assert victim.state == "S"

    def test_choose_victim_does_not_modify(self):
        array = CacheArray(num_sets=1, ways=1)
        array.install(addr_of(0), state="S")
        array.choose_victim(addr_of(1))
        assert array.lookup(addr_of(0)) is not None


class TestProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, line_numbers):
        array = CacheArray(num_sets=4, ways=2)
        for line_no in line_numbers:
            array.install(addr_of(line_no), state="S")
        assert len(list(array.iter_valid())) <= len(array)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_most_recent_install_always_present(self, line_numbers):
        array = CacheArray(num_sets=4, ways=2)
        for line_no in line_numbers:
            array.install(addr_of(line_no), state="S")
        assert array.lookup(addr_of(line_numbers[-1])) is not None

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_index_consistency(self, line_numbers):
        """Every valid line is found by lookup under its own address."""
        array = CacheArray(num_sets=4, ways=2)
        for line_no in line_numbers:
            array.install(addr_of(line_no), state="S")
        for line in array.iter_valid():
            assert array.lookup(line.addr, touch=False) is line


class TestLazyViews:
    @staticmethod
    def built_views(array: CacheArray) -> int:
        return len(array._lines)

    def test_fresh_array_builds_no_views(self):
        array = CacheArray(64, 8)
        assert self.built_views(array) == 0
        array.install(addr_of(1), state="S")
        assert self.built_views(array) == 1

    def test_view_identity_survives_invalidate_and_reinstall(self):
        array = CacheArray(num_sets=1, ways=1)
        line, _ = array.install(addr_of(0), state="S")
        assert array.lookup(addr_of(0)) is line
        assert array.lookup(addr_of(0), touch=False) is line
        assert next(iter(array.iter_valid())) is line
        array.invalidate(addr_of(0))
        assert array.lookup(addr_of(0)) is None
        again, _ = array.install(addr_of(0), state="M")
        assert again is line  # same slot, same view object
        assert array.lookup(addr_of(0)) is line
        assert line.state == "M"
        other, _ = array.install(addr_of(1), state="E")  # evicts into the slot
        assert other is line
        assert line.addr == addr_of(1)

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_plru_matches_policy_objects_in_every_set(self, seed):
        """The repeated per-slot touch masks pick the same victims as one
        reference Tree-PLRU object per set, in every set (6 ways exercises
        the non-power-of-two padding leaves)."""
        import random

        from repro.mem.replacement import TreePLRU

        rng = random.Random(seed)
        num_sets, ways = 3, 6
        fast = CacheArray(num_sets=num_sets, ways=ways)
        trees = [TreePLRU(ways) for _ in range(num_sets)]
        resident: list[list[int | None]] = [[None] * ways for _ in range(num_sets)]
        evictions = 0
        for _ in range(300):
            addr = addr_of(rng.randrange(48))
            set_idx = (addr // 64) % num_sets
            tree, lines = trees[set_idx], resident[set_idx]
            way = lines.index(addr) if addr in lines else None
            if rng.random() < 0.5:
                _, evicted = fast.install(addr, state="S")
                expected = None
                if way is None:
                    way = lines.index(None) if None in lines else tree.victim()
                    expected, lines[way] = lines[way], addr
                tree.touch(way)
                assert (evicted is None) == (expected is None)
                if evicted is not None:
                    evictions += 1
                    assert evicted.addr == expected
            else:
                assert (fast.lookup(addr) is None) == (way is None)
                if way is not None:
                    tree.touch(way)
        assert evictions > 50


class TestSparseStorage:
    """An array holds only what has been used: building one costs the same
    whatever its geometry, and it behaves exactly like a plain
    ``address -> line`` map with set-bounded capacity."""

    def test_build_cost_does_not_grow_with_slots(self):
        import tracemalloc

        def allocated(num_sets: int, ways: int) -> int:
            CacheArray(num_sets, ways)  # warm the shared per-ways tables
            tracemalloc.start()
            try:
                array = CacheArray(num_sets, ways)
                size, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del array
            return size

        allocated(1, 8)  # the first traced run also counts one-time setup
        tiny, directory = allocated(1, 8), allocated(512, 8)
        assert abs(directory - tiny) <= 64, (tiny, directory)

    OPS = st.lists(
        st.tuples(
            st.sampled_from(["install", "invalidate", "lookup", "victim",
                             "peek"]),
            st.integers(min_value=0, max_value=23),
            st.sampled_from(["S", "M", "E"]),
        ),
        max_size=120,
    )

    @settings(max_examples=150, deadline=None)
    @given(OPS)
    def test_matches_a_dict_model(self, ops):
        num_sets, ways = 3, 2
        array = CacheArray(num_sets, ways)
        model: dict[int, str] = {}  # resident address -> state
        held: dict[int, object] = {}  # resident address -> its line object

        def set_of(addr: int) -> int:
            return (addr // LINE_BYTES) % num_sets

        def residents(set_idx: int) -> list[int]:
            return [addr for addr in model if set_of(addr) == set_idx]

        for op, line_no, state in ops:
            addr = addr_of(line_no)
            if op == "install":
                line, evicted = array.install(addr, state=state)
                if addr in model:
                    assert evicted is None and line is held[addr]
                elif len(residents(set_of(addr))) < ways:
                    assert evicted is None
                else:
                    assert evicted is not None
                    assert set_of(evicted.addr) == set_of(addr)
                    assert evicted.state == model.pop(evicted.addr)
                    # the slot's line object now shows the new occupant
                    assert held.pop(evicted.addr) is line
                model[addr] = state
                held[addr] = line
            elif op == "invalidate":
                snapshot = array.invalidate(addr)
                if addr not in model:
                    assert snapshot is None
                    continue
                assert (snapshot.addr, snapshot.state) == (addr, model.pop(addr))
                stale = held.pop(addr)
                assert (stale.valid, stale.addr, stale.state, stale.dirty) == (
                    False, -1, None, False)
            elif op == "victim":
                victim = array.choose_victim(addr)
                if len(residents(set_of(addr))) < ways:
                    assert not victim.valid
                else:
                    assert victim.valid and set_of(victim.addr) == set_of(addr)
                    assert victim is held[victim.addr]
            else:
                line = array.lookup(addr, touch=op == "lookup")
                if addr in model:
                    assert line is held[addr]
                    assert (line.valid, line.addr, line.state) == (
                        True, addr, model[addr])
                else:
                    assert line is None
            assert len(list(array.iter_valid())) == len(model)
            assert {line.addr: line.state for line in array.iter_valid()} == model
            assert all((addr in array) for addr in model)


class TestOneVictimPickPerFill:
    """Controllers that act on their victim before filling it pass that
    victim to :meth:`CacheArray.fill`, so a miss fill picks once."""

    def test_bounded_cell_picks_once_per_fill(self, monkeypatch):
        from repro import SystemConfig, build_system, get_workload
        from repro.coherence.policies import PRESETS

        picks: dict[int, int] = {}
        fills: dict[int, int] = {}
        choose_victim, fill = CacheArray.choose_victim, CacheArray.fill

        def counted_pick(self, *args, **kwargs):
            picks[id(self)] = picks.get(id(self), 0) + 1
            return choose_victim(self, *args, **kwargs)

        def counted_fill(self, *args, **kwargs):
            fills[id(self)] = fills.get(id(self), 0) + 1
            return fill(self, *args, **kwargs)

        monkeypatch.setattr(CacheArray, "choose_victim", counted_pick)
        monkeypatch.setattr(CacheArray, "fill", counted_fill)
        system = build_system(SystemConfig.bounded(policy=PRESETS["sharers"]))
        result = system.run_workload(get_workload("cedd"), scale=0.5)
        assert result.ok
        arrays = {
            "l2": [pair.l2 for pair in system.corepairs],
            "tcc": [tcc.array for tcc in system.tccs],
            "tcp": [cu.tcp for cu in system.cus],
            "dir": [bank.dir_cache for bank in system.directories],
        }
        for kind, members in arrays.items():
            filled = sum(fills.get(id(a), 0) for a in members)
            picked = sum(picks.get(id(a), 0) for a in members)
            assert filled > 0, kind
            assert picked == filled, (kind, picked, filled)
        system.close()
