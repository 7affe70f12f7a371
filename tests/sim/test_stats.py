"""Tests for the statistics registry."""

from __future__ import annotations

import pytest

from repro.sim.stats import StatGroup


class TestStatGroup:
    def test_counters_start_at_zero(self):
        group = StatGroup("g")
        assert group["missing"] == 0
        assert group.get("missing", 42) == 42

    def test_inc_creates_and_accumulates(self):
        group = StatGroup("g")
        group.inc("hits")
        group.inc("hits", 4)
        assert group["hits"] == 5

    def test_set_overwrites(self):
        group = StatGroup("g")
        group.inc("x", 10)
        group.set("x", 3)
        assert group["x"] == 3

    def test_children_are_created_lazily_and_cached(self):
        group = StatGroup("parent")
        child = group.child("child")
        assert group.child("child") is child

    def test_total_sums_over_subtree(self):
        root = StatGroup("root")
        root.inc("probes", 1)
        root.child("a").inc("probes", 2)
        root.child("a").child("deep").inc("probes", 4)
        root.child("b").inc("probes", 8)
        assert root.total("probes") == 15

    def test_walk_yields_dotted_names_sorted(self):
        root = StatGroup("root")
        root.inc("z", 1)
        root.inc("a", 2)
        root.child("kid").inc("k", 3)
        names = [name for name, _ in root.walk()]
        assert names == ["root.a", "root.z", "root.kid.k"]

    def test_as_dict(self):
        root = StatGroup("r")
        root.inc("c", 7)
        assert root.as_dict() == {"r.c": 7}

    def test_dump_is_aligned_text(self):
        root = StatGroup("r")
        root.inc("counter", 1)
        root.inc("x", 2)
        dump = root.dump()
        assert "r.counter = 1" in dump
        assert "r.x" in dump

    def test_dump_empty_group(self):
        assert "(no stats)" in StatGroup("empty").dump()

    def test_counters_copy_is_detached(self):
        group = StatGroup("g")
        group.inc("n")
        copy = group.counters()
        copy["n"] = 100
        assert group["n"] == 1


class TestCounterRule:
    """A counter exists once it is incremented; reads never create one."""

    def test_reads_of_missing_names_create_nothing(self):
        group = StatGroup("g")
        group.inc("hits")
        group.child("kid").inc("n")
        before = group.as_dict()
        assert group["missing"] == 0
        assert group.get("missing") == 0
        assert group.total("missing") == 0
        assert "missing" not in group.counters()
        assert group.as_dict() == before

    def test_direct_increment_creates_counter(self):
        group = StatGroup("g")
        group._counters["hits"] += 3
        assert group.as_dict() == {"g.hits": 3}

    def test_direct_increment_colliding_with_child_raises_on_walk(self):
        group = StatGroup("g")
        group.child("requests").inc("n")
        group._counters["requests"] += 1
        with pytest.raises(ValueError, match="collision"):
            group.as_dict()

    def test_empty_child_adds_no_keys(self):
        group = StatGroup("g")
        group.child("ports")
        group.inc("n")
        assert group.as_dict() == {"g.n": 1}


class TestNameCollisions:
    """A counter and a child group sharing a name would produce duplicate
    dotted keys, and ``as_dict()`` would silently drop one of them."""

    def test_counter_then_child_raises(self):
        group = StatGroup("g")
        group.inc("requests")
        with pytest.raises(ValueError, match="collision"):
            group.child("requests")

    def test_child_then_inc_raises(self):
        group = StatGroup("g")
        group.child("requests").inc("n")
        with pytest.raises(ValueError, match="collision"):
            group.inc("requests")

    def test_child_then_set_raises(self):
        group = StatGroup("g")
        group.child("requests")
        with pytest.raises(ValueError, match="collision"):
            group.set("requests", 5)

    def test_as_dict_never_loses_keys(self):
        group = StatGroup("g")
        group.inc("a")
        group.child("b").inc("x")
        group.child("b").inc("y")
        walked = list(group.walk())
        assert len(walked) == len(group.as_dict()) == 3

    def test_existing_child_lookup_still_works(self):
        group = StatGroup("g")
        child = group.child("sub")
        child.inc("n", 2)
        assert group.child("sub") is child
        assert group.as_dict() == {"g.sub.n": 2}
