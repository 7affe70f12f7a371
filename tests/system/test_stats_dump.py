"""Tests for the stats dump facility and result aggregation."""

from __future__ import annotations

import pytest

from repro import SystemConfig, build_system, get_workload
from repro.coherence.policies import PRESETS
from repro.verify.litmus import get_litmus, run_litmus


def run_system():
    system = build_system(SystemConfig.small())
    result = system.run_workload(get_workload("bs"), scale=0.25)
    assert result.ok
    return system, result


class TestStatsDump:
    def test_dump_contains_key_counters(self):
        system, _result = run_system()
        text = system.dump_stats()
        assert "dir.requests" in text
        assert "memory.reads" in text
        assert "network.messages" in text
        assert text.startswith("# repro stats dump @ tick")

    def test_dump_writes_file(self, tmp_path):
        system, _result = run_system()
        target = tmp_path / "stats.txt"
        text = system.dump_stats(str(target))
        assert target.read_text() == text

    def test_result_stats_cover_all_components(self):
        _system, result = run_system()
        prefixes = {key.split(".")[0] for key in result.stats}
        # (idle components like the unused DMA engine have no counters yet)
        assert {"dir", "memory", "network", "llc", "tcc0"} <= prefixes
        assert any(key.startswith("l2.") for key in result.stats)
        assert any(key.startswith("cpu") for key in result.stats)
        assert any(key.startswith("cu") for key in result.stats)

    def test_banked_dump_separates_banks(self):
        system = build_system(
            SystemConfig.small(policy=PRESETS["sharers"].named(dir_banks=2))
        )
        result = system.run_workload(get_workload("bs"), scale=0.25)
        assert result.ok
        text = system.dump_stats()
        assert "dir0.requests" in text
        assert "dir1.requests" in text
        assert "bank1.llc" in text


# -- one-pass flattening ------------------------------------------------------


def _walked(group, prefix=""):
    """The generator-chain flattening ``all_stats()`` replaced: own counters
    sorted, then each child's subtree in child-name order."""
    base = f"{prefix}{group.name}"
    for counter, value in sorted(group._counters.items()):
        yield f"{base}.{counter}", value
    for child_name in sorted(group._children):
        yield from _walked(group._children[child_name], prefix=f"{base}.")


def _walked_all_stats(system) -> dict:
    merged = {}
    for component in system.components:
        stats = getattr(component, "stats", None)
        if stats is not None:
            merged.update(dict(_walked(stats)))
    for index, llc in enumerate(system.llcs):
        prefix = "" if index == 0 else f"bank{index}."
        for key, value in dict(_walked(llc.stats)).items():
            merged[f"{prefix}{key}"] = value
    return merged


def _assert_flattening_unchanged(system) -> None:
    flat = system.all_stats()
    assert list(flat.items()) == list(_walked_all_stats(system).items())
    assert len(flat) > 40


class TestOnePassStats:
    """``all_stats()`` fills one dict in one pass; keys, values and key
    order must stay exactly those of the per-group ``walk()`` chain."""

    @pytest.mark.parametrize("config", [
        SystemConfig.benchmark(policy=PRESETS["sharers"]),
        SystemConfig.bounded(policy=PRESETS["sharers"]),
        SystemConfig.small(policy=PRESETS["sharers"].named(dir_banks=2)),
    ], ids=["flat", "bounded", "banked"])
    def test_cell_stats_match_walk_order(self, config):
        system = build_system(config)
        assert system.run_workload(get_workload("bs"), scale=0.1).ok
        _assert_flattening_unchanged(system)

    def test_litmus_stats_match_walk_order(self):
        systems = []
        outcome = run_litmus(get_litmus("mp"), policy_name="sharers",
                             mutate_system=systems.append)
        assert outcome.ok, outcome.describe()
        _assert_flattening_unchanged(systems[0])  # closed, still answers

    def test_collision_still_raises(self):
        system = build_system(SystemConfig.small())
        system.directory.stats._counters["txn"] += 1  # "txn" is a child group
        with pytest.raises(ValueError, match="stat name collision"):
            system.all_stats()
