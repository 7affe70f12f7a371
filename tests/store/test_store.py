"""Tests for the SQLite results store: round-trips, corrupt-row
tolerance, admin operations (stats/gc/export/import), and
multi-process safety (no torn rows, ever)."""

from __future__ import annotations

import json
import sqlite3
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.coherence.policies import PRESETS
from repro.runner import Cell, cell_key, run_cell_inline
from repro.store import KIND_CELL, KIND_LITMUS, ResultStore
from repro.system.config import SystemConfig


def small_cell(**overrides) -> Cell:
    defaults = dict(
        workload="bs",
        config=SystemConfig.small(policy=PRESETS["baseline"]),
        scale=0.25,
    )
    defaults.update(overrides)
    return Cell(**defaults)


@pytest.fixture
def store(tmp_path) -> ResultStore:
    with ResultStore(tmp_path / "store.sqlite") as store:
        yield store


class TestCellRows:
    def test_miss_then_hit_round_trips_exactly(self, store):
        cell = small_cell()
        key = cell_key(cell)
        assert store.get(key) is None
        result = run_cell_inline(cell)
        store.put(key, cell, result)
        assert store.get(key) == result  # dataclass equality, every field
        assert store.hits == 1 and store.misses == 1 and store.puts == 1

    def test_disabled_store_never_stores(self, tmp_path):
        store = ResultStore(tmp_path / "off.sqlite", enabled=False)
        cell = small_cell()
        store.put(cell_key(cell), cell, run_cell_inline(cell))
        assert store.get(cell_key(cell)) is None
        assert not (tmp_path / "off.sqlite").exists()

    def test_put_is_idempotent_replace(self, store):
        cell = small_cell()
        key = cell_key(cell)
        result = run_cell_inline(cell)
        store.put(key, cell, result)
        store.put(key, cell, result)
        assert len(store) == 1
        assert store.get(key) == result

    def test_clear_removes_everything(self, store):
        for name in ("bs", "tq"):
            cell = small_cell(workload=name)
            store.put(cell_key(cell), cell, run_cell_inline(cell))
        assert len(store) == 2
        assert store.clear() == 2
        assert store.get(cell_key(small_cell())) is None

    def test_kinds_do_not_collide(self, store):
        store.put_row("k", KIND_CELL, workload="w", config={}, result={"a": 1})
        store.put_row("k2", KIND_LITMUS, workload="w", config={},
                      result={"b": 2})
        assert store.get_row("k", KIND_LITMUS) is None
        assert store.get_row("k", KIND_CELL) == {"a": 1}
        assert store.get_row("k2", KIND_LITMUS) == {"b": 2}


class TestCorruptRows:
    def _corrupt(self, store: ResultStore, key: str, payload: str) -> None:
        store.close()
        conn = sqlite3.connect(str(store.path))
        with conn:
            conn.execute("UPDATE results SET result = ? WHERE key = ?",
                         (payload, key))
        conn.close()

    def test_unparsable_row_evicted_as_miss(self, store):
        cell = small_cell()
        key = cell_key(cell)
        store.put(key, cell, run_cell_inline(cell))
        self._corrupt(store, key, "{truncated json")
        assert store.get(key) is None
        assert store.evicted == 1
        # the corrupt row is gone: a rewrite is not shadowed
        result = run_cell_inline(cell)
        store.put(key, cell, result)
        assert store.get(key) == result

    def test_decodable_but_wrong_shape_evicted(self, store):
        cell = small_cell()
        key = cell_key(cell)
        store.put(key, cell, run_cell_inline(cell))
        self._corrupt(store, key, json.dumps({"not": "a result"}))
        assert store.get(key) is None
        assert store.evicted == 1
        assert len(store) == 0


class TestAdmin:
    def test_stats_counts_rows_and_freshness(self, store):
        cell = small_cell()
        store.put(cell_key(cell), cell, run_cell_inline(cell))
        store.put_row("stale", KIND_CELL, workload="w", config={},
                      result={"x": 1}, source="an-old-digest")
        stats = store.stats()
        assert stats["rows"] == 2
        assert stats["by_kind"] == {"cell": 2}
        assert stats["fresh_rows"] == 1 and stats["stale_rows"] == 1
        assert stats["bytes"] > 0

    def test_gc_reclaims_stale_rows_only(self, store):
        cell = small_cell()
        key = cell_key(cell)
        store.put(key, cell, run_cell_inline(cell))
        store.put_row("stale", KIND_CELL, workload="w", config={},
                      result={"x": 1}, source="an-old-digest")
        assert store.gc() == 1
        assert store.get(key) is not None  # fresh row survives

    def test_gc_older_than_drops_aged_fresh_rows(self, store, monkeypatch):
        cell = small_cell()
        key = cell_key(cell)
        store.put(key, cell, run_cell_inline(cell))
        future = time.time() + 1e9
        monkeypatch.setattr(time, "time", lambda: future)
        assert store.gc(older_than_s=3600) == 1
        assert len(store) == 0

    def test_export_import_round_trip(self, store, tmp_path):
        cells = [small_cell(workload=name) for name in ("bs", "tq")]
        results = [run_cell_inline(cell) for cell in cells]
        for cell, result in zip(cells, results):
            store.put(cell_key(cell), cell, result)
        snapshot = tmp_path / "snap.jsonl"
        assert store.export_snapshot(snapshot) == 2
        store.clear()
        assert store.import_snapshot(snapshot) == 2
        for cell, result in zip(cells, results):
            assert store.get(cell_key(cell)) == result

    def test_export_is_deterministic(self, store, tmp_path):
        for name in ("tq", "bs"):
            cell = small_cell(workload=name)
            store.put(cell_key(cell), cell, run_cell_inline(cell))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        store.export_snapshot(a)
        time.sleep(0.01)  # created timestamps differ; exports must not
        store.export_snapshot(b)
        assert a.read_bytes() == b.read_bytes()

    def test_import_skips_corrupt_lines(self, store, tmp_path):
        cell = small_cell()
        store.put(cell_key(cell), cell, run_cell_inline(cell))
        snapshot = tmp_path / "snap.jsonl"
        store.export_snapshot(snapshot)
        snapshot.write_text("not json\n" + snapshot.read_text() + "{}\n")
        store.clear()
        assert store.import_snapshot(snapshot) == 1
        assert store.get(cell_key(cell)) is not None


# -- multi-process safety (module-level helpers: must pickle) ------------

def _hammer_writes(path: str, tag: int, rounds: int) -> int:
    """Repeatedly overwrite one key with a self-consistent payload."""
    store = ResultStore(path)
    for round_no in range(rounds):
        store.put_row(
            "contended-key", KIND_CELL, workload="w", config={},
            result={"tag": tag, "round": round_no, "fill": [tag] * 64},
        )
    store.close()
    return rounds


def _hammer_reads(path: str, deadline_s: float) -> int:
    """Read the contended key until the deadline; any torn row raises."""
    store = ResultStore(path)
    seen = 0
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        row = store.get_row("contended-key", KIND_CELL)
        if row is None:
            continue  # not written yet: a miss, never a partial row
        assert set(row) == {"tag", "round", "fill"}, f"torn row: {row}"
        assert row["fill"] == [row["tag"]] * 64, f"torn row: {row}"
        seen += 1
    store.close()
    return seen


class TestConcurrency:
    def test_two_writers_one_reader_never_torn(self, tmp_path):
        """Two processes overwriting the same key while a reader races
        them: every observed row is one writer's complete payload."""
        path = str(tmp_path / "contended.sqlite")
        ResultStore(path).put_row(  # create the schema up front
            "warmup", KIND_CELL, workload="w", config={}, result={},
        )
        with ProcessPoolExecutor(max_workers=3) as pool:
            reader = pool.submit(_hammer_reads, path, 2.0)
            writers = [pool.submit(_hammer_writes, path, tag, 150)
                       for tag in (1, 2)]
            assert [w.result(timeout=60) for w in writers] == [150, 150]
            assert reader.result(timeout=60) > 0

        store = ResultStore(path)
        final = store.get_row("contended-key", KIND_CELL)
        assert final["fill"] == [final["tag"]] * 64
        assert store.evicted == 0
