"""SQLite-backed persistent result store.

The store is the single source of truth for simulation results: the
resolver (:mod:`repro.store.resolve`) inserts every fresh figure-cell
and litmus-run result and answers warm queries from it.  Rows are keyed
content-addressed (:func:`repro.runner.cache.cell_key`,
:func:`repro.verify.litmus.harness.litmus_key`) — the full config, the
workload identity, the run parameters, and a digest of the ``repro``
sources — so a hit is bit-identical to a re-run by construction and any
code change invalidates stale rows (they simply never match again;
``gc`` reclaims them).

The store provides:

- one queryable database (``stats``, ``gc``, ``export``/``import`` of
  committable snapshots);
- atomic, crash-safe writes (SQLite transactions — a reader racing a
  writer sees the old or the new complete row, never a torn one);
- corrupt-row tolerance: an unparsable row is evicted and counted as a
  miss instead of raising;
- a second row kind (``litmus``) so litmus outcomes share the same
  persistence and snapshot machinery as simulation cells.

Thread-safe (one connection guarded by a lock) and multi-process-safe
(SQLite file locking with a busy timeout).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.runner.cache import CACHE_VERSION, cell_key, source_digest
from repro.system.apu import SimulationResult
from repro.system.serialize import result_from_dict

if TYPE_CHECKING:
    import sqlite3

#: default database location (override with $REPRO_STORE_PATH)
DEFAULT_STORE_PATH = ".repro_store.sqlite"

#: row kinds the store persists
KIND_CELL = "cell"
KIND_LITMUS = "litmus"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key      TEXT PRIMARY KEY,
    kind     TEXT NOT NULL DEFAULT 'cell',
    workload TEXT NOT NULL,
    config   TEXT NOT NULL,
    scale    REAL NOT NULL DEFAULT 1.0,
    verify   INTEGER NOT NULL DEFAULT 0,
    seed     INTEGER NOT NULL DEFAULT 0,
    result   TEXT NOT NULL,
    source   TEXT NOT NULL,
    created  REAL NOT NULL,
    version  INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
CREATE INDEX IF NOT EXISTS idx_results_source ON results (source);
"""


def default_store_path() -> pathlib.Path:
    return pathlib.Path(os.environ.get("REPRO_STORE_PATH", DEFAULT_STORE_PATH))


class ResultStore:
    """Persistent result store, the backend of :func:`resolve_jobs`.

    Generic ``get_row`` / ``put_row`` serve every row kind; ``get(key)``
    / ``put(key, cell, result)`` are the cell-row shorthands; the admin
    operations sit behind ``repro store``.
    """

    def __init__(self, path: str | os.PathLike | None = None,
                 enabled: bool = True) -> None:
        self.path = pathlib.Path(path if path is not None else default_store_path())
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evicted = 0
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None

    # -- connection management -------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            import sqlite3  # loaded on first connect: a store-less run never pays for it

            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path), timeout=30.0, check_same_thread=False
            )
            conn.execute("PRAGMA busy_timeout = 30000")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
            self._conn = conn
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- generic rows ----------------------------------------------------

    def put_row(self, key: str, kind: str, workload: str, config: dict,
                result: dict, scale: float = 1.0, verify: bool = False,
                seed: int = 0, source: str | None = None) -> None:
        """Insert or replace one row atomically."""
        if not self.enabled:
            return
        with self._lock:
            conn = self._connect()
            with conn:  # one transaction: the row appears complete or not at all
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, kind, workload, config, scale, verify, seed, "
                    " result, source, created, version) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key, kind, workload, json.dumps(config, sort_keys=True),
                     scale, int(verify), seed, json.dumps(result),
                     source if source is not None else source_digest(),
                     time.time(), CACHE_VERSION),
                )
            self.puts += 1

    def get_row(self, key: str, kind: str,
                decode: Callable[[dict], object] | None = None):
        """The ``result`` payload for ``key`` (through ``decode``, if
        given), or None.

        A row that exists but fails to decode is evicted (corrupt-row
        tolerance) and reported as a miss.
        """
        if not self.enabled:
            return None
        with self._lock:
            conn = self._connect()
            row = conn.execute(
                "SELECT result FROM results WHERE key = ? AND kind = ?",
                (key, kind),
            ).fetchone()
            if row is not None:
                try:
                    payload = json.loads(row[0])
                    if not isinstance(payload, dict):
                        raise ValueError("row payload is not an object")
                    if decode is not None:
                        payload = decode(payload)
                except (ValueError, TypeError, KeyError):
                    with conn:
                        conn.execute("DELETE FROM results WHERE key = ?", (key,))
                    self.evicted += 1
                else:
                    self.hits += 1
                    return payload
            self.misses += 1
            return None

    # -- cell rows -------------------------------------------------------

    def get(self, key: str) -> SimulationResult | None:
        return self.get_row(key, KIND_CELL, result_from_dict)

    # -- admin operations (repro store) ----------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._connect().execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]

    def stats(self) -> dict:
        """Row counts by kind plus freshness against the current sources."""
        current = source_digest()
        with self._lock:
            conn = self._connect()
            total = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            by_kind = dict(conn.execute(
                "SELECT kind, COUNT(*) FROM results GROUP BY kind"
            ).fetchall())
            fresh = conn.execute(
                "SELECT COUNT(*) FROM results WHERE source = ?", (current,)
            ).fetchone()[0]
            oldest, newest = conn.execute(
                "SELECT MIN(created), MAX(created) FROM results"
            ).fetchone()
        return {
            "path": str(self.path),
            "rows": total,
            "by_kind": by_kind,
            "fresh_rows": fresh,
            "stale_rows": total - fresh,
            "oldest": oldest,
            "newest": newest,
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
            "session": {"hits": self.hits, "misses": self.misses,
                        "puts": self.puts, "evicted": self.evicted},
        }

    def gc(self, older_than_s: float | None = None) -> int:
        """Drop rows no current query can ever hit.

        Stale rows (inserted under a different source digest) are always
        reclaimed; ``older_than_s`` additionally drops fresh rows older
        than that age.  Returns the number of rows removed.
        """
        current = source_digest()
        with self._lock:
            conn = self._connect()
            with conn:
                cursor = conn.execute(
                    "DELETE FROM results WHERE source != ?", (current,)
                )
                removed = cursor.rowcount
                if older_than_s is not None:
                    cursor = conn.execute(
                        "DELETE FROM results WHERE created < ?",
                        (time.time() - older_than_s,),
                    )
                    removed += cursor.rowcount
            conn.execute("VACUUM")
        return removed

    def clear(self) -> int:
        with self._lock:
            conn = self._connect()
            with conn:
                removed = conn.execute("DELETE FROM results").rowcount
            conn.execute("VACUUM")
        return removed

    def export_snapshot(self, path: str | os.PathLike,
                        kind: str | None = None,
                        fresh_only: bool = True) -> int:
        """Write rows as sorted JSON-lines (committable, diff-stable).

        ``created`` timestamps are excluded so re-exporting identical
        results yields byte-identical snapshots.
        """
        where, args = [], []
        if kind is not None:
            where.append("kind = ?")
            args.append(kind)
        if fresh_only:
            where.append("source = ?")
            args.append(source_digest())
        query = "SELECT key, kind, workload, config, scale, verify, seed, " \
                "result, source, version FROM results"
        if where:
            query += " WHERE " + " AND ".join(where)
        query += " ORDER BY key"
        count = 0
        with self._lock:
            rows = self._connect().execute(query, args).fetchall()
        with open(path, "w") as handle:
            for row in rows:
                record = {
                    "key": row[0], "kind": row[1], "workload": row[2],
                    "config": json.loads(row[3]), "scale": row[4],
                    "verify": bool(row[5]), "seed": row[6],
                    "result": json.loads(row[7]), "source": row[8],
                    "version": row[9],
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                count += 1
        return count

    def import_snapshot(self, path: str | os.PathLike) -> int:
        """Load a snapshot produced by :meth:`export_snapshot`.

        Rows keep their recorded source digest: stale rows import fine
        but never hit, and a later ``gc`` reclaims them.  Corrupt lines
        are skipped, not fatal.
        """
        count = 0
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self.put_row(
                        record["key"], record.get("kind", KIND_CELL),
                        workload=record["workload"],
                        config=record["config"],
                        result=record["result"],
                        scale=record.get("scale", 1.0),
                        verify=record.get("verify", False),
                        seed=record.get("seed", 0),
                        source=record.get("source", ""),
                    )
                    count += 1
                except (ValueError, TypeError, KeyError):
                    continue
        return count

    def __repr__(self) -> str:
        return (
            f"ResultStore({str(self.path)!r}, enabled={self.enabled}, "
            f"hits={self.hits}, misses={self.misses}, puts={self.puts})"
        )


__all__ = [
    "DEFAULT_STORE_PATH",
    "KIND_CELL",
    "KIND_LITMUS",
    "ResultStore",
    "cell_key",
    "default_store_path",
]
