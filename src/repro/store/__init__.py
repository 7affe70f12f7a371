"""Persistent SQLite results store and the one job resolver.

Public surface:

- :class:`ResultStore` — the SQLite-backed store every result lands in
  and every warm query is answered from (``repro store`` administers it).
- :func:`resolve_jobs` — the single path from keyed jobs to results: store
  lookup, in-batch dedup, inline or pool execution, store put.
- :func:`resolve_cells` / :func:`resolve_litmus` — its adapters for
  figure cells and for litmus runs (the fuzz campaign's fan-out path).
- :func:`cell_key` — the content-addressed key (re-exported from the
  runner so store users need one import).
"""

from repro.store.resolve import resolve_cells, resolve_jobs, resolve_litmus
from repro.store.store import (
    DEFAULT_STORE_PATH,
    KIND_CELL,
    KIND_LITMUS,
    ResultStore,
    cell_key,
    default_store_path,
)

__all__ = [
    "DEFAULT_STORE_PATH",
    "KIND_CELL",
    "KIND_LITMUS",
    "ResultStore",
    "cell_key",
    "default_store_path",
    "resolve_cells",
    "resolve_jobs",
    "resolve_litmus",
]
