"""Parallel experiment runner: cells, their keys, and job execution.

Public surface:

- :class:`Cell` — one (workload, config) simulation.
- :func:`cell_key` — its content-addressed key.
- :func:`run_cell_inline` — run one cell in this process.

Batches of cells resolve through :func:`repro.store.resolve_cells`.
"""

from repro.runner.cache import cell_key, source_digest, workload_token
from repro.runner.cells import Cell
from repro.runner.executor import (
    CellError,
    CellTimeout,
    default_progress,
    effective_jobs,
    run_cell_inline,
)

__all__ = [
    "Cell",
    "CellError",
    "CellTimeout",
    "cell_key",
    "default_progress",
    "effective_jobs",
    "run_cell_inline",
    "source_digest",
    "workload_token",
]
