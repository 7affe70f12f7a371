"""Shared fixtures for the figure/table regeneration benchmarks.

Cells resolve through the one job resolver (:mod:`repro.store`): a
session-scoped :class:`ExperimentMatrix` fans cold cells out over a
process pool and persists every result in ``.repro_store.sqlite`` at the
repo root, so a warm re-run of ``pytest benchmarks/`` performs zero
simulations.

Knobs (also see ``--jobs`` / ``--fresh-cache`` pytest options):

- ``REPRO_JOBS=N`` — worker processes (default: ``os.cpu_count()``).
- ``REPRO_NO_CACHE=1`` — disable the persistent store for this session.
- ``REPRO_STORE_PATH`` — store location (default: ``.repro_store.sqlite``).

Every regenerated figure is printed and also written to
``benchmark_results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.experiments import ExperimentMatrix
from repro.runner import default_progress
from repro.store import ResultStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmark_results"
STORE_PATH = REPO_ROOT / ".repro_store.sqlite"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs", type=int, default=None,
        help="worker processes for simulation cells (default: os.cpu_count())",
    )
    parser.addoption(
        "--fresh-cache", action="store_true",
        help="clear the persistent results store before running",
    )


@pytest.fixture(scope="session")
def matrix(request: pytest.FixtureRequest) -> ExperimentMatrix:
    jobs = request.config.getoption("--jobs")
    if jobs is None and os.environ.get("REPRO_JOBS"):
        jobs = int(os.environ["REPRO_JOBS"])
    path = os.environ.get("REPRO_STORE_PATH") or STORE_PATH
    store = ResultStore(path, enabled=not os.environ.get("REPRO_NO_CACHE"))
    if request.config.getoption("--fresh-cache"):
        store.clear()
    return ExperimentMatrix(
        scale=1.0, jobs=jobs, store=store, progress=default_progress
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def save_json(results_dir: pathlib.Path, name: str, figure) -> None:
    (results_dir / f"{name}.json").write_text(figure.to_json() + "\n")
