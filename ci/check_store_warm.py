"""CI check: warm re-queries resolve entirely from the results store.

Runs the figure-slice sweep twice against one fresh store:

- pass 1 (cold) simulates and fills the store — unless the committed
  seed snapshot (``ci/store_seed.jsonl``) is still fresh against the
  current sources, in which case even the first pass is all lookups;
- pass 2 (warm) must perform ZERO simulations (every function through
  which the resolver can simulate is replaced with a tripwire) and
  produce byte-identical stats.

Run from the repo root: ``PYTHONPATH=src python ci/check_store_warm.py``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

from repro.analysis.experiments import ExperimentMatrix, run_figure4
from repro.runner import default_progress, executor
from repro.store import ResultStore
from repro.system.config import SystemConfig

SEED_SNAPSHOT = pathlib.Path(__file__).parent / "store_seed.jsonl"


def figure_slice(store: ResultStore) -> str:
    matrix = ExperimentMatrix(
        config_factory=SystemConfig.small, scale=0.25, jobs=2,
        store=store, progress=default_progress,
    )
    return json.dumps(run_figure4(matrix).series, sort_keys=True)


def forbid_simulation() -> None:
    def boom(*_args, **_kwargs):
        raise AssertionError("warm pass simulated a cell")

    executor.run_jobs = boom
    executor.run_inline = boom
    executor.run_pool = boom
    executor.run_payload = boom
    executor.run_cell_inline = boom


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "store.sqlite"
        if SEED_SNAPSHOT.exists():
            with ResultStore(path) as seeder:
                count = seeder.import_snapshot(SEED_SNAPSHOT)
            print(f"[store-warm] seeded {count} row(s) from {SEED_SNAPSHOT}")

        cold_store = ResultStore(path)
        cold = figure_slice(cold_store)
        print(f"[store-warm] cold pass: {cold_store.hits} hit(s) / "
              f"{cold_store.misses} miss(es)")
        cold_store.close()

        forbid_simulation()
        warm_store = ResultStore(path)
        warm = figure_slice(warm_store)
        print(f"[store-warm] warm pass: {warm_store.hits} hit(s) / "
              f"{warm_store.misses} miss(es)")
        warm_store.close()

        assert warm_store.misses == 0, "warm pass missed the store"
        assert warm_store.hits > 0, "warm pass resolved nothing"
        assert warm == cold, "warm stats diverge from the cold pass"
    print("[store-warm] OK: zero simulations, byte-identical stats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
