"""Content-addressed keys for simulation results.

:func:`cell_key` hashes everything that determines a cell's outcome:

- the full :class:`SystemConfig` (including its ``DirectoryPolicy``),
  serialized through :mod:`repro.system.serialize`;
- the workload (registry name, or class + constructor state for ad-hoc
  instances);
- the ``scale`` / ``verify`` / ``seed`` run parameters;
- a digest of every ``repro`` source file, so any code change invalidates
  every stored result rather than serving stale ones.

Because the simulator is deterministic, a result stored under a key is
bit-identical to a re-run; :class:`repro.store.ResultStore` persists
results under these keys, so repeated ``pytest benchmarks/`` or
``examples/reproduce_paper.py`` invocations perform zero simulations
once warm.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.runner.cells import Cell
from repro.system.serialize import config_to_dict

#: bump when the key schema or stored payload layout changes
CACHE_VERSION = 1

_SOURCE_DIGEST: str | None = None


def source_digest() -> str:
    """Digest of every ``repro`` source file (computed once per process)."""
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def workload_token(workload) -> str:
    """A stable identity for a cell's workload.

    Registered benchmarks are identified by name; ad-hoc :class:`Workload`
    instances (microbenchmarks, parameterized variants) by their class and
    constructor state, so two instances with the same parameters share
    stored results.
    """
    if isinstance(workload, str):
        return workload
    state = {key: repr(value) for key, value in sorted(vars(workload).items())}
    return (
        f"{type(workload).__module__}.{type(workload).__qualname__}"
        f":{json.dumps(state, sort_keys=True)}"
    )


def cell_key(cell: Cell) -> str:
    """Content-addressed key for ``cell`` (hex sha256)."""
    payload = {
        "version": CACHE_VERSION,
        "source": source_digest(),
        "workload": workload_token(cell.workload),
        "config": config_to_dict(cell.config),
        "scale": cell.scale,
        "verify": cell.verify,
        "seed": cell.seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
