"""Per-layer host time from a ``cProfile`` run of the benchmark's ops.

The profiler is attached from the benchmark, around its calls into the
public API, so nothing under ``src/`` changes.  It keeps every record in
memory; the run reduces them to

- **self time per layer**: each function's own time, bucketed by the
  ``repro`` module that defines it.  Time in built-ins (``len``,
  ``heapq.heappush``, ...) and in generated code (dataclass
  ``__init__``) is charged to the layer that called it; everything else
  outside ``repro`` is ``python``.
- **spans**: cumulative time in the public entry points each op crosses.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.store import resolve_cells
from repro.sim.event_queue import Simulator
from repro.system.apu import ApuSystem
from repro.system.builder import build_system
from repro.verify.litmus.harness import run_litmus

REPRO_DIR = Path(repro.__file__).resolve().parent

#: layers reported on their own; other ``repro`` modules fall in ``other``
LAYERS = (
    "system", "mem.cache_array", "coherence.directory_entry",
    "sim.event_queue", "sim.network", "sim.arbiter", "sim.watchdog",
    "sim.component", "sim.stats", "sim.clock", "mem.main_memory", "coherence.directory", "coherence.precise",
    "coherence.engine", "coherence.llc", "cpu", "gpu", "dma", "protocol",
    "workloads", "verify", "other", "python",
)

#: construction planes (litmus-heavy) and the contended fabric
CONSTRUCTION = ("mem.cache_array", "coherence.directory_entry")
FABRIC = ("sim.network", "sim.arbiter")

_PACKAGES_BY_MODULE = ("sim", "mem", "coherence")


def _code_key(function) -> tuple[str, int, str]:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


#: span name -> public entry point whose cumulative time it reports
SPANS = {
    "resolve_cells": _code_key(resolve_cells),
    "build_system": _code_key(build_system),
    "run_workload": _code_key(ApuSystem.run_workload),
    "sim_run": _code_key(Simulator.run),
    "run_litmus": _code_key(run_litmus),
}


def layer_of(filename: str, cache: dict[str, str]) -> str:
    """The layer a source file belongs to, named after its module."""
    layer = cache.get(filename)
    if layer is None:
        try:
            parts = Path(filename).resolve().relative_to(REPRO_DIR).with_suffix("").parts
        except ValueError:
            layer = "python"
        else:
            if parts[0] in _PACKAGES_BY_MODULE and len(parts) > 1:
                layer = f"{parts[0]}.{parts[1]}"
            else:
                layer = parts[0]
            if layer not in LAYERS:
                layer = "other"
        cache[filename] = layer
    return layer


def _charged_to_caller(filename: str) -> bool:
    """Built-ins (``~``) and generated code (``<string>``) have no module."""
    return filename.startswith(("~", "<"))


def profile_times(stats: dict, workload_builds) -> tuple[dict, dict]:
    """Reduce a finished profile's ``pstats.Stats(...).stats`` to (self
    seconds per layer, span seconds).

    ``workload_builds`` are the ``build`` methods of the workloads run;
    their cumulative time is the ``workload_build`` span.
    """
    cache: dict[str, str] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, self_s, _cum, callers) in stats.items():
        if not _charged_to_caller(filename):
            layers[layer_of(filename, cache)] += self_s
            continue
        for (caller_file, _l, _n), edge in callers.items():
            caller = "python" if _charged_to_caller(caller_file) else layer_of(caller_file, cache)
            layers[caller] += edge[2]
    spans = {name: stats[key][3] if key in stats else 0.0 for name, key in SPANS.items()}
    build_keys = {_code_key(build) for build in workload_builds}
    spans["workload_build"] = sum(stats[key][3] for key in build_keys if key in stats)
    return layers, spans
