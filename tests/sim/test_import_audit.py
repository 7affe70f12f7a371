"""Import audit: a run that uses no store and no pool loads neither.

Most processes that regenerate the paper's figures and litmus sweeps are
short and serial: ``repro run``, ``repro litmus``, each CI job, each
benchmark op loop.  Two stdlib stacks would cost every one of them
memory and start-up time for nothing: ``sqlite3`` (~1.5 MB) is only
needed once a :class:`repro.store.ResultStore` connects, and
``concurrent.futures`` (which brings ``multiprocessing``, ``logging`` and
``socket``, ~2.5 MB) only once :func:`repro.runner.executor.run_pool`
starts a pool.  Both are imported inside the code that uses them.

This audit pins that.  In a fresh interpreter it imports the public
packages, runs one litmus test and resolves one figure cell serially
without a store, then fails if any :data:`HEAVY` module was loaded,
naming the module and the code that imported it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: modules a store-less, pool-less run must never load
HEAVY = ("sqlite3", "_sqlite3", "concurrent.futures", "multiprocessing")

#: runs in the child: a meta-path finder records who first asks for each
#: heavy module (the importing module, and the innermost ``repro`` frame
#: on the stack), then the child exercises the serial paths
_CHILD = textwrap.dedent(
    """
    import sys

    HEAVY = {heavy!r}
    importers = {{}}


    class _Witness:
        def find_spec(self, name, path=None, target=None):
            if name in HEAVY and name not in importers:
                frame = sys._getframe(1)
                while frame.f_code.co_filename.startswith("<frozen"):
                    frame = frame.f_back
                direct = frame.f_globals.get("__name__", "?")
                origin = "?"
                while frame is not None:
                    if frame.f_globals.get("__name__", "").startswith("repro"):
                        origin = (f"{{frame.f_code.co_filename}}:"
                                  f"{{frame.f_lineno}}")
                        break
                    frame = frame.f_back
                importers[name] = f"imported by {{direct}} (via {{origin}})"
            return None


    sys.meta_path.insert(0, _Witness())

    import repro
    import repro.analysis.experiments
    import repro.cli
    import repro.runner
    import repro.store
    import repro.verify.litmus
    from repro import SystemConfig
    from repro.runner import Cell
    from repro.store import resolve_cells
    from repro.verify.litmus import Schedule, get_litmus, run_litmus

    outcome = run_litmus(get_litmus("mp"), policy_name="sharers",
                         schedule=Schedule(1))
    assert outcome.ok, outcome.describe()
    [result] = resolve_cells([Cell("tq", SystemConfig.small(), scale=0.05)],
                             jobs=1)
    assert result.cycles > 0

    for name in HEAVY:
        if name in sys.modules:
            print(f"{{name}}: {{importers.get(name, 'imported at start-up')}}")
    """
).format(heavy=HEAVY)


def test_serial_storeless_run_loads_no_store_or_pool_stack():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert not loaded, (
        "a serial run without a store loaded the store or pool stack; "
        "move the import into the code that uses it:\n" + loaded
    )
