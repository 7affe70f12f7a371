"""Reference-count audit: a finished, closed system is no cyclic garbage.

Every built system is one big object graph whose parts point back at each
other (components at the simulator and the network, the network at every
endpoint's ``deliver``, the coherence monitor at the system).  Left alone,
nothing a run builds is freed until the cyclic collector finds it, and the
collector's passes cost the short litmus runs a quarter of their host
time.  :meth:`ApuSystem.close` breaks those edges at the run boundaries
(``run_litmus``, ``run_cell_inline``), so a finished run is freed by
reference count.  This audit pins that: after a warm-up run and a collect,
one more run with the collector off must leave ``gc.collect() == 0``,
also for a run that crashed or was cut off with transactions in flight.

It also pins what a closed system still answers, and that library code
never tunes the collector instead (GC-off is the upper bound, not the fix).
"""

from __future__ import annotations

import ast
import gc
from collections import Counter
from pathlib import Path

import pytest

from repro import PRESETS, SystemConfig, build_system, get_workload
from repro.runner.cells import Cell
from repro.runner.executor import run_cell_inline
from repro.verify.litmus import Schedule, get_litmus, run_litmus
from repro.verify.litmus.schedule import variant_of
from tests.sim.test_alloc_audit import _build_fabric, _Msg

SRC = Path(__file__).resolve().parents[2] / "src"


def _cyclic_garbage(run) -> tuple[int, Counter]:
    """Run ``run`` once to warm module-level caches, collect, then run it
    again with the collector off; returns what ``gc.collect()`` then finds,
    and the type counts of that garbage (for the failure message)."""
    run()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        return found, Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _wrap_run_workload(system) -> None:
    """A post-build hook that wraps ``run_workload`` in a closure over the
    system, the way a benchmark harness captures a run's result."""
    run_workload = system.run_workload

    def run_and_capture(*args, **kwargs):
        result = run_workload(*args, **kwargs)
        assert system.sim.events.executed_events > 0
        return result

    system.run_workload = run_and_capture


def _assert_no_cycles(run) -> None:
    found, kinds = _cyclic_garbage(run)
    assert found == 0, f"{found} objects of cyclic garbage: {kinds.most_common(12)}"


def test_litmus_run_leaves_no_cyclic_garbage():
    def run():
        outcome = run_litmus(get_litmus("mp"), policy_name="sharers",
                             schedule=Schedule(3),
                             mutate_system=_wrap_run_workload)
        assert outcome.ok, outcome.describe()

    _assert_no_cycles(run)


def test_flat_figure_cell_leaves_no_cyclic_garbage():
    cell = Cell(workload="bs",
                config=SystemConfig.benchmark(policy=PRESETS["sharers"]),
                scale=0.1)
    _assert_no_cycles(lambda: run_cell_inline(cell))


def test_bounded_cell_with_watchdog_leaves_no_cyclic_garbage():
    config = SystemConfig.bounded(policy=PRESETS["sharers"],
                                  watchdog_window_cycles=2_000.0)
    cell = Cell(workload="tq", config=config, scale=0.1)

    def run():
        result = run_cell_inline(cell)
        assert result.stats["watchdog.checks"] > 0

    _assert_no_cycles(run)


def test_bounded_litmus_run_leaves_no_cyclic_garbage():
    # the bounded rotation slot: credits, WRR input ports, a watchdog
    schedule = variant_of(4).schedule(4)
    assert schedule.input_queue_depth

    def run():
        outcome = run_litmus(get_litmus("bp_store_store"), schedule=schedule,
                             mutate_system=_wrap_run_workload)
        assert outcome.ok, outcome.describe()

    _assert_no_cycles(run)


def test_fabric_stopped_mid_flight_is_freed_by_close():
    # a crashed run stops with events in the heap and messages queued on
    # credit-blocked output ports; both point back at the endpoints
    def run():
        sim, network = _build_fabric(input_queue_depth=1)
        for _ in range(4):
            network.send(_Msg("a", "b"))
        sim.events.run(until=sim.now + 10_000)
        assert len(sim.events)
        assert any(out.queue for out in network._out_ports.values())
        sim.close()
        network.close()

    _assert_no_cycles(run)


@pytest.mark.parametrize("name", ["mp", "sb", "iriw", "atomic_chain"])
def test_litmus_run_cut_off_mid_flight_is_freed_by_close(name):
    # the event backstop stops the run with misses outstanding: CorePair
    # MSHRs still hold the cores' ``_advance`` callbacks, the cores their
    # suspended programs, and (atomic_chain) the GPU queued workgroups'
    # completion callbacks
    def run():
        outcome = run_litmus(get_litmus(name), max_events=60)
        assert outcome.failure_kind == "crash", outcome.describe()

    _assert_no_cycles(run)


def _crash_directories(system) -> None:
    def handle_message(msg):
        raise RuntimeError("injected directory fault")

    for directory in system.directories:
        directory.handle_message = handle_message


def test_litmus_run_whose_directory_raises_is_freed_by_close():
    def run():
        outcome = run_litmus(get_litmus("mp"), policy_name="sharers",
                             mutate_system=_crash_directories)
        assert outcome.failure_kind == "crash", outcome.describe()
        assert "injected directory fault" in outcome.messages[0]

    _assert_no_cycles(run)


def _answers(system) -> dict:
    lines = {}
    arrays = {"tcc": system.tcc.array, "llc": system.llc.array}
    arrays.update({cp.name: cp.l2 for cp in system.corepairs})
    for name, array in arrays.items():
        lines[name] = sorted((view.addr, str(view.state), view.dirty)
                             for view in array.iter_valid())
    addrs = sorted({addr for rows in lines.values() for addr, _s, _d in rows})
    assert addrs, "the workload left no cached line to inspect"
    return {
        "stats": system.all_stats(),
        "dump": system.dump_stats(),
        "words": [system.coherent_word(addr + 4) for addr in addrs],
        "entries": [tuple(map(str, system.directory.snapshot_entry(addr)))
                    for addr in addrs],
        "lines": lines,
        "now": system.sim.now,
        "events": system.sim.events.executed_events,
    }


def test_closed_system_stays_inspectable():
    system = build_system(SystemConfig.small(policy=PRESETS["sharers"]))
    result = system.run_workload(get_workload("bs"), scale=0.25, verify=True)
    assert result.ok
    before = _answers(system)
    system.close()
    assert _answers(system) == before
    system.close()  # a second close is harmless
    assert _answers(system) == before
    assert system.sim.components == [] and system.network._endpoints == {}


def test_close_drops_attributes_a_hook_set():
    system = build_system(SystemConfig.small())
    _wrap_run_workload(system)
    assert "run_workload" in vars(system)
    system.close()
    assert "run_workload" not in vars(system)
    assert system.run_workload.__func__ is type(system).run_workload


def test_src_never_tunes_the_collector():
    banned = {"disable", "freeze", "set_threshold"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = {alias.name for alias in node.names}
                if names & banned:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, f"library code tunes the cyclic GC: {offenders}"
