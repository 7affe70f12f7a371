"""In-process A/B timing of two checkouts on the same figure cells and litmus runs.

Usage, from the root of the checkout under test::

    python3 benchmarks/ab_cells.py --base ../parent-checkout [--rounds 2]

Two long-lived worker subprocesses, one importing ``repro`` from each
checkout's ``src``, run the same op alternately: a figure cell (seed 0,
through ``run_cell_inline``) on the flat or the bounded fabric, or one
litmus run.  Each op runs on both sides back to back, and which side goes
first alternates from op to op, so slow drift of a noisy host lands on
both sides about equally.  Per round and in total the tool prints the
summed host time per group (``flat``, ``bounded``, ``litmus``) and the
base/head ratio: above 1.0 means the head checkout is faster.

The ops run with the cyclic garbage collector as a library user gets it:
no collection is forced between ops, so garbage one op leaves behind is
paid for by whichever op the collector next runs in.  For each side and
group the tool also prints how many gen-0/1/2 collections ran inside the
timed ops and the seconds they took, measured with ``gc.callbacks``
(cProfile spreads that time over whatever function happened to allocate,
so no per-layer profile shows it).  For the litmus group it prints each
side's least-squares fit of op time against the op's executed events: the
intercept (ms) is the fixed cost of one run, the slope (us) the cost of
one simulated event.

Every op's simulated outcome must agree between the two sides (a digest of
ticks and stats for cells; of failure kind, ticks, registers and final
memory for litmus runs): a change meant to be a pure speedup that moves a
simulated result is reported and the tool exits non-zero.

The op list comes from this checkout's ``perfbench/workloads.py`` (the
same 60 cells per fabric and the same 2208 litmus runs as perfbench).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HEAD_ROOT = Path(__file__).resolve().parent.parent

GROUPS = ("flat", "bounded", "litmus")


# -- worker side -------------------------------------------------------------


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class _GcClock:
    """Collections per generation, and seconds spent in them, counted
    through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0
        gc.callbacks.append(self._observe)

    def _observe(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1

    def reading(self) -> list[float]:
        return [*self.collections, self.seconds]


def _worker(src: str) -> None:
    """Serve ops read as JSON lines from stdin; answer on the real stdout."""
    out = sys.stdout
    sys.stdout = sys.stderr  # anything the simulator prints stays off the pipe
    sys.path.insert(0, src)
    import repro
    from repro import PRESETS, SystemConfig
    from repro.runner.cells import Cell
    from repro.runner.executor import run_cell_inline
    from repro.verify.litmus import Schedule, get_litmus, run_litmus

    configs = {"flat": SystemConfig.benchmark, "bounded": SystemConfig.bounded}
    clock = _GcClock()
    out.write(json.dumps({"repro": repro.__file__}) + "\n")
    out.flush()
    for line in sys.stdin:
        op = json.loads(line)
        if op["group"] == "litmus":
            test = get_litmus(op["test"])
            schedule = Schedule.from_json(op["schedule"])
            sims = []
            gc_before = clock.reading()
            start = time.perf_counter()
            outcome = run_litmus(test, policy_name=op["policy"], schedule=schedule,
                                 mutate_system=lambda system: sims.append(system.sim))
            seconds = time.perf_counter() - start
            gc_after = clock.reading()
            events = sims[0].events.executed_events
            digest = _digest(outcome.failure_kind, outcome.ticks,
                             sorted(outcome.regs.items()),
                             sorted((outcome.final_memory or {}).items()))
        else:
            config = configs[op["group"]](policy=PRESETS[op["policy"]])
            cell = Cell(workload=op["workload"], config=config)
            gc_before = clock.reading()
            start = time.perf_counter()
            result = run_cell_inline(cell)
            seconds = time.perf_counter() - start
            gc_after = clock.reading()
            digest = _digest(result.ticks, sorted(result.stats.items()))
            events = 0
        gc_spent = [after - before for before, after in zip(gc_before, gc_after)]
        out.write(json.dumps({"seconds": seconds, "digest": digest,
                              "gc": gc_spent, "events": events}) + "\n")
        out.flush()


# -- controller side ---------------------------------------------------------


class Worker:
    """One long-lived worker process bound to one checkout's ``src``."""

    def __init__(self, label: str, root: Path) -> None:
        src = (root / "src").resolve()
        if not (src / "repro").is_dir():
            raise SystemExit(f"ab_cells: no src/repro under {root}")
        self.label = label
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        hello = json.loads(self.proc.stdout.readline())
        if not Path(hello["repro"]).resolve().is_relative_to(src):
            raise SystemExit(f"ab_cells: {label} imported {hello['repro']}, not {src}")
        self.repro = hello["repro"]

    def run(self, op: dict) -> dict:
        self.proc.stdin.write(json.dumps(op) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab_cells: {self.label} worker died on {op}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def build_ops() -> list[dict]:
    """The perfbench ops of every group, as plain data a worker can run."""
    sys.path.insert(0, str(HEAD_ROOT / "src"))
    sys.path.insert(0, str(HEAD_ROOT / "perfbench"))
    from workloads import FigureWorkload, LitmusWorkload

    from repro import SystemConfig

    ops: list[dict] = []
    for group in GROUPS:
        if group == "litmus":
            ops += [{"group": group, "test": test.name, "policy": policy,
                     "schedule": schedule.to_json()}
                    for test, policy, schedule in LitmusWorkload(0).runs]
        else:
            pairs = FigureWorkload(group, SystemConfig.benchmark, 0).pairs
            ops += [{"group": group, "workload": workload, "policy": policy}
                    for workload, policy in pairs]
    return ops


def _zero_gc() -> dict:
    """Per group and side: gen-0, gen-1, gen-2 collections and seconds."""
    return {group: [[0.0] * 4, [0.0] * 4] for group in GROUPS}


def run_round(base: Worker, head: Worker, ops: list[dict], flip: bool,
              litmus_points: tuple[list, list]) -> tuple[dict, dict, list[str]]:
    """Run every op on both sides, alternating which side goes first; each
    litmus op's ``(events, seconds)`` is appended to ``litmus_points``,
    one list per side."""
    totals = {group: [0.0, 0.0] for group in GROUPS}
    gc_totals = _zero_gc()
    mismatches = []
    for index, op in enumerate(ops):
        if (index % 2 == 0) != flip:
            got_base, got_head = base.run(op), head.run(op)
        else:
            got_head, got_base = head.run(op), base.run(op)
        for side, got in enumerate((got_base, got_head)):
            totals[op["group"]][side] += got["seconds"]
            spent = gc_totals[op["group"]][side]
            for field, value in enumerate(got["gc"]):
                spent[field] += value
            if op["group"] == "litmus":
                litmus_points[side].append((got["events"], got["seconds"]))
        if got_base["digest"] != got_head["digest"]:
            mismatches.append(json.dumps(op, sort_keys=True))
    return totals, gc_totals, mismatches


def format_totals(title: str, totals: dict, counts: dict) -> str:
    lines = [f"{title:<8} {'ops':>5} {'base_s':>8} {'head_s':>8} {'base/head':>9}"]
    for group in GROUPS:
        base_s, head_s = totals[group]
        if counts.get(group):
            lines.append(f"{group:<8} {counts[group]:>5} {base_s:>8.3f} "
                         f"{head_s:>8.3f} {base_s / head_s:>8.3f}x")
    return "\n".join(lines)


def format_gc(totals: dict, gc_totals: dict, counts: dict) -> str:
    """Collections inside the timed ops, and their share of host time."""
    lines = [f"{'gc':<8} {'side':>5} {'gen0':>6} {'gen1':>5} {'gen2':>5} "
             f"{'gc_s':>8} {'share':>6}"]
    for group in GROUPS:
        if not counts.get(group):
            continue
        for side, label in enumerate(("base", "head")):
            gen0, gen1, gen2, seconds = gc_totals[group][side]
            share = 100.0 * seconds / totals[group][side]
            lines.append(f"{group:<8} {label:>5} {gen0:>6.0f} {gen1:>5.0f} "
                         f"{gen2:>5.0f} {seconds:>8.3f} {share:>5.1f}%")
    return "\n".join(lines)


def format_litmus_fit(litmus_points: tuple[list, list]) -> str:
    """Least-squares fit of each side's litmus op time against its executed
    events: the intercept is the fixed cost of a run (build, verify, stats,
    teardown), the slope the cost of one simulated event."""
    lines = [f"{'litmus':<8} {'side':>5} {'fixed_ms':>9} {'us/event':>9} "
             f"{'mean_ms':>8} {'events':>7}"]
    for side, label in enumerate(("base", "head")):
        points = litmus_points[side]
        if len(points) < 2:
            continue
        events = [float(count) for count, _seconds in points]
        seconds = [value for _count, value in points]
        slope, intercept = statistics.linear_regression(events, seconds)
        lines.append(f"{'fit':<8} {label:>5} {intercept * 1e3:>9.3f} "
                     f"{slope * 1e6:>9.2f} {statistics.fmean(seconds) * 1e3:>8.3f} "
                     f"{statistics.fmean(events):>7.1f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)

    ops = build_ops()
    counts = {group: sum(op["group"] == group for op in ops) for group in GROUPS}
    base = Worker("base", args.base)
    head = Worker("head", HEAD_ROOT)
    print(f"base: {base.repro}\nhead: {head.repro}")
    grand = {group: [0.0, 0.0] for group in GROUPS}
    grand_gc = _zero_gc()
    mismatches: list[str] = []
    litmus_points: tuple[list, list] = ([], [])
    try:
        for round_index in range(args.rounds):
            totals, gc_totals, bad = run_round(base, head, ops,
                                               flip=bool(round_index % 2),
                                               litmus_points=litmus_points)
            mismatches += bad
            print(format_totals(f"round {round_index + 1}", totals, counts))
            print(format_gc(totals, gc_totals, counts))
            for group in GROUPS:
                for side in (0, 1):
                    grand[group][side] += totals[group][side]
                    for field in range(4):
                        grand_gc[group][side][field] += gc_totals[group][side][field]
    finally:
        base.close()
        head.close()
    print(format_totals("total", grand, counts))
    print(format_gc(grand, grand_gc, counts))
    print(format_litmus_fit(litmus_points))
    if mismatches:
        print(f"{len(mismatches)} op(s) simulate differently on base and head:")
        for op in mismatches[:10]:
            print(f"  {op}")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        raise SystemExit(main())
