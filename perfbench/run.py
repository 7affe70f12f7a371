"""The repo benchmark: host time of the figure cells and the litmus sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures_flat --seed 0 --seconds 55 --trace 0

``--workload all`` (the default) runs every workload serially in this
process.  One client drives a closed loop: each op starts when the
previous one finished, serially, with no results store, so every op is a
cold simulation.  ``--trace 0`` reports the end-to-end metrics of an
untraced timed run; ``--trace 1`` reports per-layer metrics from a
profiled run over the first ``TRACE_OPS`` ops.  The last line of output
is one JSON object.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups timed per run, each in a fresh interpreter, half before and
#: half after the timed loop so they sample two moments of a noisy host;
#: their median is setup_s
SETUP_PROBES = 6
#: ops in a traced run (capped at one pass)
TRACE_OPS = 600
#: ``op_tail_ms`` is the highest percentile with this many samples beyond it
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MB", "sim_kcycles": "kcycles",
}
#: printed, but not in the JSON: always 0 when correct / figure workloads only
REPORTED_UNITS = {"error_rate": "ratio", "paper_gap_pp": "pp"}


def _import_repro():
    """Import the simulator from this checkout's ``src``, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


class Tally:
    """Per-op bookkeeping: failures, and the first outcome of every op,
    against which later passes must repeat exactly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict = {}

    def record(self, index: int, outcome) -> None:
        self.attempted += 1
        error = outcome.error
        first = self.first.setdefault(index, outcome)
        if error is None and first is not outcome and first.digest != outcome.digest:
            error = f"op {index}: counters differ between passes"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def digest(self) -> str:
        """Digest of every op's simulated counters, in op order."""
        joined = ",".join(self.first[i].digest for i in sorted(self.first))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def simulated(self, workload) -> dict[str, float]:
        """Deterministic simulated metrics over one pass of every op."""
        metrics = {"sim_kcycles": sum(
            outcome.counters.get("cycles", 0) for outcome in self.first.values()
        ) / 1000.0}
        if all(outcome.ok for outcome in self.first.values()):
            metrics.update(workload.simulated(self.first))
        return metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile with
    at least ``TAIL_SAMPLES`` samples beyond it (the median if too few)."""
    ordered = sorted(latencies)
    beyond = min(TAIL_SAMPLES, len(ordered) // 2)
    rank = len(ordered) - beyond
    return 100.0 * rank / len(ordered), ordered[rank - 1], beyond


def time_setups(name: str, seed: int, count: int) -> list[float]:
    """Wall times from starting a fresh interpreter to the point where its
    workload's ops are generated and the first op could run."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {name} failed")
    return samples


def measure(workload, seconds: float) -> tuple[dict, Tally, dict]:
    """The timed closed loop: ops back to back for ``seconds``, then the
    rest of the first pass untimed so simulated metrics cover every op."""
    order = workload.order
    tally = Tally()
    latencies = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    done = 0
    while True:
        index = order[done % len(order)]
        op_start = clock()
        outcome = workload.run_op(index)
        latencies.append(clock() - op_start)
        tally.record(index, outcome)
        done += 1
        if clock() >= deadline:
            break
    elapsed = clock() - start
    for index in order[done:]:
        tally.record(index, workload.run_op(index))
    percentile, tail_s, beyond = tail(latencies)
    metrics = {
        "ops_per_s": done / elapsed,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": tally.failed / tally.attempted,
    }
    notes = {
        "ops_per_s": f"{done} timed ops in {elapsed:.2f} s",
        "op_p50_ms": f"{len(latencies)} samples",
        "op_tail_ms": f"p{percentile:.2f}, {beyond} of {len(latencies)} samples beyond",
        "error_rate": f"{tally.failed} failed of {tally.attempted} attempted",
    }
    return metrics, tally, notes


def trace(workload) -> tuple[dict, Tally, dict]:
    """Per-layer metrics: the first ``TRACE_OPS`` ops run untraced, then
    again under the profiler; host times are per op of the traced run."""
    from layers import CONSTRUCTION, FABRIC, LAYERS, profile_times

    indices = workload.order[:TRACE_OPS]
    tally = Tally()
    start = time.perf_counter()
    for index in indices:
        tally.record(index, workload.run_op(index))
    untraced = time.perf_counter() - start

    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    for index in indices:
        tally.record(index, workload.run_op(index))
    profile.disable()
    traced = time.perf_counter() - start

    ops = len(indices)
    stats = pstats.Stats(profile).stats
    layers, spans = profile_times(stats, workload.builds())
    sums = {}
    for index in indices:
        for key, value in tally.first[index].counters.items():
            sums[key] = sums.get(key, 0) + value
    events = sum(workload.count_events(i, tally.first[i]) for i in indices)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {f"{layer}.self_ms": 1000.0 * layers[layer] / ops for layer in LAYERS}
    metrics.update({f"span.{name}_ms": 1000.0 * span / ops for name, span in spans.items()})
    runner = spans["resolve_cells"] - spans["build_system"] - spans["run_workload"]
    metrics["runner.overhead_ms"] = 1000.0 * runner / ops if spans["resolve_cells"] else 0.0
    metrics["sim.events"] = events / ops
    metrics["sim.host_ns_per_event"] = 1e9 * ratio(untraced, events)
    for key in ("net.messages", "net.bytes", "net.port_wait_ticks",
                "net.arb_wait_ticks", "net.credit_blocks",
                "net.credit_blocked_ticks", "watchdog.trips", "mem.accesses",
                "mem.bank_wait_ticks", "dir.requests", "dir.probes",
                "dir.queue_wait_ticks", "verify.loads_checked",
                "verify.invariant_checks", "litmus.mismatches"):
        metrics[key] = sums[key] / ops
    metrics["mem.row_hit_ratio"] = ratio(sums["mem.row_hits"], sums["mem.row_hits"] + sums["mem.row_misses"])
    metrics["dir.probes_per_request"] = ratio(sums["dir.probes"], sums["dir.requests"])
    metrics["llc.hit_ratio"] = ratio(sums["llc.hits"], sums["llc.hits"] + sums["llc.misses"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)

    total = sum(layers.values())
    notes = {
        "ops": f"{ops} ops, {untraced:.2f} s untraced, {traced:.2f} s traced",
        "shares": ", ".join(
            f"{layer} {100.0 * layers[layer] / total:.1f}%"
            for layer in sorted(LAYERS, key=layers.get, reverse=True)[:6]
        ),
        "construction": f"{100.0 * sum(layers[l] for l in CONSTRUCTION) / total:.1f}% of traced self time",
        "fabric": f"{100.0 * sum(layers[l] for l in FABRIC) / total:.1f}% of traced self time",
    }
    _write_trace(workload, layers, spans, stats, ops)
    return metrics, tally, notes


def _write_trace(workload, layers: dict, spans: dict, stats: dict, ops: int) -> None:
    """Write the traced run's records out once it has ended."""
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:40]
    out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{workload.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed, "ops": ops,
        "self_s": layers, "span_s": spans,
        "top_self_s": [
            {"function": f"{Path(file).name}:{line}:{name}", "calls": calls, "self_s": self_s}
            for (file, line, name), (_cc, calls, self_s, _cum, _callers) in top
        ],
    }, indent=2))


def run_workload(workload, seconds: float, traced: bool) -> dict:
    """Run one workload; print its report block; return its JSON fields."""
    if traced:
        metrics, tally, notes = trace(workload)
    else:
        setups = time_setups(workload.name, workload.seed, SETUP_PROBES // 2)
        measured, tally, notes = measure(workload, seconds)
        setups += time_setups(workload.name, workload.seed, SETUP_PROBES - len(setups))
        measured.update(setup_s=statistics.median(setups), **tally.simulated(workload))
        order = list(END_TO_END_UNITS) + list(REPORTED_UNITS)
        metrics = {key: measured[key] for key in order if key in measured}
        notes["setup_s"] = f"median of {SETUP_PROBES} set-ups"
        notes["sim_kcycles"] = f"one pass of {len(workload.order)} ops"

    print(f"perfbench {workload.name} seed={workload.seed} trace={int(traced)} "
          f"ops/pass={len(workload.order)} digest={tally.digest()}")
    for key, value in metrics.items():
        unit = END_TO_END_UNITS.get(key) or REPORTED_UNITS.get(key) or _layer_unit(key)
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:28s} {value:14.6g} {unit}{note}")
    for key in ("ops", "shares", "construction", "fabric"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    for error in tally.errors:
        print(f"  FAILED: {error}")

    if traced:
        reported = {key: {"value": value, "unit": _layer_unit(key)}
                    for key, value in metrics.items()}
    else:
        reported = {key: {"value": metrics[key], "unit": unit}
                    for key, unit in END_TO_END_UNITS.items()}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": reported}


def _layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms/op"
    if key.endswith("_pct"):
        return "%"
    if key.endswith("_ratio") or key.endswith("_per_request"):
        return "ratio"
    if key.endswith("_per_event"):
        return "ns"
    return "count/op"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "figures_flat", "figures_bounded", "litmus_sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_repro()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {
        name: run_workload(workloads.WORKLOADS[name](args.seed), args.seconds, bool(args.trace))
        for name in names
    }
    if len(reports) == 1:
        [summary] = reports.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{name}.{key}": value for name, r in reports.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
