"""Simulation-kernel microbenchmarks (the perf-trajectory suite).

Timed benchmarks plus a machine-speed calibration score:

- ``event_queue`` — raw :class:`~repro.sim.event_queue.EventQueue`
  throughput: 64 lanes of self-rescheduling callbacks, all with the same
  delay, through the inner ``run()`` loop.
- ``alloc_pooling`` — steady-state banked-memory churn: one fresh access
  record per read or write and stat counters bound at construction (the
  name is kept so committed ``BENCH_kernel.json`` baselines still match).
- ``network`` — two controllers ping-ponging messages across the star
  fabric, exercising ``Network.send``, route accounting, and delivery.
- ``network_contended`` — the same ping-pong on a finite-bandwidth fabric
  (8 bytes/cycle, WRR arbitration at the directory port), exercising the
  output-port serialization and input-arbitration paths.
- ``network_bounded`` — the contended ping-pong under flow control
  (``input_queue_depth=1``, four messages in flight), so senders park on
  a full input port and unblock on the hand-off credit.
- ``figure_slice`` — one real figure-pipeline cell (cedd on the baseline
  policy) timed end-to-end, events/sec taken from the event queue itself.
- ``paper_build`` — ``build_system(SystemConfig())`` at paper geometry
  (Table II) on the baseline and ``sharers`` presets, in builds/sec: the
  construction cost every cell pays before its first event.
- ``calibration`` — a fixed pure-Python integer loop, used to normalize
  events/sec across machines of different speeds (the CI perf gate
  compares *calibrated* ratios, not absolute numbers).
- ``cold_start`` — a fresh interpreter importing ``repro``,
  ``repro.store``, ``repro.runner`` and ``repro.verify.litmus``: the
  median wall time over N runs, the child's peak RSS and its module
  count.  It is reported beside ``benchmarks``, not in it, and is not
  gated: calibration does not cancel interpreter start-up noise.

``run_suite`` returns a JSON-serializable report; ``main`` writes it to
``BENCH_kernel.json`` (or ``--output``).  The committed ``BENCH_kernel.json``
at the repo root is the perf-trajectory baseline that CI gates against.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coherence.policies import PRESETS  # noqa: E402
from repro.mem.block import ZERO_LINE  # noqa: E402
from repro.mem.main_memory import MainMemory  # noqa: E402
from repro.sim.clock import ClockDomain  # noqa: E402
from repro.sim.component import Controller  # noqa: E402
from repro.sim.event_queue import EventQueue, Simulator  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.system.builder import build_system  # noqa: E402
from repro.system.config import SystemConfig  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

#: bump when a benchmark's definition changes (invalidates old baselines).
#: v2: network_contended added; Network.send gained the shared accounting
#: helper, re-seeding every baseline.
#: v3: calendar event queue became the production kernel;
#: event_queue_calendar (clustered ticks + far-future timers) and
#: alloc_pooling (pooled banked-memory churn) added.
#: v4: the binary heap is the only kernel; event_queue_calendar dropped,
#: network_bounded (credit park/unblock) added.
SUITE_VERSION = 4


# -- calibration -----------------------------------------------------------


def calibration_score(loops: int = 2_000_000) -> float:
    """Machine-speed proxy: fixed integer-arithmetic loop, ops/sec."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 0xFFFF
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return loops / elapsed


# -- raw event-queue throughput -------------------------------------------


def bench_event_queue(num_events: int = 200_000) -> dict:
    """Self-rescheduling callbacks through ``EventQueue.run``."""
    queue = EventQueue()
    remaining = [num_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            queue.schedule_after(7, tick)

    # A modest standing population keeps the heap realistically deep; the
    # lanes share one delay, so same-tick clusters form as in real runs.
    for lane in range(64):
        queue.schedule(lane + 1, tick)
    start = time.perf_counter()
    queue.run()
    elapsed = time.perf_counter() - start
    executed = queue.executed_events
    return {
        "events": executed,
        "seconds": elapsed,
        "events_per_sec": executed / elapsed,
    }


# -- banked-memory churn -----------------------------------------------------


def bench_alloc_pooling(num_accesses: int = 60_000) -> dict:
    """Steady-state banked-memory read/write churn.

    Four independent streams (two traffic classes across four banks) chase
    their own reads and writes back-to-back; every access builds a fresh
    ``_Access`` record and increments counters bound at construction.
    """
    sim = Simulator()
    clock = ClockDomain("bench", 1e9)
    memory = MainMemory(
        sim, clock, latency_cycles=20.0, gap_cycles=2.0,
        num_banks=4, row_bytes=256,
        arb_weights={"cpu": 4, "gpu": 2},
    )
    memory.set_classifier(lambda name: "cpu" if name.startswith("c") else "gpu")
    remaining = [num_accesses]

    def make_stream(source: str, base: int):
        addr = [base]
        # one line value per stream, stamped with the stream's base
        line = ZERO_LINE.with_word(0, base | 1)

        def next_access(_data=None) -> None:
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            addr[0] = base + (addr[0] + 64) % 8192
            if remaining[0] % 3:
                memory.read(addr[0], next_access, source=source)
            else:
                memory.write(addr[0], line, source=source)
                memory.read(addr[0], next_access, source=source)

        return next_access

    streams = [make_stream(src, base) for src, base in
               [("c0", 0), ("c1", 1 << 20), ("g0", 2 << 20), ("g1", 3 << 20)]]
    start = time.perf_counter()
    for stream in streams:
        stream()
    sim.events.run()
    elapsed = time.perf_counter() - start
    events = sim.events.executed_events
    return {
        "accesses": num_accesses - remaining[0],
        "events": events,
        "seconds": elapsed,
        "events_per_sec": events / elapsed,
    }


# -- network send/deliver path --------------------------------------------


class _PingPong(Controller):
    """Echoes every message back to its source until the budget runs out."""

    def __init__(self, sim, name, clock, network):
        super().__init__(sim, name, clock, service_cycles=1.0)
        self.network = network
        self.budget = 0

    def handle_message(self, msg) -> None:
        if self.budget <= 0:
            return
        self.budget -= 1
        msg.src, msg.dst = msg.dst, msg.src
        self.network.send(msg)


class _BenchMsg:
    """Minimal duck-typed fabric message (src/dst/category/size_bytes)."""

    __slots__ = ("src", "dst", "category", "size_bytes")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.category = "request"
        self.size_bytes = 8


def _run_ping_pong(num_messages: int, link_bytes_per_cycle: int = 0,
                   input_queue_depth: int = 0, in_flight: int = 1) -> dict:
    sim = Simulator()
    clock = ClockDomain("bench", 1e9)
    network = Network(
        sim, clock, default_latency_cycles=10.0,
        link_bytes_per_cycle=link_bytes_per_cycle,
        arb_weights={"cpu": 4, "gpu": 2, "dma": 1},
        input_queue_depth=input_queue_depth,
    )
    a = _PingPong(sim, "a", clock, network)
    b = _PingPong(sim, "b", clock, network)
    network.attach(a, "l2")
    network.attach(b, "dir")
    network.set_latency("l2", "dir", 6.0)
    a.budget = num_messages // 2
    b.budget = num_messages - num_messages // 2
    start = time.perf_counter()
    for _ in range(in_flight):
        network.send(_BenchMsg("a", "b"))
    sim.events.run()
    elapsed = time.perf_counter() - start
    sent = int(network.stats["messages"])
    report = {
        "messages": sent,
        "events": sim.events.executed_events,
        "seconds": elapsed,
        "messages_per_sec": sent / elapsed,
        "events_per_sec": sim.events.executed_events / elapsed,
    }
    if input_queue_depth:
        report["credit_blocks"] = int(sum(
            value for key, value in network.stats.child("ports").as_dict().items()
            if key.endswith(".credit_blocks")
        ))
    return report


def bench_network(num_messages: int = 100_000) -> dict:
    """Ping-pong messages across the fabric between two controllers."""
    return _run_ping_pong(num_messages)


def bench_network_contended(num_messages: int = 100_000) -> dict:
    """The same ping-pong on a finite-bandwidth, WRR-arbitrated fabric.

    Every message crosses the sender's serializing output port and the
    directory-side message additionally crosses the WRR input port — the
    hot path of the contention model."""
    return _run_ping_pong(num_messages, link_bytes_per_cycle=8)


def bench_network_bounded(num_messages: int = 100_000) -> dict:
    """The contended ping-pong under credit flow control.

    One input-queue slot at the directory port and four messages in
    flight: the sender's output port keeps parking on the full port and
    unblocking on the hand-off credit, the bounded fabric's hot path."""
    return _run_ping_pong(num_messages, link_bytes_per_cycle=8,
                          input_queue_depth=1, in_flight=4)


# -- a real figure-pipeline slice -----------------------------------------


def bench_figure_slice(workload: str = "cedd", policy: str = "baseline",
                       scale: float = 1.0) -> dict:
    """One evaluation-matrix cell, timed end-to-end (build excluded)."""
    system = build_system(SystemConfig.benchmark(policy=PRESETS[policy]))
    wl = get_workload(workload)
    start = time.perf_counter()
    result = system.run_workload(wl, seed=0, scale=scale)
    elapsed = time.perf_counter() - start
    events = system.sim.events.executed_events
    return {
        "workload": workload,
        "policy": policy,
        "scale": scale,
        "ok": result.ok,
        "simulated_ticks": result.ticks,
        "events": events,
        "seconds": elapsed,
        "events_per_sec": events / elapsed,
        "network_messages": result.network_messages,
    }


# -- paper-geometry construction ------------------------------------------


def bench_paper_build(presets: tuple[str, ...] = ("baseline", "sharers")) -> dict:
    """Build a paper-geometry system once per preset.

    Each build is timed on its own after a full collection, so freeing the
    previous system's reference cycles never lands inside the timer.
    """
    elapsed = 0.0
    for name in presets:
        config = SystemConfig(policy=PRESETS[name])
        gc.collect()
        start = time.perf_counter()
        build_system(config)
        elapsed += time.perf_counter() - start
    return {
        "presets": list(presets),
        "builds": len(presets),
        "seconds": elapsed,
        "builds_per_sec": len(presets) / elapsed,
    }


# -- interpreter cold start ------------------------------------------------

#: what the child reports: the imports every single-process run pays for
_COLD_START_CHILD = (
    "import json, resource, sys\n"
    "import repro, repro.store, repro.runner, repro.verify.litmus\n"
    "print(json.dumps({'maxrss_kb': resource.getrusage(resource.RUSAGE_SELF)"
    ".ru_maxrss, 'modules': len(sys.modules)}))\n"
)


def bench_cold_start(runs: int = 7) -> dict:
    """Start ``runs`` fresh interpreters that import the public packages.

    Wall time is taken around the whole child (interpreter start-up
    included); peak RSS and the module count come from the child itself.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    seconds = []
    child = {}
    for _ in range(runs):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _COLD_START_CHILD], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        seconds.append(time.perf_counter() - start)
        child = json.loads(out)
    return {
        "runs": runs,
        "median_ms": 1000 * statistics.median(seconds),
        "peak_rss_mb": child["maxrss_kb"] / 1024,
        "modules": child["modules"],
    }


# -- suite ------------------------------------------------------------------

#: the throughput each benchmark is calibrated and gated on (default
#: ``events_per_sec``)
RATE_KEYS = {"paper_build": "builds_per_sec"}


def rate_key(name: str) -> str:
    return RATE_KEYS.get(name, "events_per_sec")


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Run every benchmark ``repeats`` times and keep the best run.

    Best-of-N damps scheduler noise; ``quick`` shrinks the workloads for
    smoke runs (CI, pytest) without changing what is exercised.
    """
    eq_n = 40_000 if quick else 200_000
    net_n = 20_000 if quick else 100_000
    mem_n = 12_000 if quick else 60_000
    # the slice runs full-scale even in quick mode: events/sec at 0.25
    # scale sits systematically ~30% below full scale (fixed warmup
    # amortized over fewer events), which made the quick-mode CI gate
    # borderline against the committed full-mode baseline.
    slice_scale = 1.0

    def best(fn, *args, key: str):
        runs = [fn(*args) for _ in range(repeats)]
        return max(runs, key=lambda r: r[key])

    report = {
        "suite_version": SUITE_VERSION,
        "quick": quick,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "calibration_ops_per_sec": calibration_score(),
        "benchmarks": {
            "event_queue": best(bench_event_queue, eq_n, key="events_per_sec"),
            "alloc_pooling": best(
                bench_alloc_pooling, mem_n, key="events_per_sec",
            ),
            "network": best(bench_network, net_n, key="messages_per_sec"),
            "network_contended": best(
                bench_network_contended, net_n, key="messages_per_sec",
            ),
            "network_bounded": best(
                bench_network_bounded, net_n, key="messages_per_sec",
            ),
            "figure_slice": best(
                bench_figure_slice, "cedd", "baseline", slice_scale,
                key="events_per_sec",
            ),
            "paper_build": best(bench_paper_build, key="builds_per_sec"),
        },
        "cold_start": bench_cold_start(runs=3 if quick else 7),
    }
    cal = report["calibration_ops_per_sec"]
    for name, bench in report["benchmarks"].items():
        bench["calibrated_score"] = bench[rate_key(name)] / cal
    return report


def format_rate(name: str, bench: dict) -> str:
    key = rate_key(name)
    unit = key.removesuffix("_per_sec")
    return (f"{name:<20} {bench[key]:>12,.1f} {unit}/s "
            f"(calibrated {bench['calibrated_score']:.4g})")


def format_cold_start(bench: dict) -> str:
    return (f"{'cold_start':<20} {bench['median_ms']:>12,.1f} ms "
            f"(peak {bench['peak_rss_mb']:.1f} MB, {bench['modules']} modules, "
            f"median of {bench['runs']}; not gated)")


def gate(fresh: dict, baseline: dict, tolerance: float = 0.30) -> list[str]:
    """Compare a fresh report against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  Scores are
    calibration-normalized so a slower CI machine does not trip the gate;
    a benchmark fails when its calibrated throughput drops more than
    ``tolerance`` below the baseline's.
    """
    failures: list[str] = []
    if baseline.get("suite_version") != fresh.get("suite_version"):
        return [
            "suite_version mismatch "
            f"(baseline {baseline.get('suite_version')} vs "
            f"fresh {fresh.get('suite_version')}); re-seed BENCH_kernel.json"
        ]
    for name, base in baseline["benchmarks"].items():
        now = fresh["benchmarks"].get(name)
        if now is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        floor = base["calibrated_score"] * (1.0 - tolerance)
        if now["calibrated_score"] < floor:
            failures.append(
                f"{name}: calibrated score {now['calibrated_score']:.4g} "
                f"< floor {floor:.4g} "
                f"(baseline {base['calibrated_score']:.4g}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernel.json"),
                        help="where to write the report")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--gate", metavar="BASELINE_JSON", default=None,
                        help="compare against a committed baseline report "
                             "and exit non-zero on >30%% regression")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)

    report = run_suite(quick=args.quick, repeats=args.repeats)
    pathlib.Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    for name, bench in report["benchmarks"].items():
        print(format_rate(name, bench))
    print(format_cold_start(report["cold_start"]))
    print(f"report written to {args.output}")

    if args.gate:
        baseline = json.loads(pathlib.Path(args.gate).read_text())
        failures = gate(report, baseline, tolerance=args.tolerance)
        if failures:
            print("\nPERF GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
