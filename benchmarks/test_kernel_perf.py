"""Kernel microbenchmark suite (perf trajectory).

Times the simulation kernel — raw event-queue dispatch, pooled memory
churn, the fabric message path (flat, contended and bounded), one real
figure-pipeline cell, paper-geometry system construction, and a fresh
interpreter's import cost (reported, not gated) — and emits
``BENCH_kernel.json`` at the repo root (override with ``$REPRO_BENCH_OUT``).
The committed ``BENCH_kernel.json`` is the perf-trajectory baseline; the CI
perf-smoke job re-runs this suite and fails on a >30% calibrated
throughput regression (see ``benchmarks/kernel_perf.py --gate``).

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workloads but
exercises the same code paths.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from kernel_perf import (  # noqa: E402
    REPO_ROOT,
    format_cold_start,
    format_rate,
    gate,
    run_suite,
)

_QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


@pytest.fixture(scope="module")
def report() -> dict:
    result = run_suite(quick=_QUICK, repeats=2 if _QUICK else 3)
    out = pathlib.Path(os.environ.get("REPRO_BENCH_OUT",
                                      REPO_ROOT / "BENCH_kernel.json"))
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nkernel perf report written to {out}")
    for name, bench in result["benchmarks"].items():
        print(f"  {format_rate(name, bench)}")
    print(f"  {format_cold_start(result['cold_start'])}")
    return result


def test_event_queue_throughput_is_sane(report):
    bench = report["benchmarks"]["event_queue"]
    assert bench["events"] > 0
    # even a slow CI box dispatches well over 100k closure events/sec
    assert bench["events_per_sec"] > 100_000


def test_network_path_throughput_is_sane(report):
    bench = report["benchmarks"]["network"]
    assert bench["messages"] > 0
    assert bench["messages_per_sec"] > 10_000
    # every message costs exactly two events: delivery + serialized handling
    assert bench["events"] == pytest.approx(2 * bench["messages"], rel=0.01)


def test_contended_network_path_throughput_is_sane(report):
    bench = report["benchmarks"]["network_contended"]
    assert bench["messages"] > 0
    assert bench["messages_per_sec"] > 5_000
    # port serialization + WRR arbitration add events per message
    # (arrival, grant-completion, delivery, handling) on the dir-bound leg
    assert bench["events"] > 2 * bench["messages"]


def test_bounded_network_path_parks_and_unblocks(report):
    bench = report["benchmarks"]["network_bounded"]
    assert bench["messages"] > 0
    assert bench["messages_per_sec"] > 5_000
    # one input-queue slot and four messages in flight: senders park on
    # the full port (and every park ends in an unblock, or the run stalls)
    assert bench["credit_blocks"] > bench["messages"] // 10
    assert bench["events"] > 2 * bench["messages"]


def test_figure_slice_runs_and_reports_events(report):
    bench = report["benchmarks"]["figure_slice"]
    assert bench["ok"], "figure-pipeline cell failed its functional checks"
    assert bench["events"] > 1_000
    assert bench["simulated_ticks"] > 0
    assert bench["network_messages"] > 0


def test_paper_build_times_both_presets(report):
    bench = report["benchmarks"]["paper_build"]
    assert bench["presets"] == ["baseline", "sharers"]
    assert bench["builds"] == 2
    assert bench["builds_per_sec"] > 0


def test_cold_start_is_reported_but_not_gated(report):
    bench = report["cold_start"]
    assert bench["median_ms"] > 0
    assert bench["peak_rss_mb"] > 0
    assert bench["modules"] > 0
    assert "cold_start" not in report["benchmarks"]
    slower = json.loads(json.dumps(report))
    slower["cold_start"]["median_ms"] *= 10
    assert gate(slower, report) == []


def test_report_is_gateable(report):
    """The emitted report must round-trip through the CI perf gate."""
    assert gate(report, report) == []  # identical report always passes
    slower = json.loads(json.dumps(report))
    for bench in slower["benchmarks"].values():
        bench["calibrated_score"] *= 0.5  # a 2x regression must fail
    assert gate(slower, report) != []
