"""Directory transaction-latency reporting.

The directory records per-request-type completion latency; this module
turns those counters into the average latency that explains *why* an
optimization saved cycles (e.g. owner tracking collapsing RdBlk latency by
eliding the always-missing LLC read).
"""

from __future__ import annotations

from repro.system.apu import SimulationResult


def average_latency(result: SimulationResult, request_type: str) -> float:
    """Average latency (ticks) of one request type across all banks."""
    count = sum(
        v for k, v in result.stats.items()
        if k.endswith(f".txn.{request_type}.count")
    )
    ticks = sum(
        v for k, v in result.stats.items()
        if k.endswith(f".txn.{request_type}.latency_ticks")
    )
    return ticks / count if count else 0.0
