"""Short self-test of the benchmark (under a minute on two cores).

    python3 perfbench/selftest.py

For every workload it makes two short benchmark runs and one short
traced run, and checks that every metric named in BENCHMARK.json is
printed, that no op failed (``error_rate`` 0), and that the two runs
give identical simulated digests.  The figure workloads run one full
pass of their cells (the paper-gap metric needs all of them); the litmus
sweep and every traced run use a short prefix of their ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

LITMUS_OPS = 48
TRACE_OPS = 4


def _run(make, seconds: float, traced: bool, ops: int | None) -> tuple[dict, str]:
    workload = make()
    if ops is not None:
        workload.order = workload.order[:ops]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report = run.run_workload(workload, seconds, traced)
    return report, out.getvalue()


def _printed(output: str) -> set[str]:
    return {match.group(1) for match in re.finditer(r"^  (\S+) +\S+ \S+", output, re.M)}


def main() -> int:
    workloads = run._import_repro()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = {
        False: {metric["name"] for metric in spec["end_to_end"]},
        True: {metric["name"] for metric in spec["per_layer"]},
    }
    problems = []
    for name, make_workload in workloads.WORKLOADS.items():
        def make(make_workload=make_workload):
            return make_workload(0)

        litmus_ops = LITMUS_OPS if name == "litmus_sweep" else None
        expected = set(named[False]) | {"error_rate"}
        if name != "litmus_sweep":
            expected.add("paper_gap_pp")
        digests = []
        for _attempt in range(2):
            report, output = _run(make, 0.2, False, litmus_ops)
            digests.append(re.search(r"digest=(\w+)", output).group(1))
            if set(report["metrics"]) != named[False]:
                problems.append(f"{name}: JSON metrics {sorted(report['metrics'])}")
            if missing := expected - _printed(output):
                problems.append(f"{name}: not printed: {sorted(missing)}")
            if report["failed"]:
                problems.append(f"{name}: {report['failed']} failed ops:\n{output}")
        if digests[0] != digests[1]:
            problems.append(f"{name}: digests differ between runs: {digests}")

        report, output = _run(make, 0.0, True, TRACE_OPS)
        if set(report["metrics"]) != named[True]:
            problems.append(f"{name}: traced JSON metrics differ from BENCHMARK.json: "
                            f"{sorted(set(report['metrics']) ^ named[True])}")
        if missing := named[True] - _printed(output):
            problems.append(f"{name}: traced, not printed: {sorted(missing)}")
        if report["failed"]:
            problems.append(f"{name}: traced run, {report['failed']} failed ops:\n{output}")
        print(f"{name}: digest {digests[0]}, checked", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
