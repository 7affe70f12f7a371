#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Prints Tables II/III and Figures 4-7 (as text tables plus ASCII bar
charts), with the paper's reported averages alongside the measured ones.

Simulation cells fan out over a process pool (``--jobs``) and results
persist in the results store (``.repro_store.sqlite``, or
``$REPRO_STORE_PATH``), so a second invocation reproduces every figure
without simulating anything (``--no-cache`` opts out).

Run:  python examples/reproduce_paper.py           (full suite, ~1 min cold)
      python examples/reproduce_paper.py --scale 0.5   (faster)
"""

import argparse

from repro.analysis.experiments import (
    ExperimentMatrix,
    figure5_reduction,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    table2_text,
    table3_text,
)
from repro.analysis.report import bar_chart
from repro.runner import default_progress
from repro.store import ResultStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--verify", action="store_true",
                        help="run output verification + invariant monitor")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: os.cpu_count())")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent results store")
    args = parser.parse_args()

    matrix = ExperimentMatrix(
        scale=args.scale,
        verify=args.verify,
        jobs=args.jobs,
        store=None if args.no_cache else ResultStore(),
        progress=default_progress,
    )

    print(table2_text())
    print()
    print(table3_text())

    print("\n" + "=" * 70)
    fig4 = run_figure4(matrix)
    print(fig4.to_text())

    print("\n" + "=" * 70)
    fig5 = run_figure5(matrix)
    print(fig5.to_text())
    print(f"average reduction (llcWB+useL3OnWT): {figure5_reduction(fig5):.1f}%"
          f"  [paper: 50.4%]")

    print("\n" + "=" * 70)
    fig6 = run_figure6(matrix)
    print(fig6.to_text())
    print()
    print(bar_chart(fig6.benchmarks, fig6.series["sharers"],
                    title="Figure 6 (sharers): % saved cycles", unit="%"))

    print("\n" + "=" * 70)
    fig7 = run_figure7(matrix)
    print(fig7.to_text())
    print()
    print(bar_chart(fig7.benchmarks, fig7.series["sharers"],
                    title="Figure 7 (sharers): % fewer probes", unit="%"))


if __name__ == "__main__":
    main()
