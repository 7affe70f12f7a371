"""Command-line interface: ``python -m repro``.

Subcommands:

- ``run`` — run one workload on one policy, print the headline metrics
  (optionally energy breakdown, stats dump, protocol trace tail).
- ``compare`` — run one workload across several policies, print a table.
- ``figures`` — regenerate the paper's figures (Figures 4-7 + tables), one
  (``--figure``) or all, over ``--jobs`` workers; with ``--store [DB]``
  warm cells are sub-millisecond store lookups.
- ``store`` — administer the persistent SQLite results store
  (``stats``, ``gc``, ``clear``, ``export``/``import`` snapshots).
- ``lint-protocol`` — statically lint every shipped transition table
  (unhandled pairs, unreachable states, dead transitions).
- ``litmus`` — run the litmus suite across schedules and policy variants
  (``--all``), minimize failures to replayable artifacts (``--minimize``),
  and replay dumped artifacts (``--replay``).
- ``fuzz`` — coverage-guided litmus fuzzing: ``run`` a budgeted campaign,
  ``coverage`` reports per-policy table coverage (with a CI baseline
  gate), ``corpus`` lists/replays/re-minimizes the saved inputs.
- ``list`` — list bundled workloads and policy presets.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.energy import energy_comparison, estimate_energy
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
from repro.analysis.report import format_table
from repro.coherence.policies import PRESETS
from repro.system.builder import build_system
from repro.system.config import SystemConfig
from repro.workloads.registry import available_workloads, get_workload

CONFIGS = {
    "benchmark": SystemConfig.benchmark,
    "small": SystemConfig.small,
    "ryzen": SystemConfig.ryzen_2200g,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_store_option(parser: argparse.ArgumentParser, use: str) -> None:
    """The opt-in ``--store [DB]`` option of every store-backed command."""
    parser.add_argument(
        "--store", nargs="?", const="", default=None, metavar="DB",
        help=f"{use} the results store (default path: "
             ".repro_store.sqlite, or $REPRO_STORE_PATH)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous system coherence reproduction (IISWC 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload on one policy")
    run_p.add_argument("workload", choices=available_workloads())
    run_p.add_argument("--policy", default="baseline", choices=sorted(PRESETS))
    run_p.add_argument("--config", default="benchmark", choices=sorted(CONFIGS))
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--verify", action="store_true",
                       help="attach the invariant monitor and value oracle")
    run_p.add_argument("--energy", action="store_true", help="print energy breakdown")
    run_p.add_argument("--stats", action="store_true", help="dump all counters")
    run_p.add_argument("--trace", type=int, metavar="N", default=0,
                       help="print the last N protocol trace events")
    run_p.add_argument("--config-file", metavar="JSON", default=None,
                       help="load the full SystemConfig from a JSON file "
                            "(overrides --policy/--config)")
    run_p.add_argument("--save-config", metavar="JSON", default=None,
                       help="write the effective SystemConfig to a JSON file")

    cmp_p = sub.add_parser("compare", help="run one workload across policies")
    cmp_p.add_argument("workload", choices=available_workloads())
    cmp_p.add_argument("--policies", nargs="+", default=["baseline", "sharers"],
                       choices=sorted(PRESETS))
    cmp_p.add_argument("--config", default="benchmark", choices=sorted(CONFIGS))
    cmp_p.add_argument("--scale", type=float, default=1.0)
    cmp_p.add_argument("--energy", action="store_true")

    fig_p = sub.add_parser("figures", help="regenerate the paper's figures")
    fig_p.add_argument("--figure", choices=["4", "5", "6", "7", "all"],
                       default="all",
                       help="which figure to regenerate (all = Figures 4-7 "
                            "plus Tables II and III)")
    fig_p.add_argument("--scale", type=float, default=1.0)
    fig_p.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker processes (default: os.cpu_count())")
    fig_p.add_argument("--verify", action="store_true",
                       help="attach the invariant monitor and value oracle")
    fig_p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-cell wall-clock timeout in seconds")
    _add_store_option(fig_p, "serve (workload, policy) cells from")

    prof_p = sub.add_parser(
        "profile",
        help="profile one workload run: cProfile hot functions plus "
             "per-component / per-category event and message accounting",
    )
    prof_p.add_argument("workload", choices=available_workloads())
    prof_p.add_argument("--policy", default="baseline", choices=sorted(PRESETS))
    prof_p.add_argument("--config", default="benchmark", choices=sorted(CONFIGS))
    prof_p.add_argument("--scale", type=float, default=1.0)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative", "ncalls"],
                        help="cProfile sort order")
    prof_p.add_argument("--limit", type=_positive_int, default=20,
                        help="rows per report section")
    prof_p.add_argument("--pstats-out", metavar="FILE", default=None,
                        help="also dump raw cProfile data for snakeviz/pstats")

    lint_p = sub.add_parser(
        "lint-protocol",
        help="statically check every shipped transition table: unhandled "
             "(state, event) pairs, unreachable states, dead transitions",
    )
    lint_p.add_argument("--describe", action="store_true",
                        help="also print each table's declared transitions")

    lit_p = sub.add_parser(
        "litmus",
        help="run coherence litmus tests across schedules and policy "
             "variants; minimize and replay failing traces",
    )
    lit_p.add_argument("tests", nargs="*", metavar="TEST",
                       help="litmus test names (default: the whole suite)")
    lit_p.add_argument("--all", action="store_true",
                       help="run the whole suite (explicit form of the "
                            "no-name default)")
    lit_p.add_argument("--list", action="store_true",
                       help="list registered litmus tests and exit")
    lit_p.add_argument("--schedules", type=_positive_int, default=8,
                       metavar="N", help="explored interleavings per "
                       "(test, policy) pair (default 8)")
    lit_p.add_argument("--policies", nargs="+", default=None, metavar="P",
                       help="policy variants to sweep (default: all 12; "
                            "see --list)")
    lit_p.add_argument("--bounded", action="store_true",
                       help="run every explored schedule on the bounded "
                            "fabric with the liveness watchdog armed "
                            "(the flow-control sweep; default rotation "
                            "includes one bounded slot)")
    lit_p.add_argument("--minimize", action="store_true",
                       help="shrink each failing triple to a minimal "
                            "reproducer and dump a replayable artifact")
    lit_p.add_argument("--artifact-dir", default=".", metavar="DIR",
                       help="where --minimize writes artifacts (default .)")
    lit_p.add_argument("--replay", metavar="JSON", default=None,
                       help="replay a dumped reproducer artifact instead "
                            "of sweeping")
    lit_p.add_argument("--trace", type=int, metavar="N", default=0,
                       help="with --replay: print the last N protocol "
                            "trace events")
    lit_p.add_argument("-v", "--verbose", action="store_true",
                       help="print every (policy, schedule) run")
    _add_store_option(lit_p, "memoize (test, policy, schedule) outcomes in")

    fuzz_p = sub.add_parser(
        "fuzz",
        help="coverage-guided litmus fuzzing: generate random litmus "
             "programs, track protocol-table coverage, keep a minimized "
             "corpus",
    )
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command", required=True)

    frun_p = fuzz_sub.add_parser(
        "run", help="run a budgeted coverage-guided campaign"
    )
    frun_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    frun_p.add_argument("--budget", type=_positive_int, default=2000,
                        help="(litmus, policy, schedule) runs to spend "
                             "(default 2000)")
    frun_p.add_argument("--policies", nargs="+", default=None, metavar="P",
                        help="policy variants to sweep (default: "
                             "baseline, owner, sharers)")
    frun_p.add_argument("--corpus", default=".repro_fuzz", metavar="DIR",
                        help="corpus directory (default .repro_fuzz)")
    frun_p.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes (default: os.cpu_count())")
    frun_p.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-run wall-clock timeout in seconds")
    frun_p.add_argument("--min-runs", type=_positive_int, default=None,
                        metavar="N", help="shrink budget per corpus entry")
    frun_p.add_argument("--target", action="append", default=None,
                        metavar="TABLE:STATE:EVENT",
                        help="directed mode: bias generation toward this "
                             "(table, state, event) row (repeatable); see "
                             "`repro fuzz coverage --policy P` for the "
                             "reachable-but-unhit rows")
    _add_store_option(frun_p, "memoize runs (resume support) in")

    fcov_p = fuzz_sub.add_parser(
        "coverage", help="report per-policy table coverage from a corpus"
    )
    fcov_p.add_argument("--corpus", default=".repro_fuzz", metavar="DIR")
    fcov_p.add_argument("--policy", default=None, metavar="P",
                        help="also list the reachable-but-unhit rows of "
                             "one policy")
    fcov_p.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail (exit 1) if coverage regresses below "
                             "the committed baseline JSON")
    fcov_p.add_argument("--json-out", default=None, metavar="FILE",
                        help="also write the canonical report JSON")

    fcorpus_p = fuzz_sub.add_parser(
        "corpus", help="list, replay, or re-minimize corpus entries"
    )
    fcorpus_p.add_argument("action", choices=["list", "replay", "minimize"])
    fcorpus_p.add_argument("digest", nargs="?", default=None,
                           help="entry digest prefix (replay/minimize; "
                                "default: every entry)")
    fcorpus_p.add_argument("--corpus", default=".repro_fuzz", metavar="DIR")

    store_p = sub.add_parser(
        "store",
        help="administer the persistent SQLite results store",
    )
    store_p.add_argument("action",
                         choices=["stats", "gc", "clear", "export", "import"])
    store_p.add_argument("file", nargs="?", default=None,
                         help="snapshot file (export/import)")
    store_p.add_argument("--path", default=None, metavar="DB",
                         help="store location (default: .repro_store.sqlite, "
                              "or $REPRO_STORE_PATH)")
    store_p.add_argument("--kind", default=None,
                         choices=["cell", "litmus"],
                         help="export only rows of this kind")
    store_p.add_argument("--all", action="store_true",
                         help="export stale rows too (default: only rows "
                              "fresh against the current sources)")
    store_p.add_argument("--older-than", type=float, default=None,
                         metavar="S", help="gc: also drop fresh rows older "
                         "than S seconds")

    val_p = sub.add_parser("validate",
                           help="check every headline claim (scorecard)")
    val_p.add_argument("--scale", type=float, default=1.0)

    sub.add_parser("list", help="list workloads and policies")
    return parser


def _run_one(args) -> int:
    if args.config_file:
        from repro.system.serialize import load_config

        config = load_config(args.config_file)
    else:
        config = CONFIGS[args.config](policy=PRESETS[args.policy])
    if args.save_config:
        from repro.system.serialize import save_config

        save_config(config, args.save_config)
    system = build_system(config)
    trace = None
    if args.trace:
        from repro.sim.tracing import ProtocolTrace

        trace = ProtocolTrace().attach_system(system)
    result = system.run_workload(
        get_workload(args.workload), seed=args.seed, scale=args.scale,
        verify=args.verify,
    )
    print(f"workload          {result.workload}")
    print(f"policy            {args.policy}")
    print(f"simulated cycles  {result.cycles:,.0f}")
    print(f"directory probes  {result.dir_probes}")
    print(f"memory accesses   {result.mem_accesses} "
          f"(reads {result.mem_reads}, writes {result.mem_writes})")
    print(f"network           {result.network_messages} msgs, "
          f"{result.network_bytes} bytes")
    print(f"LLC               {result.llc_hits} hits / {result.llc_misses} misses")
    if args.verify:
        status = "PASSED" if result.ok else "FAILED"
        print(f"verification      {status}")
        for error in result.check_errors[:10]:
            print(f"  ! {error}")
    if args.energy:
        print("\nenergy breakdown")
        print(estimate_energy(result).to_text())
    if args.stats:
        print("\nstatistics")
        for key in sorted(result.stats):
            print(f"  {key} = {result.stats[key]}")
    if trace is not None:
        print("\nprotocol trace (tail)")
        print(trace.dump(limit=args.trace))
    return 0 if result.ok else 1


def _compare(args) -> int:
    results = {}
    for policy_name in args.policies:
        system = build_system(CONFIGS[args.config](policy=PRESETS[policy_name]))
        result = system.run_workload(get_workload(args.workload), scale=args.scale)
        system.close()
        if not result.ok:
            print(f"!! {policy_name} failed verification", file=sys.stderr)
        results[policy_name] = result
    baseline = results[args.policies[0]]
    rows = [
        [
            name,
            f"{r.cycles:.0f}",
            f"{r.speedup_over(baseline):+.2f}",
            r.dir_probes,
            r.mem_accesses,
            r.network_messages,
        ]
        for name, r in results.items()
    ]
    print(format_table(
        ["policy", "cycles", "speedup %", "probes", "mem", "msgs"],
        rows,
        title=f"{args.workload} across directory policies",
    ))
    if args.energy:
        print()
        print(energy_comparison(results))
    return 0


def _open_store(args):
    """The results store ``--store`` names, or None when not given."""
    if args.store is None:
        return None
    from repro.store import ResultStore

    return ResultStore(args.store or None)


def _figures(args) -> int:
    import time

    from repro.runner import default_progress

    store = _open_store(args)
    matrix = ExperimentMatrix(
        scale=args.scale,
        verify=args.verify,
        jobs=args.jobs,
        store=store,
        progress=default_progress,
        timeout_s=args.timeout,
    )
    figures = {
        "4": run_figure4,
        "5": run_figure5,
        "6": run_figure6,
        "7": run_figure7,
    }
    if args.figure == "all":
        print(table2_text())
        print()
        print(table3_text())
        selected = list(figures.values())
    else:
        selected = [figures[args.figure]]
    start = time.perf_counter()
    for regenerate in selected:
        figure = regenerate(matrix)
        print("\n" + "=" * 70)
        print(figure.to_text())
        if figure.name == "Figure 5":
            print(f"average reduction: {figure5_reduction(figure):.1f}% [paper: 50.4%]")
    footer = f"\n[figures] {time.perf_counter() - start:.2f}s wall clock"
    if store is not None:
        footer += (f", store: {store.hits} hit(s) / {store.misses} miss(es) "
                   f"at {store.path}")
    print(footer)
    return 0


def _profile(args) -> int:
    """Run one cell under cProfile and print a kernel-centric report."""
    import cProfile
    import io
    import pstats
    import time

    config = CONFIGS[args.config](policy=PRESETS[args.policy])
    system = build_system(config)
    workload = get_workload(args.workload)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = system.run_workload(workload, seed=args.seed, scale=args.scale)
    profiler.disable()
    elapsed = time.perf_counter() - start

    events = system.sim.events.executed_events
    print(f"workload          {result.workload} (policy {args.policy}, "
          f"scale {args.scale})")
    print(f"wall clock        {elapsed:.3f} s")
    print(f"executed events   {events:,}  ({events / elapsed:,.0f} events/s)")
    print(f"simulated ticks   {result.ticks:,} "
          f"({result.cycles:,.0f} cpu cycles)")

    # -- per-category message accounting (from the fabric's own stats) ----
    net = system.network.stats
    total_msgs = net["messages"]
    print(f"\nfabric messages   {int(total_msgs):,} "
          f"({int(net['bytes']):,} bytes)")
    categories = sorted(
        (key.split(".", 1)[1], value)
        for key, value in net.counters().items()
        if key.startswith("messages.")
    )
    for category, count in categories:
        share = 100.0 * count / total_msgs if total_msgs else 0.0
        print(f"  {category:<12} {int(count):>10,}  ({share:5.1f}%)")
    routes = sorted(net.child("routes").counters().items(),
                    key=lambda kv: -kv[1])[:args.limit]
    if routes:
        print("top routes")
        for route, count in routes:
            print(f"  {route:<12} {int(count):>10,}")

    # -- per-component event/message accounting ---------------------------
    rows = []
    for component in system.components:
        stats = getattr(component, "stats", None)
        if stats is None:
            continue
        received = stats["messages_received"]
        waited = stats["queue_wait_ticks"]
        if received or waited:
            rows.append((component.name, int(received), int(waited)))
    rows.sort(key=lambda row: -row[1])
    print("\nbusiest controllers (messages received / queue-wait ticks)")
    for name, received, waited in rows[:args.limit]:
        print(f"  {name:<16} {received:>10,}  {waited:>12,}")

    # -- cProfile hot functions -------------------------------------------
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(args.sort).print_stats(args.limit)
    print(f"\nhot functions (cProfile, by {args.sort})")
    print(buffer.getvalue())
    if args.pstats_out:
        stats.dump_stats(args.pstats_out)
        print(f"raw profile written to {args.pstats_out}")
    return 0 if result.ok else 1


def _lint_protocol(args) -> int:
    from repro.coherence.lint import lint_tables, shipped_tables

    tables = shipped_tables()
    if args.describe:
        for table in dict.fromkeys(tables.values()):
            print(table.describe())
            print()
    text, clean = lint_tables(tables)
    print(text)
    return 0 if clean else 1


def _litmus(args) -> int:
    import os
    import time

    from repro.verify.litmus import (
        POLICY_VARIANTS,
        REGISTRY,
        bounded_schedules,
        default_schedules,
        dump_artifact,
        get_litmus,
        load_artifact,
        minimize_failure,
        replay_artifact,
        run_differential,
    )

    if args.replay:
        recorded = load_artifact(args.replay)["failure"]["kind"]
        outcome = replay_artifact(args.replay, trace=bool(args.trace))
        print(outcome.describe())
        reproduced = outcome.failure_kind == recorded
        print(f"recorded failure kind: {recorded}; "
              f"reproduced: {'yes' if reproduced else 'NO'}")
        if not reproduced and outcome.ok:
            print("(fault-injected artifacts only reproduce under the same "
                  "mutate_system hook — see tests/verify/litmus)")
        if args.trace and outcome.trace_text:
            print("\nprotocol trace (tail)")
            print(outcome.trace_text)
        return 0 if reproduced else 1

    if args.list:
        width = max(len(name) for name in REGISTRY)
        for name, test in REGISTRY.items():
            print(f"  {name:<{width}}  {test.description}")
        print("\npolicy variants:")
        for name in POLICY_VARIANTS:
            print(f"  {name}")
        return 0

    names = args.tests or sorted(REGISTRY)
    tests = [get_litmus(name) for name in names]
    if args.policies:
        unknown = set(args.policies) - set(POLICY_VARIANTS)
        if unknown:
            print(f"unknown policy variants: {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        policies = {name: POLICY_VARIANTS[name] for name in args.policies}
    else:
        policies = POLICY_VARIANTS
    schedules = (
        bounded_schedules(args.schedules) if args.bounded
        else default_schedules(args.schedules)
    )
    store = _open_store(args)

    start = time.perf_counter()
    total_runs = failures = mismatches = 0
    failed_reports = []
    for test in tests:
        report = run_differential(test, policies=policies,
                                  schedules=schedules, store=store)
        total_runs += len(report.outcomes)
        failures += len(report.failures)
        mismatches += len(report.mismatches)
        status = "ok" if report.ok else "FAIL"
        print(f"  {test.name:<26} {len(report.outcomes):>4} runs  {status}")
        if args.verbose:
            for outcome in report.outcomes:
                print(f"    {outcome.describe()}")
        if not report.ok:
            failed_reports.append(report)
            print(report.describe())

    elapsed = time.perf_counter() - start
    print(f"\n[litmus] {len(tests)} tests x {len(policies)} policies x "
          f"{len(schedules)} schedules = {total_runs} runs in {elapsed:.1f}s: "
          f"{failures} failure(s), {mismatches} differential mismatch(es)")
    if store is not None:
        print(f"[litmus] store: {store.hits} warm hit(s), "
              f"{store.puts} new row(s) at {store.path}")

    if failed_reports and args.minimize:
        os.makedirs(args.artifact_dir, exist_ok=True)
        for report in failed_reports:
            fail = next((o for o in report.failures), None)
            if fail is None:
                continue  # mismatch-only report: nothing to shrink
            result = minimize_failure(
                get_litmus(fail.test), fail.policy, fail.schedule
            )
            if result is None:
                print(f"  {fail.test}: failure did not reproduce during "
                      f"minimization (flaky?)")
                continue
            path = os.path.join(
                args.artifact_dir,
                f"litmus-{fail.test}-{fail.policy.replace('+', '_')}.json",
            )
            dump_artifact(result, path)
            print(f"  minimized: {result.describe()}\n  artifact: {path}")
    return 0 if not failed_reports else 1


def _fuzz(args) -> int:
    import os

    from repro.runner.executor import default_progress
    from repro.verify.fuzz.corpus import Corpus, minimize_entry
    from repro.verify.fuzz.coverage import (
        CoverageState,
        check_baseline,
        coverage_report,
        report_json,
        unhit_detail,
    )

    if args.fuzz_command == "run":
        from repro.verify.fuzz.campaign import run_campaign
        from repro.verify.litmus import POLICY_VARIANTS

        if args.policies:
            unknown = set(args.policies) - set(POLICY_VARIANTS)
            if unknown:
                print(f"unknown policy variants: {sorted(unknown)}",
                      file=sys.stderr)
                return 2
        store = _open_store(args)
        kwargs = {}
        if args.min_runs is not None:
            kwargs["minimize_runs"] = args.min_runs
        if args.target:
            targets = []
            for spec in args.target:
                parts = spec.split(":")
                if len(parts) != 3 or not all(parts):
                    print(f"bad --target {spec!r} "
                          "(expected TABLE:STATE:EVENT)", file=sys.stderr)
                    return 2
                targets.append(tuple(parts))
            kwargs["targets"] = targets
        result = run_campaign(
            seed=args.seed,
            budget=args.budget,
            corpus_dir=args.corpus,
            policies=args.policies,
            store=store,
            jobs=args.jobs,
            timeout_s=args.timeout,
            progress=default_progress,
            **kwargs,
        )
        print(result.describe())
        if store is not None:
            print(f"[fuzz] store: {store.hits} warm hit(s), "
                  f"{store.puts} new row(s) at {store.path}")
        return 1 if result.failures else 0

    if args.fuzz_command == "coverage":
        coverage_path = os.path.join(args.corpus, "coverage.json")
        if not os.path.exists(coverage_path):
            print(f"no coverage state at {coverage_path} "
                  "(run `repro fuzz run` first)", file=sys.stderr)
            return 2
        state = CoverageState.load(coverage_path)
        text, data = coverage_report(state)
        print(text)
        if args.policy:
            print()
            print(unhit_detail(data, args.policy))
        if args.json_out:
            with open(args.json_out, "w") as handle:
                handle.write(report_json(data))
        if args.check:
            import json as json_module

            with open(args.check) as handle:
                baseline = json_module.load(handle)
            problems = check_baseline(data, baseline)
            if problems:
                print("\ncoverage regressions against "
                      f"{args.check}:", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                return 1
            print(f"\ncoverage holds the {args.check} baseline")
        return 0

    corpus = Corpus(args.corpus)
    if args.action == "list":
        entries = corpus.entries()
        for entry in entries:
            print(entry.describe())
        print(f"{len(entries)} entries, corpus digest "
              f"{corpus.corpus_digest()}")
        return 0

    digests = (
        [corpus.find(args.digest).digest()] if args.digest
        else corpus.digests()
    )
    status = 0
    for digest in digests:
        entry = corpus.load(digest)
        if args.action == "replay":
            outcome = entry.replay()
            hit = set(entry.new_coverage) <= set(outcome.coverage or ())
            verdict = "rows reproduced" if hit else "ROWS NOT REPRODUCED"
            print(f"{entry.describe()}  -> {('ok' if outcome.ok else outcome.failure_kind)}, {verdict}")
            if not hit or not outcome.ok:
                status = 1
        else:  # minimize
            shrunk = minimize_entry(entry)
            if shrunk.digest() != digest:
                corpus.remove(digest)
                corpus.add(shrunk)
                print(f"{digest[:12]} -> {shrunk.describe()}")
            else:
                print(f"{digest[:12]} already minimal")
    return status


def _store(args) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.path)
    if args.action == "stats":
        stats = store.stats()
        session = stats.pop("session")
        for key, value in stats.items():
            print(f"{key:<12} {value}")
        del session  # freshly opened: all zeros, not informative
        return 0
    if args.action == "gc":
        removed = store.gc(older_than_s=args.older_than)
        print(f"reclaimed {removed} row(s) from {store.path}")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} row(s) from {store.path}")
        return 0
    if args.file is None:
        print(f"store {args.action} needs a file argument", file=sys.stderr)
        return 2
    if args.action == "export":
        count = store.export_snapshot(
            args.file, kind=args.kind, fresh_only=not args.all
        )
        print(f"exported {count} row(s) to {args.file}")
        return 0
    count = store.import_snapshot(args.file)
    print(f"imported {count} row(s) from {args.file} into {store.path}")
    return 0


def _validate(args) -> int:
    from repro.analysis.validate import build_scorecard, scorecard_text

    claims = build_scorecard(ExperimentMatrix(scale=args.scale))
    print(scorecard_text(claims))
    return 0 if all(claim.holds for claim in claims) else 1


def _list() -> int:
    print("workloads:")
    for name in available_workloads():
        workload = get_workload(name)
        print(f"  {name:<6} {workload.description}")
    print("\npolicies:")
    for name, policy in PRESETS.items():
        print(f"  {name:<18} kind={policy.kind.value}, "
              f"llcWB={policy.llc_writeback}, useL3OnWT={policy.use_l3_on_wt}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _run_one(args)
    if args.command == "compare":
        return _compare(args)
    if args.command == "figures":
        return _figures(args)
    if args.command == "profile":
        return _profile(args)
    if args.command == "lint-protocol":
        return _lint_protocol(args)
    if args.command == "litmus":
        return _litmus(args)
    if args.command == "fuzz":
        return _fuzz(args)
    if args.command == "store":
        return _store(args)
    if args.command == "validate":
        return _validate(args)
    return _list()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
