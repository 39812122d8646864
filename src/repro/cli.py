"""Command-line entry point: experiments and scenario sweeps.

Runs any experiment of the id → runner table
:data:`repro.experiments.EXPERIMENTS` and prints its table, e.g.::

    repro fig3a
    repro abl-rdma --save rdma.json
    repro list

Every subcommand shares one error boundary: a library error
(:class:`~repro.errors.ReproError`) or an I/O error exits 2 with one
``ERROR`` log line instead of a traceback.

The ``scenarios`` subcommand exposes the scenario registry, the sweep
engine with its pluggable backends and sinks, and fault-profile
introspection::

    repro scenarios list
    repro scenarios list --tag resilience
    repro scenarios list --tag family:waxman --tag uniform
    repro scenarios sweep metro-mesh-uniform --set n_locals=3,6,9 \\
        --seeds 0,1 --workers 4 --cache-dir .sweep-cache --save out.json
    repro scenarios sweep metro-mesh-flaky-links --jsonl rows.jsonl
    repro scenarios sweep clos-oversub --set oversubscription=1,2,4 \\
        --sink csv --sink-path rows.csv
    repro scenarios sweep metro-mesh-flaky-links --backend socket \\
        --port 7777 --sink sqlite --sink-path sweep.db
    repro scenarios worker --connect localhost:7777
    repro scenarios sweep fat-tree-uniform --dry-run
    repro scenarios faults metro-mesh-flaky-links --seed 3 --events 10

The ``topologies`` subcommand exposes the topology-family registry —
the generators scenarios build their fabrics from::

    repro topologies list
    repro topologies describe waxman
    repro topologies build multi-metro-wan --set n_regions=2 --seed 3
    repro topologies build clos --set oversubscription=4 --save clos.json

The ``traces`` subcommand synthesises and inspects the per-epoch
traffic traces the ``trace`` workload family replays::

    repro traces synth mawi.json --seed 3 --epochs 48
    repro traces show mawi.json

The ``bench`` subcommand is the unified benchmark harness: it discovers
every registered ``benchmarks/test_bench_*`` suite, runs them with one
command, appends machine-tagged records to ``BENCH_HISTORY.jsonl``,
gates regressions against tracked floors, and renders the trajectory::

    repro bench list
    repro bench run
    repro bench run --smoke --suite scheduler --suite topologies
    repro bench verify
    repro bench report
    repro bench report --suite scheduler

``scenarios sweep`` expands the cross product of every ``--set``
dimension and the seed list over the named scenarios and runs it on the
chosen ``--backend`` — ``serial`` in-process, ``pool`` over
``--workers`` processes, or ``socket``: a work-stealing coordinator
that hands runs to any worker that connects (``--local-workers`` starts
in-process ones; ``scenarios worker --connect HOST:PORT`` joins from
anywhere).  Every backend produces byte-identical rows.  ``--serving``
overrides how workloads are served (one-at-a-time protocol vs full
campaign timeline), ``--cache-dir`` resumes finished runs, and rows
stream to ``--jsonl`` or a ``--sink``/``--sink-path`` pair (``jsonl``,
whole-file ``json``, or a queryable ``sqlite`` store with incremental
aggregates) as runs complete.  ``scenarios faults`` describes a
scenario's fault profile and previews the deterministic fail/repair
timeline it draws for a given seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from . import obs
from .errors import ReproError
from .experiments import EXPERIMENTS

logger = obs.get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the figures and ablations of 'Flexible Scheduling "
            "of Network and Computing Resources for Distributed AI Tasks'."
        ),
        epilog=(
            "The scenario registry and parallel sweep engine live under "
            "'repro scenarios': try 'repro scenarios list' and "
            "'repro scenarios sweep --help'.  The topology-family "
            "registry lives under 'repro topologies': try "
            "'repro topologies list' and 'repro topologies describe "
            "waxman'."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help="experiment id ('repro list' prints them), 'list', or 'all'",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        help="also write the result as JSON to PATH",
    )
    return parser


def build_scenarios_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description="inspect the scenario registry and run parameter sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="print every registered scenario")
    list_cmd.add_argument(
        "--tag",
        dest="tags",
        action="append",
        default=[],
        help=(
            "only scenarios carrying this tag; repeatable (all must "
            "match) — topology families are tags too, e.g. family:waxman"
        ),
    )

    sweep = sub.add_parser(
        "sweep",
        help="expand a parameter grid over scenarios and run it",
        description=(
            "Expands the cross product of every --set dimension and the "
            "seed list over the named scenarios, runs each (scenario, "
            "params, seed) under both schedulers, and prints the collected "
            "rows.  --backend picks where runs execute (serial, a process "
            "pool, or a work-stealing socket coordinator) with "
            "byte-identical results; --cache-dir resumes finished runs; "
            "--sink streams rows to JSONL/JSON/SQLite as runs complete."
        ),
    )
    sweep.add_argument("scenario", nargs="+", help="registered scenario names")
    sweep.add_argument(
        "--set",
        dest="grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="one grid dimension; repeat for the cross product",
    )
    sweep.add_argument(
        "--seeds",
        default="0",
        metavar="S1,S2,...",
        help="comma-separated replication seeds (default: 0)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="process-pool size (default: 1)"
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist per-run results here and resume on rerun",
    )
    sweep.add_argument("--save", metavar="PATH", help="write result JSON to PATH")
    sweep.add_argument(
        "--jsonl",
        metavar="PATH",
        help="append each run's rows to this JSONL file as runs complete",
    )
    sweep.add_argument(
        "--backend",
        choices=("serial", "pool", "socket"),
        help=(
            "execution backend (default: pool when --workers > 1, else "
            "serial); 'socket' starts a work-stealing coordinator that "
            "external 'scenarios worker' processes can join"
        ),
    )
    sweep.add_argument(
        "--serving",
        choices=("protocol", "campaign"),
        help=(
            "override how every run serves its workload: 'protocol' "
            "admits tasks one at a time, 'campaign' plays the full "
            "arrival timeline under contention (default: each "
            "scenario's own mode)"
        ),
    )
    sweep.add_argument(
        "--sink",
        choices=("csv", "json", "jsonl", "sqlite"),
        help="stream rows to this sink kind (requires --sink-path)",
    )
    sweep.add_argument(
        "--sink-path",
        metavar="PATH",
        help="where the --sink writes (file or SQLite database)",
    )
    sweep.add_argument(
        "--host",
        default="127.0.0.1",
        help="socket backend: coordinator bind address (default: 127.0.0.1)",
    )
    sweep.add_argument(
        "--port",
        type=int,
        default=0,
        help="socket backend: coordinator port (default: 0 = ephemeral)",
    )
    sweep.add_argument(
        "--local-workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "socket backend: in-process worker threads (default: 0 — "
            "the sweep waits for external workers to connect)"
        ),
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "socket backend: fail the sweep if runs are still "
            "outstanding after this many seconds (default: wait forever)"
        ),
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded run list without executing",
    )
    sweep.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "enable out-of-band telemetry for the sweep and write the "
            "trace (JSONL, rotating) to PATH; inspect it afterwards "
            "with 'repro obs report PATH'.  Result rows are "
            "byte-identical with or without tracing."
        ),
    )
    sweep.add_argument(
        "--collect",
        metavar="PATH",
        help=(
            "distributed trace collection: every run executes under a "
            "per-run capture registry (on whichever backend) and its "
            "spans/counters merge — skew-normalised — into one campaign "
            "trace at PATH; analyze it with 'repro obs analyze PATH'.  "
            "Result rows are byte-identical with or without collection."
        ),
    )

    worker = sub.add_parser(
        "worker",
        help="join a socket-backend sweep as a pull worker",
        description=(
            "Connects to a 'scenarios sweep --backend socket' coordinator, "
            "pulls runs one at a time, executes them with the same "
            "deterministic engine a serial sweep uses, and streams the "
            "rows back until the coordinator runs out of work."
        ),
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by the sweep command",
    )
    worker.add_argument(
        "--name",
        help="worker name reported to the coordinator (default: host:pid)",
    )

    faults = sub.add_parser(
        "faults",
        help="describe a scenario's fault profile and preview its timeline",
        description=(
            "Shows the MTBF/MTTR fault processes a failure-aware scenario "
            "carries and the deterministic fail/repair timeline they draw "
            "for a given seed — the exact schedule a campaign run would "
            "inject."
        ),
    )
    faults.add_argument("scenario", help="a registered scenario name")
    faults.add_argument(
        "--seed", type=int, default=0, help="instance seed (default: 0)"
    )
    faults.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="one parameter override; repeatable",
    )
    faults.add_argument(
        "--events",
        type=int,
        default=20,
        help="timeline events to preview (default: 20)",
    )
    return parser


def build_topologies_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro topologies",
        description=(
            "inspect the topology-family registry and build instances "
            "without going through a scenario"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="print every registered family")
    list_cmd.add_argument("--tag", help="only families carrying this tag")

    describe = sub.add_parser(
        "describe",
        help="show one family's parameter schema",
        description=(
            "Prints the family's description, tags, and full parameter "
            "schema — name, default, bounds, and what each knob does."
        ),
    )
    describe.add_argument("family", help="a registered family name")

    build = sub.add_parser(
        "build",
        help="build one instance and summarise it",
        description=(
            "Builds the family with the given overrides and seed, then "
            "prints node/link counts by kind, capacity totals, and the "
            "region breakdown for composites.  --save dumps the exact "
            "node and link sets as JSON."
        ),
    )
    build.add_argument("family", help="a registered family name")
    build.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="one parameter override; repeatable",
    )
    build.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed override for randomised families (default: schema default)",
    )
    build.add_argument(
        "--save",
        metavar="PATH",
        help="write the built node and link sets as JSON to PATH",
    )
    return parser


def build_traces_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro traces",
        description=(
            "synthesise and inspect the per-epoch traffic traces the "
            "'trace' workload family replays"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser(
        "synth",
        help="synthesise a MAWI-like trace and write it to a file",
        description=(
            "Draws the deterministic diurnal × heavy-tailed series for "
            "the given knobs and seed, and writes it as .json or .csv — "
            "the same formats 'trace_path' scenario params replay."
        ),
    )
    synth.add_argument("path", help="output file; extension picks the format")
    synth.add_argument("--seed", type=int, default=0, help="master seed")
    synth.add_argument(
        "--epochs", type=int, default=24, help="number of epochs"
    )
    synth.add_argument(
        "--epoch-ms", type=float, default=1_000.0, help="epoch width in ms"
    )
    synth.add_argument(
        "--mean-arrivals",
        type=float,
        default=2.0,
        help="mean task arrivals per epoch",
    )
    synth.add_argument(
        "--mean-demand-gbps",
        type=float,
        default=10.0,
        help="mean per-task demand",
    )
    synth.add_argument(
        "--pareto-alpha",
        type=float,
        default=1.8,
        help="burstiness tail exponent (> 1)",
    )
    synth.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.6,
        help="day/night swing in [0, 1)",
    )

    show = sub.add_parser(
        "show",
        help="load a trace file and summarise it",
        description=(
            "Prints the series' shape and a per-epoch arrivals/demand "
            "table, so a capture can be sanity-checked before a sweep "
            "replays it."
        ),
    )
    show.add_argument("path", help="a .json or .csv trace file")
    return parser


def _traces_main(argv: List[str]) -> int:
    """The ``repro traces`` subcommand: synth / show."""
    from .scenarios.traces import (
        SynthConfig,
        load_trace,
        save_trace,
        synthesize_mawi,
    )
    from .sim.rng import RandomStreams

    args = build_traces_parser().parse_args(argv)
    if args.command == "synth":
        config = SynthConfig(
            epochs=args.epochs,
            epoch_ms=args.epoch_ms,
            mean_arrivals=args.mean_arrivals,
            mean_demand_gbps=args.mean_demand_gbps,
            pareto_alpha=args.pareto_alpha,
            diurnal_amplitude=args.diurnal_amplitude,
        )
        rng = RandomStreams(args.seed).stream("workload/trace-synth")
        series = synthesize_mawi(config, rng)
        save_trace(series, args.path)
        print(
            f"{series.name}: {series.n_epochs} epochs x "
            f"{series.epoch_ms:g} ms, {series.total_tasks} tasks"
        )
        logger.info("saved trace to %s", args.path)
        return 0
    series = load_trace(args.path)
    print(
        f"{series.name}: {series.n_epochs} epochs x {series.epoch_ms:g} ms "
        f"({series.horizon_ms:g} ms horizon), {series.total_tasks} tasks"
    )
    peak = max(series.arrivals)
    print("epoch  arrivals  demand_gbps")
    for index, (count, demand) in enumerate(
        zip(series.arrivals, series.demand_gbps)
    ):
        bar = "#" * (count * 20 // peak if peak else 0)
        print(f"{index:>5}  {count:>8}  {demand:>11.3f}  {bar}")
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "run the registered benchmark suites, track their trajectory "
            "in BENCH_HISTORY.jsonl, and gate regressions against floors"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="print every discovered suite")
    list_cmd.add_argument(
        "--bench-dir",
        metavar="DIR",
        help="benchmarks directory (default: the checkout's benchmarks/)",
    )

    run = sub.add_parser(
        "run",
        help="run suites and append one machine-tagged history record",
        description=(
            "Runs every discovered suite (or just --suite NAME, "
            "repeatable), each of which asserts its qualitative shape and "
            "reports metrics, then appends exactly one machine-tagged "
            "record (host, python, CPU count, git SHA, timestamp, "
            "per-suite metrics) to the history file.  --smoke shrinks the "
            "heavy workloads to seconds for CI; smoke records are tagged "
            "so 'repro bench verify' skips their timing floors."
        ),
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help="shrink heavy workloads (CI mode); record is tagged smoke",
    )
    run.add_argument(
        "--suite",
        dest="suites",
        action="append",
        default=[],
        metavar="NAME",
        help="run only this suite; repeatable (default: every suite)",
    )
    run.add_argument(
        "--history",
        metavar="PATH",
        help="history file to append to (default: BENCH_HISTORY.jsonl "
        "at the repo root)",
    )
    run.add_argument(
        "--bench-dir",
        metavar="DIR",
        help="benchmarks directory (default: the checkout's benchmarks/)",
    )
    run.add_argument(
        "--no-append",
        action="store_true",
        help="run and print but do not touch the history file",
    )

    verify = sub.add_parser(
        "verify",
        help="assert the tracked floors against the newest history record",
        description=(
            "Checks every floor (identity/shape floors always; timing "
            "floors on full records only, scaled by --machine-class) "
            "against the newest record and exits non-zero on any "
            "violation."
        ),
    )
    verify.add_argument(
        "--history",
        metavar="PATH",
        help="history file to verify (default: BENCH_HISTORY.jsonl)",
    )
    verify.add_argument(
        "--machine-class",
        metavar="CLASS",
        help=(
            "hardware class the timing floors are scaled for: reference, "
            "workstation, laptop, or ci (default: "
            "$REPRO_BENCH_MACHINE_CLASS or 'reference')"
        ),
    )
    verify.add_argument(
        "--bench-dir",
        metavar="DIR",
        help="benchmarks directory (default: the checkout's benchmarks/)",
    )
    verify.add_argument(
        "--watch",
        action="store_true",
        help=(
            "also run the regression watchdogs: compare the newest full "
            "record against the trailing median of the trajectory and "
            "fail on step-change drift (see 'repro obs watch')"
        ),
    )

    report = sub.add_parser(
        "report",
        help="render the trend table across the recorded trajectory",
        description=(
            "Prints each suite's headline metric across every record of "
            "the JSONL history, oldest first.  --suite NAME expands one "
            "suite into all of its metrics."
        ),
    )
    report.add_argument(
        "--history",
        metavar="PATH",
        help="history file to read (default: BENCH_HISTORY.jsonl)",
    )
    report.add_argument("--suite", help="expand this one suite's metrics")
    report.add_argument(
        "--bench-dir",
        metavar="DIR",
        help="benchmarks directory (default: the checkout's benchmarks/)",
    )
    return parser


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description=(
            "inspect out-of-band telemetry traces written by "
            "'scenarios sweep --trace' or obs.session(trace=...)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report",
        help="aggregate a trace into span/counter/gauge/histogram tables",
        description=(
            "Reads the trace file plus its rotations, folds every line "
            "into per-span timing rows and per-metric totals, and prints "
            "aligned tables.  --by LABEL splits span rows by a label "
            "value (e.g. --by scheduler)."
        ),
    )
    report.add_argument("trace", help="path to a trace JSONL file")
    report.add_argument(
        "--by",
        dest="span_labels",
        action="append",
        default=[],
        metavar="LABEL",
        help="split span rows by this label; repeatable",
    )

    tail = sub.add_parser(
        "tail",
        help="print the last records of a trace, one line each",
        description=(
            "Formats the newest records of the trace (meta, span, event, "
            "counter, gauge, hist) as one human-readable line each; "
            "--follow keeps watching the file for new records."
        ),
    )
    tail.add_argument("trace", help="path to a trace JSONL file")
    tail.add_argument(
        "-n",
        "--lines",
        type=int,
        default=20,
        help="records to print (default: 20)",
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep printing records as they are appended (Ctrl-C stops)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="critical-path and latency analytics over a merged trace",
        description=(
            "Reads the merged campaign trace a collected sweep wrote "
            "('scenarios sweep --collect') and prints the per-run "
            "critical path split into phases (queue wait, build, "
            "schedule, drain, re-queue gaps), p50/p95/p99 tables by "
            "phase, worker, and scenario, and a span-tree flame "
            "summary — all on the skew-normalised coordinator timeline."
        ),
    )
    analyze.add_argument("trace", help="path to a merged campaign trace")
    analyze.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="flame paths / slowest runs to print (default: 15)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the flat metrics dict as JSON instead of tables",
    )

    watch = sub.add_parser(
        "watch",
        help="evaluate SLO and regression watchdogs; exit 1 on breach",
        description=(
            "Evaluates the declarative watchdog tables: SLO rules "
            "against an analyzed campaign trace (--trace) and "
            "trailing-median regression rules against the bench "
            "trajectory (--history).  Any breach renders a report and "
            "exits non-zero — wire it next to 'repro bench verify' in "
            "CI.  --slo adds ad-hoc rules like "
            "'phase.schedule.p99_ms<=250'."
        ),
    )
    watch.add_argument(
        "--trace",
        metavar="PATH",
        help="merged campaign trace to hold against the SLO rules",
    )
    watch.add_argument(
        "--history",
        metavar="PATH",
        help="bench history to scan for step-change regressions",
    )
    watch.add_argument(
        "--slo",
        dest="slo",
        action="append",
        default=[],
        metavar="METRIC<=LIMIT",
        help=(
            "extra SLO rule on the analyzed trace metrics "
            "(repeatable; '<=' or '>=')"
        ),
    )
    return parser


def _obs_tail_follow(path: str) -> int:
    """Print records as they land, surviving trace rotations."""
    try:
        for record in obs.follow_trace(path, poll_s=0.5):
            formatted = obs.format_record(record)
            if formatted:
                print(formatted, flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def _obs_main(argv: List[str]) -> int:
    """The ``repro obs`` subcommand: report / tail / analyze / watch."""
    import json as jsonlib

    args = build_obs_parser().parse_args(argv)
    if args.command == "report":
        print(obs.report(args.trace, span_labels=tuple(args.span_labels)))
        return 0
    if args.command == "analyze":
        from .obs.analyze import analyze as analyze_trace
        from .obs.analyze import render_analysis

        analysis = analyze_trace(args.trace)
        if args.json:
            print(jsonlib.dumps(analysis["metrics"], sort_keys=True))
        else:
            print(render_analysis(analysis, top=args.top))
        return 0
    if args.command == "watch":
        from .obs.watch import (
            DEFAULT_SLO_RULES,
            parse_slo_rule,
            render_watch,
            watch,
        )

        slo_rules = None
        if args.slo:
            slo_rules = list(DEFAULT_SLO_RULES) + [
                parse_slo_rule(text) for text in args.slo
            ]
        result = watch(
            trace=args.trace,
            history=args.history,
            slo_rules=slo_rules,
        )
        print(render_watch(result))
        return 0 if result.ok else 1
    # tail
    if args.follow:
        return _obs_tail_follow(args.trace)
    records = list(obs.iter_trace(args.trace, strict=False))
    for record in records[-max(0, args.lines):]:
        formatted = obs.format_record(record)
        if formatted:
            print(formatted)
    return 0


def _bench_main(argv: List[str]) -> int:
    """The ``repro bench`` subcommand: list / run / verify / report."""
    from . import bench
    from .errors import ConfigurationError

    args = build_bench_parser().parse_args(argv)
    if args.command == "list":
        suites = bench.discover_suites(args.bench_dir)
        width = max((len(suite.name) for suite in suites), default=0)
        for suite in suites:
            headline = suite.headline or "elapsed_s"
            print(
                f"{suite.name:<{width}}  {suite.description}  "
                f"[headline: {headline}]"
            )
        return 0
    if args.command == "run":
        record = bench.run_suites(
            args.suites,
            smoke=args.smoke,
            bench_dir=args.bench_dir,
            history_path=args.history,
            append=not args.no_append,
            echo=lambda message: logger.info("%s", message),
        )
        violations = bench.verify_record(record)
        if violations:
            logger.warning(
                "%d floor violation(s) in this record — "
                "'repro bench verify' will fail:",
                len(violations),
            )
            for violation in violations:
                logger.warning("  %s", violation.reason)
        return 0
    if args.command == "verify":
        history = bench.read_history(
            args.history or bench.history.default_history_path()
        )
        if not history:
            logger.error(
                "no history records to verify — run "
                "'repro bench run' first"
            )
            return 2
        record = history[-1]
        violations = bench.verify_record(
            record, machine_class=args.machine_class
        )
        label = bench.report.record_label(record)
        checked = [
            floor
            for floor in bench.FLOORS
            if floor.suite in record.get("suites", {})
            and not (floor.timing and record.get("smoke"))
        ]
        status = 0
        if violations:
            print(
                f"bench verify FAILED on record {label}: "
                f"{len(violations)} of {len(checked)} floors violated"
            )
            for violation in violations:
                print(f"  FAIL {violation.reason}")
            status = 1
        else:
            print(
                f"bench verify passed on record {label}: "
                f"{len(checked)} floors hold"
            )
        if args.watch:
            from .obs.watch import (
                DEFAULT_REGRESSION_RULES,
                WatchResult,
                evaluate_regressions,
                render_watch,
            )

            breaches, watch_checked, skipped = evaluate_regressions(
                history, DEFAULT_REGRESSION_RULES
            )
            print()
            print(
                render_watch(
                    WatchResult(
                        breaches=breaches,
                        checked=watch_checked,
                        skipped=skipped,
                    )
                )
            )
            if breaches:
                status = 1
        return status
    # report
    try:
        bench.discover_suites(args.bench_dir)  # headline metadata
    except ConfigurationError:
        pass  # report still renders with elapsed_s fallbacks
    records = bench.read_history(
        args.history or bench.history.default_history_path()
    )
    print(bench.render_report(records, suite=args.suite))
    return 0


def _parse_scalar(text: str):
    """CLI grid values: int if possible, else float, else the string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_overrides(items: List[str]):
    """KEY=VALUE pairs from repeated --set flags (None on a bad item)."""
    overrides = {}
    for item in items:
        if "=" not in item:
            return None, item
        key, _, value = item.partition("=")
        overrides[key] = _parse_scalar(value)
    return overrides, None


def _topologies_main(argv: List[str]) -> int:
    """The ``repro topologies`` subcommand: list / describe / build."""
    import json as jsonlib

    from .network.topology import get_family, list_families, regions_of

    args = build_topologies_parser().parse_args(argv)
    if args.command == "list":
        families = list_families(tag=args.tag)
        width = max((len(family.name) for family in families), default=0)
        for family in families:
            tags = ",".join(family.tags)
            print(
                f"{family.name:<{width}}  {family.description}  "
                f"[{tags}] ({len(family.schema)} params)"
            )
        return 0
    family = get_family(args.family)
    if args.command == "describe":
        print(f"{family.name}: {family.description}")
        print(f"tags: {','.join(family.tags) or '(none)'}")
        print(f"seeded: {'yes' if family.seeded else 'no (fully deterministic)'}")
        if not family.schema:
            print("parameters: (none)")
            return 0
        print("parameters:")
        width = max(len(spec.name) for spec in family.schema)
        for spec in family.schema:
            bounds = []
            if spec.minimum is not None:
                bounds.append(f">= {spec.minimum:g}")
            if spec.maximum is not None:
                bounds.append(f"<= {spec.maximum:g}")
            if spec.choices is not None:
                bounds.append(f"one of {list(spec.choices)}")
            suffix = f"  ({'; '.join(bounds)})" if bounds else ""
            print(
                f"  {spec.name:<{width}}  default={spec.default!r:<8}  "
                f"{spec.doc}{suffix}"
            )
        return 0

    overrides, bad = _parse_overrides(args.overrides)
    if overrides is None:
        logger.error("--set expects KEY=VALUE, got %r", bad)
        return 2
    net = family.build(overrides, seed=args.seed)
    kinds: Dict[str, int] = {}
    for node in net.nodes():
        kinds[node.kind.value] = kinds.get(node.kind.value, 0) + 1
    capacity = sum(link.capacity_gbps for link in net.links())
    print(f"{net.name}: {net.node_count} nodes, {net.link_count} links")
    print(
        "nodes by kind: "
        + ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
    )
    print(f"servers: {len(net.servers())}")
    print(f"total capacity: {capacity:g} Gbps (per direction)")
    print(f"connected: {'yes' if net.is_connected() else 'NO'}")
    regions = {label: names for label, names in regions_of(net).items() if label}
    if regions:
        print(
            "regions: "
            + ", ".join(
                f"{label}({len(names)} nodes)"
                for label, names in sorted(regions.items())
            )
        )
    if args.save:
        payload = {
            "family": family.name,
            "name": net.name,
            "nodes": [
                {
                    "name": node.name,
                    "kind": node.kind.value,
                    "attrs": node.attrs,
                }
                for node in net.nodes()
            ],
            "links": [
                {
                    "u": link.u,
                    "v": link.v,
                    "capacity_gbps": link.capacity_gbps,
                    "distance_km": link.distance_km,
                    "latency_ms": link.latency_ms,
                }
                for link in net.links()
            ],
        }
        with open(args.save, "w", encoding="utf-8") as handle:
            jsonlib.dump(payload, handle, indent=2, sort_keys=True)
        logger.info("saved topology to %s", args.save)
    return 0


def _faults_main(args) -> int:
    """Describe a fault profile and preview its drawn timeline."""
    from .scenarios import get_scenario, list_scenarios

    spec = get_scenario(args.scenario)
    if spec.fault_profile is None:
        fault_aware = [
            s.name for s in list_scenarios() if s.fault_profile is not None
        ]
        logger.error(
            "scenario %r has no fault profile; fault-aware scenarios: %s",
            spec.name,
            fault_aware,
        )
        return 2
    overrides, bad = _parse_overrides(args.overrides)
    if overrides is None:
        logger.error("--set expects KEY=VALUE, got %r", bad)
        return 2
    instance = spec.instantiate(overrides, seed=args.seed)
    profile = spec.fault_profile.resolved(instance.params)
    timeline = instance.fault_timeline
    print(f"scenario {spec.name!r} (seed {args.seed})")
    print(profile.describe())
    print(
        f"population: {timeline.link_candidates} links, "
        f"{timeline.node_candidates} nodes"
    )
    print(
        f"timeline: {timeline.fail_count} failures, "
        f"{len(timeline.events)} transitions"
    )
    for event in timeline.events[: max(0, args.events)]:
        print(
            f"  t={event.time_ms:>12.3f} ms  {event.kind:<6} "
            f"{event.component:<4} {'-'.join(event.subject)}"
        )
    remaining = len(timeline.events) - max(0, args.events)
    if remaining > 0:
        print(f"  ... {remaining} more (raise --events to see them)")
    return 0


def _worker_main(args) -> int:
    """Join a socket-backend sweep coordinator as a pull worker."""
    from .scenarios.sweep import run_worker

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        logger.error("--connect expects HOST:PORT, got %r", args.connect)
        return 2
    try:
        executed = run_worker(host, int(port_text), worker_name=args.name)
    except (OSError, ConnectionError) as exc:
        logger.error("cannot join sweep at %s: %s", args.connect, exc)
        return 2
    except Exception as exc:
        # run_worker re-raises a failing run after telling the
        # coordinator; the CLI reports it cleanly instead of a traceback.
        logger.error("worker failed a run: %s", exc)
        return 2
    logger.info("worker finished: executed %d runs", executed)
    return 0


def _build_backend(args):
    """The sweep backend selected by CLI flags (None = derive from workers)."""
    from .scenarios.sweep import SocketQueueBackend

    if args.backend != "socket":
        return args.backend
    return SocketQueueBackend(
        host=args.host,
        port=args.port,
        local_workers=args.local_workers,
        timeout=args.timeout,
        announce=lambda addr: logger.info(
            "coordinator listening on %s:%d — join with "
            "'repro scenarios worker --connect %s:%d'",
            addr[0],
            addr[1],
            addr[0],
            addr[1],
        ),
    )


def _scenarios_main(argv: List[str]) -> int:
    import contextlib

    from .scenarios import SweepConfig, expand_runs, list_scenarios, run_sweep
    from .scenarios.sweep import make_sink

    args = build_scenarios_parser().parse_args(argv)
    if args.command == "list":
        specs = list_scenarios(tags=args.tags)
        width = max((len(spec.name) for spec in specs), default=0)
        for spec in specs:
            tags = ",".join(spec.tags)
            print(f"{spec.name:<{width}}  {spec.description}  [{tags}]")
        return 0
    if args.command == "faults":
        return _faults_main(args)
    if args.command == "worker":
        return _worker_main(args)

    grid = {}
    for item in args.grid:
        if "=" not in item:
            logger.error("--set expects KEY=V1,V2,... got %r", item)
            return 2
        key, _, values = item.partition("=")
        grid[key] = [_parse_scalar(v) for v in values.split(",") if v]
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    except ValueError:
        logger.error("--seeds expects integers, got %r", args.seeds)
        return 2
    if args.sink and not args.sink_path:
        logger.error("--sink requires --sink-path")
        return 2
    if args.sink_path and not args.sink:
        logger.error("--sink-path requires --sink")
        return 2
    config = SweepConfig(
        scenarios=tuple(args.scenario),
        grid=grid,
        seeds=seeds,
        serving=args.serving,
    )
    if args.dry_run:
        for key in expand_runs(config):
            print(key.canonical())
        return 0
    sink = make_sink(args.sink, args.sink_path) if args.sink else None
    trace_scope = (
        obs.session(trace=args.trace)
        if args.trace
        else contextlib.nullcontext()
    )
    with trace_scope:
        result = run_sweep(
            config,
            workers=args.workers,
            cache_dir=args.cache_dir,
            jsonl_path=args.jsonl,
            backend=_build_backend(args),
            sink=sink,
            collect=args.collect,
        )
    print(result.to_table())
    if args.trace:
        logger.info(
            "telemetry trace written to %s — inspect with "
            "'repro obs report %s'",
            args.trace,
            args.trace,
        )
    if args.collect:
        logger.info(
            "merged campaign trace written to %s — analyze with "
            "'repro obs analyze %s'",
            args.collect,
            args.collect,
        )
    if args.save:
        result.save(args.save)
        logger.info("saved sweep to %s", args.save)
    return 0


def _extract_log_level(argv: List[str]) -> Tuple[List[str], Optional[str], Optional[str]]:
    """Strip the global ``--log-level`` flag from anywhere in ``argv``.

    Returns ``(rest, level, error)``.  The flag is global so it works in
    front of or after any subcommand; stripping it here keeps every
    subparser oblivious.
    """
    rest: List[str] = []
    level: Optional[str] = None
    index = 0
    while index < len(argv):
        item = argv[index]
        if item == "--log-level":
            if index + 1 >= len(argv):
                return rest, None, "--log-level expects a value"
            level = argv[index + 1]
            index += 2
            continue
        if item.startswith("--log-level="):
            level = item.partition("=")[2]
            index += 1
            continue
        rest.append(item)
        index += 1
    if level is not None and level.strip().lower() not in obs.LOG_LEVELS:
        return rest, None, (
            f"--log-level expects one of {', '.join(obs.LOG_LEVELS)}, "
            f"got {level!r}"
        )
    return rest, level, None


def _experiments_main(argv: List[str]) -> int:
    """Run one experiment id (or ``all``) and print its table."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = EXPERIMENTS[name]()
        print(result.to_table())
        print()
        if args.save:
            path = args.save if len(names) == 1 else f"{name}-{args.save}"
            result.save(path)
            logger.info("saved %s to %s", name, path)
    return 0


#: First argv word -> subcommand entry point.
_SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "scenarios": _scenarios_main,
    "topologies": _topologies_main,
    "traces": _traces_main,
    "bench": _bench_main,
    "obs": _obs_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv, log_level, log_error = _extract_log_level(list(argv))
    if log_error is not None:
        print(log_error, file=sys.stderr)
        return 2
    obs.configure_logging(log_level)
    if argv and argv[0] in _SUBCOMMANDS:
        run, argv = _SUBCOMMANDS[argv[0]], argv[1:]
    else:
        run = _experiments_main
    try:
        return run(argv)
    except (ReproError, OSError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
