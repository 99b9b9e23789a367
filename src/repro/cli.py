"""Command-line interface.

``repro`` (aliases: ``repro-experiment``, ``python -m repro.cli``) runs any
registered experiment and prints the reproduced table::

    repro --list
    repro table5 --scale smoke
    repro table5 --scale smoke --save-results table5.jsonl
    repro table1
    repro ablation-arrival-rate-sweep

The scenario subsystem has its own subcommand family::

    repro scenario list
    repro scenario run burst-storm --scale smoke
    repro scenario run hetero-farm-16 --jobs 4
    repro scenario sweep --jobs 4 --save-results sweep.jsonl
    repro scenario sweep --scenarios burst-storm,flaky-servers --markdown

Saved result files (the unified results API, :mod:`repro.api`) are inspected
and compared with the ``results`` family::

    repro results show sweep.jsonl
    repro results diff before.jsonl after.jsonl

The campaign store (:mod:`repro.store`) memoises executed cells, resumes
interrupted campaigns and makes warm re-runs near-instant::

    repro table5 --store runs/store            # cold: simulates + journals
    repro table5 --store runs/store            # warm: zero simulations
    repro campaign resume table5 --store runs/store
    repro cache stats runs/store
    repro cache ls runs/store --experiment table5
    repro cache prune runs/store --experiment table5

The analytical validation suite checks the simulator against closed-form
queueing theory (exit 0 = all checks pass)::

    repro validate
    repro validate --quick --json validation-report.json

The static determinism & contract linter (:mod:`repro.analysis`) proves the
source conventions behind byte-identical results at parse time (exit 0 =
no active finding)::

    repro check
    repro check --json lint-report.json
    repro check --list-rules
    repro check --update-baseline

The profiling harness (:mod:`repro.obs`) wraps any registry scenario in
wall-clock phase timers and fluid-core counters, or records a virtual-time
event trace that opens in chrome://tracing / Perfetto::

    repro profile run diurnal-week --tasks 5000
    repro profile run diurnal-week --tasks 5000 --profile --json perf-report.json
    repro profile trace diurnal-week --out trace.jsonl --chrome trace-chrome.json

The metrics sampler records fixed-interval virtual-time series (queue
depths, utilization, in-flight tasks, windowed throughput/latency) and the
offline dashboards render them — TTY sparklines or a single-file HTML
report::

    repro metrics record diurnal-week --tasks 500 --out metrics.jsonl
    repro metrics show metrics.jsonl --columns inflight,throughput_w
    repro metrics plot metrics.jsonl --out metrics-report.html

The bench harness (:mod:`repro.bench`) measures named suites and gates
regressions against a committed baseline (exit 1 on regression — the CI
gate)::

    repro bench run --suite smoke
    repro bench run --json bench-report.json --history runs/bench
    repro bench compare benchmarks/bench-baseline.json bench-report.json
    repro bench history runs/bench

The ``--scale`` option trades fidelity for speed: ``full`` is the paper's
500-task protocol, ``bench`` a 200-task middle ground, ``smoke`` a few
seconds.  ``--jobs N`` fans campaign cells out over N worker processes;
results are byte-identical for any value because run seeds derive from cell
coordinates.  ``--ci-target X`` switches campaigns to sequential stopping:
repetitions are added until every cell's relative 95% CI half-width is at
most ``X``, and cells print as ``mean ± half-width``.  ``--progress``
streams one line per completed cell to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import (
    SCALES,
    ExperimentConfig,
    experiment_ids,
    get_experiment,
    run_experiment,
)
from .results import ProgressObserver

__all__ = [
    "build_parser",
    "build_scenario_parser",
    "build_results_parser",
    "build_campaign_parser",
    "build_cache_parser",
    "build_validate_parser",
    "build_profile_parser",
    "build_metrics_parser",
    "build_bench_parser",
    "main",
]


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="experiment size: full (paper, 500 tasks), bench, or smoke (default: full)",
    )
    parser.add_argument("--seed", type=int, default=2003, help="root random seed (default: 2003)")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for table campaigns; results are identical for "
        "any value because run seeds derive from cell coordinates (default: 1)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="print tables as Markdown instead of plain text"
    )
    parser.add_argument(
        "--save-results",
        metavar="FILE",
        help="save the run's records to FILE (.jsonl or .csv); inspect them "
        "later with 'repro results show'",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream one line per completed campaign cell to stderr",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="campaign store directory (created on first use): cells already "
        "journaled there are recovered instead of simulated, fresh cells are "
        "committed as they complete — warm re-runs are near-instant and "
        "byte-identical; inspect with 'repro cache stats DIR'",
    )
    parser.add_argument(
        "--ci-target",
        type=float,
        default=None,
        metavar="X",
        help="sequential stopping: add repetition rounds until the relative "
        "95%% CI half-width of every (heuristic, metatask) group is <= X "
        "(e.g. 0.05 = 5%%); cells then print as 'mean ± half-width' and the "
        "convergence outcome lands in the table notes",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (the classic single-experiment form)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'New Dynamic Heuristics in the "
        "Client-Agent-Server Model' (Caniou & Jeannot, HCW'03).  "
        "Use 'repro scenario ...' for the scenario subsystem and "
        "'repro results ...' for saved result files.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (see --list), e.g. table5, table1, fig1",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    _add_common_options(parser)
    return parser


def build_scenario_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro scenario`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description="Run declarative scheduling scenarios (see repro.scenarios).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered scenarios and exit")

    run_parser = commands.add_parser("run", help="run one scenario and print its table")
    run_parser.add_argument("name", help="scenario name (see 'repro scenario list')")
    _add_common_options(run_parser)

    sweep_parser = commands.add_parser(
        "sweep", help="run a heuristic x scenario grid and rank heuristics per regime"
    )
    sweep_parser.add_argument(
        "--scenarios",
        metavar="A,B,...",
        help="comma-separated scenario names (default: every registered scenario)",
    )
    sweep_parser.add_argument(
        "--metric",
        default="sumflow",
        help="ranking tie-break metric, lower is better (default: sumflow)",
    )
    _add_common_options(sweep_parser)
    return parser


def build_campaign_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro campaign`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Campaign lifecycle operations over a store (see repro.store).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    resume_parser = commands.add_parser(
        "resume",
        help="finish an interrupted campaign from its store's journal "
        "(only the missing cells execute; output is byte-identical)",
    )
    resume_parser.add_argument(
        "experiment",
        help="a campaign experiment id (e.g. table5, scenario-sweep); "
        "run with the same --scale/--seed as the interrupted run",
    )
    _add_common_options(resume_parser)
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro cache`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and maintain campaign store directories (see repro.store).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats_parser = commands.add_parser("stats", help="print a store's statistics")
    stats_parser.add_argument("store", help="store directory")

    ls_parser = commands.add_parser("ls", help="list a store's cached cells")
    ls_parser.add_argument("store", help="store directory")
    ls_parser.add_argument(
        "--experiment", metavar="ID", help="only list cells of this experiment id"
    )

    prune_parser = commands.add_parser(
        "prune", help="drop cached cells and compact the journal atomically"
    )
    prune_parser.add_argument("store", help="store directory")
    prune_parser.add_argument(
        "--experiment", metavar="ID", help="drop the cells of this experiment id"
    )
    prune_parser.add_argument(
        "--config-hash", metavar="HASH", help="drop the cells stamped with this config hash"
    )
    prune_parser.add_argument(
        "--all", action="store_true", help="drop every cached cell"
    )
    return parser


def build_validate_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro validate`` command."""
    parser = argparse.ArgumentParser(
        prog="repro validate",
        description="Validate the simulator against closed-form queueing "
        "theory: M/M/1 and M/M/c mean response times must fall inside their "
        "95%% confidence intervals around the exact Erlang-C values, and a "
        "sequential campaign must be byte-identical at jobs=1 and jobs=2. "
        "Exits 0 when every check passes, 1 otherwise.",
    )
    parser.add_argument(
        "--seed", type=int, default=2003, help="root random seed (default: 2003)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller simulations (seconds instead of tens of seconds) — "
        "the CI smoke configuration",
    )
    parser.add_argument(
        "--skip-sequential",
        action="store_true",
        help="skip the sequential byte-identity check (queueing checks only)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="additionally write the machine-readable report to FILE "
        "(the CI artifact)",
    )
    return parser


def build_check_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro check`` command."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Statically check the source tree against the "
        "determinism & contract rules (seeded RNG only, no wall clocks, "
        "ordered persisted iteration, declared fingerprint roles, atomic "
        "writes, exact float text, stable API surface, library exceptions). "
        "Exits 0 when no active finding remains, 1 otherwise.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (default: the installed repro "
        "package)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file of grandfathered findings (default: the "
        "committed src/repro/analysis/lint_baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current finding set and exit 0 "
        "(review the file's diff to accept or retire debt)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="additionally write the machine-readable report to FILE "
        "(the CI artifact)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _add_profile_size_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario", help="scenario name (see 'repro scenario list'), e.g. diurnal-week"
    )
    parser.add_argument(
        "--tasks",
        type=int,
        metavar="N",
        help="tasks per metatask (default: the smoke scale's task count)",
    )
    parser.add_argument(
        "--metatasks", type=int, metavar="N", help="number of metatasks (default: 1)"
    )
    parser.add_argument(
        "--reps", type=int, metavar="N", help="repetitions per metatask (default: 1)"
    )
    parser.add_argument(
        "--heuristics",
        metavar="A,B,...",
        help="comma-separated subset of the scenario's heuristics "
        "(default: all of them)",
    )
    parser.add_argument(
        "--seed", type=int, default=2003, help="root random seed (default: 2003)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1); counters and traces are "
        "identical at any level",
    )


def build_profile_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro profile`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Profile or trace one scenario campaign (see repro.obs): "
        "'run' wraps it in wall-clock phase timers and hot-path counters, "
        "'trace' records the virtual-time event trace.  Trace and counter "
        "content derive from virtual time and cell coordinates only — "
        "byte-identical at any --jobs level; wall-clock numbers appear "
        "exclusively in the perf report.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run under phase timers + counters and print the perf report"
    )
    _add_profile_size_options(run_parser)
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally cProfile the simulate phase (forced off when "
        "--jobs > 1: a parent-process profile of a worker pool would time "
        "pickling, not simulation)",
    )
    run_parser.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="functions kept from the cProfile ranking (default: 20)",
    )
    run_parser.add_argument(
        "--json",
        metavar="FILE",
        help="additionally write the perf-report/v1 JSON to FILE "
        "(the CI artifact)",
    )

    trace_parser = commands.add_parser(
        "trace", help="run with the trace bus on and write the JSONL trace"
    )
    _add_profile_size_options(trace_parser)
    trace_parser.add_argument(
        "--out",
        metavar="FILE",
        default="trace.jsonl",
        help="JSONL trace output path (default: trace.jsonl)",
    )
    trace_parser.add_argument(
        "--chrome",
        metavar="FILE",
        help="additionally write the Chrome trace_event export (open in "
        "chrome://tracing or ui.perfetto.dev)",
    )
    trace_parser.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="bound each cell's event ring to N events (default: unbounded); "
        "truncation is surfaced, never silent",
    )
    return parser


def build_metrics_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro metrics`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Record and render virtual-time metric series (see "
        "repro.obs): 'record' samples a scenario campaign at a fixed "
        "virtual-time interval into byte-stable JSONL, 'show' renders TTY "
        "sparklines, 'plot' writes a single-file HTML report.  Series "
        "content derives from virtual time and simulation state only — "
        "byte-identical at any --jobs level, and sampling never changes "
        "the run's records.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record_parser = commands.add_parser(
        "record", help="run one scenario with the sampler on and write the series"
    )
    _add_profile_size_options(record_parser)
    record_parser.add_argument(
        "--out",
        metavar="FILE",
        default="metrics.jsonl",
        help="JSONL series output path (default: metrics.jsonl)",
    )
    record_parser.add_argument(
        "--csv",
        metavar="FILE",
        help="additionally write a long-format CSV (spreadsheet tooling)",
    )
    record_parser.add_argument(
        "--chrome",
        metavar="FILE",
        help="additionally write a Chrome trace_event export with the "
        "samples as counter tracks (open in chrome://tracing or "
        "ui.perfetto.dev)",
    )
    record_parser.add_argument(
        "--interval",
        type=float,
        metavar="S",
        help="sampling interval in virtual seconds (default: 60)",
    )
    record_parser.add_argument(
        "--window",
        type=float,
        metavar="S",
        help="sliding window of the windowed throughput/latency columns, "
        "virtual seconds (default: 5x the interval)",
    )

    show_parser = commands.add_parser(
        "show", help="render a recorded series as TTY sparklines"
    )
    show_parser.add_argument("file", help="a metrics .jsonl written by 'record'")
    show_parser.add_argument(
        "--columns",
        metavar="A,B,...",
        help="comma-separated columns to show (default: all recorded)",
    )
    show_parser.add_argument(
        "--width",
        type=int,
        default=48,
        metavar="N",
        help="sparkline width in characters (default: 48)",
    )

    plot_parser = commands.add_parser(
        "plot", help="render recorded series into a single-file HTML report"
    )
    plot_parser.add_argument(
        "files",
        nargs="+",
        help="metrics .jsonl file(s); several files overlay for comparison, "
        "labelled by filename",
    )
    plot_parser.add_argument(
        "--out",
        metavar="FILE",
        default="metrics-report.html",
        help="HTML output path (default: metrics-report.html); the file is "
        "self-contained — inline SVG, no external assets",
    )
    plot_parser.add_argument(
        "--columns",
        metavar="A,B,...",
        help="comma-separated columns to plot (default: all recorded)",
    )
    plot_parser.add_argument(
        "--title", default="repro metrics", help="report title"
    )
    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro bench`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark suites and regression gating (see repro.bench): "
        "'run' measures a named suite into a bench-report/v1 JSON, 'compare' "
        "diffs two reports under regression thresholds and exits 1 on "
        "regression (the CI gate), 'history' shows per-case wall-time "
        "trends over an archive directory.  Wall seconds are only "
        "comparable on similar hardware; counters are exact everywhere.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_gate_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--max-slowdown",
            type=float,
            default=0.20,
            metavar="X",
            help="wall-time regression budget as a fraction "
            "(default: 0.20 = +20%%)",
        )
        sub.add_argument(
            "--counter-tolerance",
            type=float,
            default=0.10,
            metavar="X",
            help="deterministic-counter growth budget as a fraction "
            "(default: 0.10 = +10%%)",
        )
        sub.add_argument(
            "--no-wall-gate",
            action="store_true",
            help="report wall-time changes but never fail on them (use when "
            "baseline and current ran on different hardware — CI does)",
        )
        sub.add_argument(
            "--no-counter-gate",
            action="store_true",
            help="report counter growth but never fail on it",
        )

    run_parser = commands.add_parser(
        "run", help="measure a suite and print/save the bench report"
    )
    run_parser.add_argument(
        "--suite",
        default="default",
        help="suite name: default or smoke (default: default)",
    )
    run_parser.add_argument(
        "--cases",
        metavar="A,B,...",
        help="comma-separated case names to run (default: the whole suite)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=2003, help="root random seed (default: 2003)"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1); counters are identical at any "
        "level, wall times are not — compare like with like",
    )
    run_parser.add_argument(
        "--json",
        metavar="FILE",
        help="additionally write the bench-report/v1 JSON to FILE",
    )
    run_parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="after the run, diff against this baseline report and exit 1 "
        "on regression",
    )
    run_parser.add_argument(
        "--history",
        metavar="DIR",
        help="additionally archive the report as the next bench-NNNN.json "
        "in DIR (inspect with 'repro bench history DIR')",
    )
    add_gate_options(run_parser)

    compare_parser = commands.add_parser(
        "compare",
        help="diff two bench reports; exit 1 on regression (the CI gate)",
    )
    compare_parser.add_argument("baseline", help="the baseline bench-report JSON")
    compare_parser.add_argument("current", help="the candidate bench-report JSON")
    add_gate_options(compare_parser)

    history_parser = commands.add_parser(
        "history", help="per-case wall-time trends over an archive directory"
    )
    history_parser.add_argument(
        "directory", help="archive directory fed by 'repro bench run --history'"
    )
    return parser


def build_results_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``repro results`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="repro results",
        description="Inspect and compare saved result files (see repro.api).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    show_parser = commands.add_parser(
        "show", help="load a results file and render its table(s) from the records"
    )
    show_parser.add_argument("file", help="a .jsonl or .csv file saved with --save-results")
    show_parser.add_argument(
        "--markdown", action="store_true", help="print tables as Markdown instead of plain text"
    )

    diff_parser = commands.add_parser(
        "diff", help="compare two results files record by record (exit 1 on differences)"
    )
    diff_parser.add_argument("file_a", help="the 'before' results file")
    diff_parser.add_argument("file_b", help="the 'after' results file")
    diff_parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        metavar="X",
        help="relative tolerance on metric values (default: 0.0 = exact)",
    )
    return parser


#: Extensions the persistence layer can write (kept in sync with
#: ``ResultSet.save``; validated *before* a potentially hours-long run).
_RESULT_EXTENSIONS = (".jsonl", ".json", ".csv")


def _config_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExperimentConfig:
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    save_path = getattr(args, "save_results", None)
    if save_path and not save_path.lower().endswith(_RESULT_EXTENSIONS):
        parser.error(
            f"--save-results needs a {'/'.join(_RESULT_EXTENSIONS)} extension, got {save_path!r}"
        )
    observers = (ProgressObserver(),) if args.progress else ()
    store = None
    if getattr(args, "store", None):
        from .errors import StoreError
        from .store import open_store

        try:
            store = open_store(args.store)
        except (StoreError, OSError) as exc:
            parser.error(f"could not open store {args.store!r}: {exc}")
    ci_target = getattr(args, "ci_target", None)
    if ci_target is not None and ci_target <= 0:
        parser.error("--ci-target must be > 0")
    return ExperimentConfig(
        scale=SCALES[args.scale], seed=args.seed, jobs=args.jobs,
        observers=observers, store=store, ci_target=ci_target,
    )


def _maybe_report_store(config: ExperimentConfig) -> None:
    """One stderr summary line of the run's cache activity (CI greps it)."""
    store = config.store
    if store is None:
        return
    print(
        f"store: {store.hits} cell(s) recovered, {store.puts} executed "
        f"({len(store)} entries at {store.root})",
        file=sys.stderr,
    )


def _print_result(result, markdown: bool) -> None:
    if markdown and hasattr(result, "render_markdown"):
        print(result.render_markdown())
    elif hasattr(result, "render"):
        print(result.render())
    else:  # pragma: no cover - defensive
        print(result)


def _maybe_save(result, args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "save_results", None):
        return
    from . import api
    from .errors import ResultsError

    if getattr(result, "result_set", None) is None:
        parser.error(
            "this command's result carries no record set; --save-results only "
            "applies to table experiments and scenario runs/sweeps"
        )
    try:
        path = api.save_results(result, args.save_results)
    except (ResultsError, OSError) as exc:
        # The table was already printed above — fail cleanly, don't traceback.
        parser.error(f"could not save results: {exc}")
    print(f"saved {len(result.result_set)} record(s) to {path}", file=sys.stderr)


def _list_experiments() -> str:
    lines = ["available experiments:"]
    for experiment_id in experiment_ids():
        entry = get_experiment(experiment_id)
        lines.append(f"  {experiment_id:<32} {entry.paper_artefact:<28} {entry.description}")
    lines.append("")
    lines.append("scenarios: 'repro scenario list' / 'repro scenario run <name>'")
    lines.append("saved results: 'repro results show <file>' / 'repro results diff <a> <b>'")
    lines.append(
        "campaign store: '--store DIR' on any campaign, 'repro campaign resume "
        "<id> --store DIR', 'repro cache stats|ls|prune DIR'"
    )
    lines.append("analytical validation: 'repro validate [--quick] [--json FILE]'")
    lines.append(
        "profiling & tracing: 'repro profile run <scenario> [--tasks N]' / "
        "'repro profile trace <scenario> --out trace.jsonl'"
    )
    lines.append(
        "metric series & dashboards: 'repro metrics record <scenario> --out "
        "metrics.jsonl' / 'repro metrics show|plot metrics.jsonl'"
    )
    lines.append(
        "benchmarks & regression gate: 'repro bench run [--suite smoke]' / "
        "'repro bench compare <baseline> <current>'"
    )
    return "\n".join(lines)


def _list_scenarios() -> str:
    from .scenarios import SCENARIO_REGISTRY

    lines = ["registered scenarios:"]
    for name, scenario in SCENARIO_REGISTRY.items():
        lines.append(f"  {name:<18} {scenario.regime:<14} {scenario.description}")
    return "\n".join(lines)


def _scenario_main(argv: List[str]) -> int:
    from .scenarios import run_scenario, run_sweep

    parser = build_scenario_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print(_list_scenarios())
        return 0

    config = _config_from(args, parser)
    if args.command == "run":
        result = run_scenario(args.name, config=config)
    else:  # sweep
        names = None
        if args.scenarios:
            names = [name.strip() for name in args.scenarios.split(",") if name.strip()]
        result = run_sweep(names=names, config=config, metric=args.metric)
    _print_result(result, args.markdown)
    _maybe_save(result, args, parser)
    _maybe_report_store(config)
    return 0


def _campaign_main(argv: List[str]) -> int:
    from .errors import ReproError
    from .store import resume_experiment

    parser = build_campaign_parser()
    args = parser.parse_args(argv)

    # only "resume" exists today
    if not args.store:
        parser.error("campaign resume needs --store DIR (the interrupted run's store)")
    config = _config_from(args, parser)
    try:
        report = resume_experiment(args.experiment, config.store, config=config)
    except ReproError as exc:
        parser.error(str(exc))
    _print_result(report.result, args.markdown)
    _maybe_save(report.result, args, parser)
    print(report.render(), file=sys.stderr)
    return 0


def _cache_main(argv: List[str]) -> int:
    from .errors import StoreError
    from .store import CampaignStore

    parser = build_cache_parser()
    args = parser.parse_args(argv)
    import os as _os

    if not _os.path.isdir(args.store):
        # Inspection commands must not create stores: a typo'd path would
        # silently materialise an empty directory and report 0 entries.
        parser.error(
            f"no store at {args.store!r} (stores are created by running a "
            "campaign with --store)"
        )
    try:
        store = CampaignStore(args.store)
    except (StoreError, OSError) as exc:
        parser.error(f"could not open store {args.store!r}: {exc}")

    if args.command == "stats":
        stats = store.stats()
        journal_bytes = (
            _os.path.getsize(store.journal.path) if store.journal.exists() else 0
        )
        print(f"store: {store.root}")
        print(f"entries: {stats['entries']}")
        print(f"experiments: {', '.join(stats['experiments']) or '(none)'}")
        print(f"hits: {stats['hits']}")
        print(f"misses: {stats['misses']}")
        print(f"puts: {stats['puts']}")
        print(f"journal-bytes: {journal_bytes}")
        if store.recovered_torn_tail:
            print("note: a torn final journal line was repaired on open", file=sys.stderr)
        return 0

    if args.command == "ls":
        shown = 0
        try:
            for entry in store.entries():
                key = entry.key
                if args.experiment and key.experiment_id != args.experiment:
                    continue
                shown += 1
                flags = " TRUNCATED" if entry.record.truncated else ""
                print(
                    f"{key.experiment_id} {key.heuristic} m{key.metatask_index} "
                    f"rep{key.repetition} seed={key.seed} config={key.config_hash} "
                    f"schema=v{key.schema_version}{flags}"
                )
        except BrokenPipeError:
            # Listing into `head` & friends: stop quietly once the pipe closes.
            sys.stderr.close()
            return 0
        print(f"{shown} cached cell(s)", file=sys.stderr)
        return 0

    # prune
    if not (args.all or args.experiment or args.config_hash):
        parser.error("prune needs a filter: --experiment ID, --config-hash HASH or --all")

    def doomed(entry) -> bool:
        if args.all:
            return True
        if args.experiment and entry.key.experiment_id != args.experiment:
            return False
        if args.config_hash and entry.key.config_hash != args.config_hash:
            return False
        return True

    removed = store.prune(doomed)
    store.flush_stats()
    print(f"pruned {removed} cell(s); {len(store)} left", file=sys.stderr)
    return 0


def _validate_main(argv: List[str]) -> int:
    from .errors import ReproError
    from .stats import run_validation

    parser = build_validate_parser()
    args = parser.parse_args(argv)
    try:
        report = run_validation(
            seed=args.seed,
            quick=args.quick,
            include_sequential=not args.skip_sequential,
        )
    except ReproError as exc:
        parser.error(str(exc))
    print(report.render())
    if args.json:
        try:
            report.save_json(args.json)
        except OSError as exc:
            parser.error(f"could not write {args.json!r}: {exc}")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0 if report.passed else 1


def _check_main(argv: List[str]) -> int:
    from .analysis import RULE_REGISTRY, run_check
    from .errors import AnalysisError

    parser = build_check_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[rule_id]
            print(f"{rule.id:12} {rule.title}")
        return 0

    select = None
    if args.select:
        select = [rule_id.strip() for rule_id in args.select.split(",") if rule_id.strip()]
    try:
        report = run_check(
            args.paths or None,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            select=select,
            json_path=args.json,
        )
    except (AnalysisError, OSError) as exc:
        parser.error(str(exc))
    print(report.render())
    if args.json:
        print(f"wrote {args.json}", file=sys.stderr)
    return report.exit_code


def _profile_main(argv: List[str]) -> int:
    from .errors import ReproError
    from .obs.profile import profile_scenario, trace_scenario

    parser = build_profile_parser()
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    heuristics = None
    if args.heuristics:
        heuristics = [name.strip() for name in args.heuristics.split(",") if name.strip()]
    if args.command == "run":
        try:
            report = profile_scenario(
                args.scenario,
                tasks=args.tasks,
                metatasks=args.metatasks,
                repetitions=args.reps,
                heuristics=heuristics,
                seed=args.seed,
                jobs=args.jobs,
                profile=args.profile,
                top=args.top,
            )
        except ReproError as exc:
            parser.error(str(exc))
        # Write the artifact before rendering: a closed stdout (``| head``)
        # must not lose the machine-readable report.
        if args.json:
            try:
                report.save_json(args.json)
            except OSError as exc:
                parser.error(f"could not write {args.json!r}: {exc}")
        print(report.render())
        if args.profile and args.jobs > 1:
            print("note: --profile is forced off at --jobs > 1", file=sys.stderr)
        if args.json:
            print(f"wrote {args.json}", file=sys.stderr)
        return 0

    # trace
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be >= 1")
    try:
        result = trace_scenario(
            args.scenario,
            out=args.out,
            chrome_out=args.chrome,
            tasks=args.tasks,
            metatasks=args.metatasks,
            repetitions=args.reps,
            heuristics=heuristics,
            seed=args.seed,
            jobs=args.jobs,
            limit=args.limit,
        )
    except ReproError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"could not write trace: {exc}")
    print(result.render())
    return 0


def _split_csv(option: Optional[str]) -> Optional[List[str]]:
    if not option:
        return None
    return [item.strip() for item in option.split(",") if item.strip()]


def _metrics_main(argv: List[str]) -> int:
    from .errors import ReproError, ResultsError

    parser = build_metrics_parser()
    args = parser.parse_args(argv)

    if args.command == "record":
        from .obs.profile import metrics_scenario

        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.interval is not None and args.interval <= 0:
            parser.error("--interval must be > 0")
        if args.window is not None and args.window <= 0:
            parser.error("--window must be > 0")
        try:
            result = metrics_scenario(
                args.scenario,
                out=args.out,
                csv_out=args.csv,
                chrome_out=args.chrome,
                tasks=args.tasks,
                metatasks=args.metatasks,
                repetitions=args.reps,
                heuristics=_split_csv(args.heuristics),
                seed=args.seed,
                jobs=args.jobs,
                interval=args.interval,
                window=args.window,
            )
        except ReproError as exc:
            parser.error(str(exc))
        except OSError as exc:
            parser.error(f"could not write metrics: {exc}")
        print(result.render())
        return 0

    from .obs import read_metrics_jsonl, views_from_rows

    def load_views(path: str, prefix: str = ""):
        try:
            _, rows = read_metrics_jsonl(path)
        except (ResultsError, OSError) as exc:
            parser.error(str(exc))
        return views_from_rows(rows, prefix=prefix)

    if args.command == "show":
        from .obs import render_metrics_text

        if args.width < 1:
            parser.error("--width must be >= 1")
        views = load_views(args.file)
        try:
            print(render_metrics_text(views, columns=_split_csv(args.columns), width=args.width))
        except ReproError as exc:
            parser.error(str(exc))
        return 0

    # plot
    import os as _os

    views = []
    for path in args.files:
        # Several files overlay in one report; labels get the filename stem
        # so "before.jsonl" vs "after.jsonl" series stay tellable apart.
        prefix = (
            f"{_os.path.splitext(_os.path.basename(path))[0]}:"
            if len(args.files) > 1
            else ""
        )
        views.extend(load_views(path, prefix=prefix))
    from .obs import write_metrics_html

    try:
        write_metrics_html(
            args.out, views, columns=_split_csv(args.columns), title=args.title
        )
    except ReproError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"could not write {args.out!r}: {exc}")
    print(f"wrote {args.out} ({len(views)} series)", file=sys.stderr)
    return 0


def _bench_main(argv: List[str]) -> int:
    from .bench import (
        BenchReport,
        compare_reports,
        get_suite,
        history_entries,
        next_history_path,
        render_history,
        run_suite,
    )
    from .errors import ReproError

    parser = build_bench_parser()
    args = parser.parse_args(argv)

    def gate_kwargs():
        if args.max_slowdown < 0 or args.counter_tolerance < 0:
            parser.error("--max-slowdown and --counter-tolerance must be >= 0")
        return {
            "max_slowdown": args.max_slowdown,
            "counter_tolerance": args.counter_tolerance,
            "wall_gate": not args.no_wall_gate,
            "counter_gate": not args.no_counter_gate,
        }

    if args.command == "history":
        try:
            entries = history_entries(args.directory)
        except ReproError as exc:
            parser.error(str(exc))
        print(render_history(entries))
        return 0

    if args.command == "compare":
        kwargs = gate_kwargs()
        try:
            baseline = BenchReport.load_json(args.baseline)
            current = BenchReport.load_json(args.current)
            comparison = compare_reports(baseline, current, **kwargs)
        except ReproError as exc:
            parser.error(str(exc))
        print(comparison.render())
        return 0 if comparison.ok else 1

    # run
    kwargs = gate_kwargs()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        cases = get_suite(args.suite)
    except ReproError as exc:
        parser.error(str(exc))
    wanted = _split_csv(args.cases)
    if wanted:
        by_name = {case.name: case for case in cases}
        unknown = [name for name in wanted if name not in by_name]
        if unknown:
            parser.error(
                f"unknown case(s) {unknown} in suite {args.suite!r} "
                f"(has: {', '.join(sorted(by_name))})"
            )
        cases = tuple(by_name[name] for name in wanted)
    try:
        report = run_suite(
            cases,
            suite=args.suite,
            seed=args.seed,
            jobs=args.jobs,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except ReproError as exc:
        parser.error(str(exc))
    # Artifacts first: a closed stdout must not lose the JSON.
    if args.json:
        try:
            report.save_json(args.json)
        except OSError as exc:
            parser.error(f"could not write {args.json!r}: {exc}")
    if args.history:
        try:
            archived = report.save_json(next_history_path(args.history))
        except OSError as exc:
            parser.error(f"could not archive to {args.history!r}: {exc}")
        print(f"archived {archived}", file=sys.stderr)
    print(report.render())
    if args.json:
        print(f"wrote {args.json}", file=sys.stderr)
    if args.compare:
        try:
            baseline = BenchReport.load_json(args.compare)
            comparison = compare_reports(baseline, report, **kwargs)
        except ReproError as exc:
            parser.error(str(exc))
        print(comparison.render())
        return 0 if comparison.ok else 1
    return 0


def _results_main(argv: List[str]) -> int:
    from . import api
    from .errors import ResultsError

    parser = build_results_parser()
    args = parser.parse_args(argv)

    if args.command == "show":
        try:
            result_set = api.load_results(args.file)
        except (ResultsError, OSError) as exc:
            parser.error(str(exc))
        experiments = sorted(set(result_set.column("experiment_id")))
        if len(experiments) <= 1:
            _print_result(result_set.pivot(), args.markdown)
        else:
            # A multi-experiment file (e.g. a sweep): one table per
            # experiment, rendered from that experiment's records.
            parts = []
            for experiment_id, group in result_set.group_by("experiment_id").items():
                table = group.pivot(title=str(experiment_id), notes=())
                parts.append(
                    table.render_markdown() if args.markdown else table.render()
                )
            print("\n\n".join(parts))
        return 0
    # diff
    if args.rel_tol < 0:
        parser.error("--rel-tol must be >= 0")
    try:
        diff = api.compare(args.file_a, args.file_b, rel_tol=args.rel_tol)
    except (ResultsError, OSError) as exc:
        parser.error(str(exc))
    print(diff.render())
    return 0 if diff.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the CLI."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "scenario":
        return _scenario_main(argv[1:])
    if argv and argv[0] == "results":
        return _results_main(argv[1:])
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "validate":
        return _validate_main(argv[1:])
    if argv and argv[0] == "check":
        return _check_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "metrics":
        return _metrics_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        print(_list_experiments())
        return 0

    config = _config_from(args, parser)
    result = run_experiment(args.experiment, config)
    _print_result(result, args.markdown)
    _maybe_save(result, args, parser)
    _maybe_report_store(config)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
