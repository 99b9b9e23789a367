#!/usr/bin/env python3
"""Benchmark entry point: simulated tasks per second, with an optional layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload htm-wide --seed 2003 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation, in
passes over the workload's rounds until ``--seconds`` have passed (at least
two passes).  ``--trace 1`` runs one pass untraced and one traced, and
reports the per-layer metrics.  Either way the last line of standard output
is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every round is checked (see ``check.py``); the process exits 1 when a check
fails and 2 when the simulator cannot be imported or set up.  A full report,
and for ``--trace 1`` every span, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
clock = time.perf_counter

#: Fresh-process set-up probes per run (their median is ``setup_s``).
SETUP_PROBES = 5
#: A --trace 0 run measures at least this many passes, however long they
#: take, and times each round at its best over exactly this many passes, so
#: the estimate does not depend on how many passes fit in ``--seconds``.
BEST_OF = 2

#: The end-to-end metrics of the JSON line (--trace 0), in print order.
END_TO_END = ("tasks_per_s", "setup_s", "peak_rss_mb")

#: Iterations of one host-speed calibration burst, and the burst's duration
#: on the reference host (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11, idle).
CALIBRATION_ITERATIONS = 5000
CALIBRATION_REF_S = 0.0035


def calibration_burst() -> float:
    """Host seconds for a fixed interpreter-bound mix of heap, dict and float work.

    It touches no simulator code, so its duration tracks only how fast the
    host runs Python right now (other tenants, frequency), not the program
    under test.
    """
    started = clock()
    heap: list = []
    table: dict = {}
    x = 0.5
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 3.7) % 1.0
        heapq.heappush(heap, (x, i))
        table[i & 1023] = x
        if len(heap) > 64:
            heapq.heappop(heap)
    return clock() - started


def host_speed_s() -> float:
    """Current calibration-burst duration (median of five bursts).

    One unmeasured burst goes first: after a process pool has forked, the
    first writes to each memory page fault, which would read as a slow host.
    """
    calibration_burst()
    return statistics.median(calibration_burst() for _ in range(5))


class HostSpeed:
    """Calibration on every CPU a workload keeps busy.

    A ``jobs=2`` campaign runs on both CPUs, so one helper process times
    bursts on the second CPU while this process times them on the first;
    the mean of the two is the host speed.  ``close`` stops the helpers.
    """

    def __init__(self, cpus: int):
        self.helpers = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--calibration-helper"],
                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(cpus - 1)
        ]

    def measure(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        durations = [host_speed_s()]
        durations.extend(float(helper.stdout.readline()) for helper in self.helpers)
        return statistics.mean(durations)

    def close(self) -> None:
        for helper in self.helpers:
            helper.communicate(timeout=60)  # closes stdin: the helper exits


def calibration_helper() -> int:
    """Helper process loop: one ``host_speed_s`` reading per input line."""
    for _ in sys.stdin:
        print(repr(host_speed_s()), flush=True)
    return 0


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_simulator() -> None:
    """Import the simulator from this checkout's ``src/`` (exit 2 if absent)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail_setup(f"no simulator sources at {os.path.relpath(src)}/repro")
    sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except Exception as exc:  # pragma: no cover - broken checkout
        _fail_setup(f"cannot import the simulator: {exc!r}")


# --------------------------------------------------------------------------- #
# set-up: every input derives from the seed
# --------------------------------------------------------------------------- #
@dataclass
class Content:
    """One round's inputs: a configuration and its metatasks."""

    index: int
    config: object
    metatasks: list
    task_counts: Dict[str, int]


@dataclass
class Inputs:
    workload: object
    platform: object
    contents: List[Content]
    gen_s: float


def build_inputs(workload, seed: int) -> Inputs:
    """Scenario → per-content configuration → platform and metatasks."""
    from repro.experiments.config import ExperimentConfig, ExperimentScale
    from repro.scenarios.scenario import build_scenario_metatasks, get_scenario, scenario_config

    scenario = get_scenario(workload.scenario)
    scale = ExperimentScale(
        name=f"perfbench-{workload.name}",
        task_count=workload.tasks,
        metatask_count=workload.metatasks,
        repetitions=1,
    )
    contents = []
    gen_s = 0.0
    for index in range(workload.contents):
        base = ExperimentConfig(scale=scale, seed=seed * 1000 + index)
        config = replace(
            scenario_config(scenario, base),
            heuristics=workload.heuristics,
            reference=workload.reference,
        )
        started = clock()
        metatasks = build_scenario_metatasks(scenario, config)
        gen_s += clock() - started
        contents.append(
            Content(index, config, metatasks, {m.name: len(m) for m in metatasks})
        )
    return Inputs(workload, scenario.platform_factory(), contents, gen_s)


def probe_setup_s(workload: str, seed: int) -> List[Tuple[float, float]]:
    """``(raw, host-normalised)`` set-up times of several fresh processes.

    Set-up is host time from a fresh process's start to its first cell.
    """
    samples = []
    speed = host_speed_s()
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        # CLOCK_MONOTONIC is system-wide, so the child's reading compares
        # directly with the launch time taken here.
        raw = float(done.stdout.strip().splitlines()[-1]) - launched
        after = host_speed_s()
        samples.append((raw, raw * CALIBRATION_REF_S / ((speed + after) / 2.0)))
        speed = after
    return samples


# --------------------------------------------------------------------------- #
# rounds and passes
# --------------------------------------------------------------------------- #
@dataclass
class Round:
    wall_s: float
    tasks: int
    cells: int
    digest: str
    #: heuristic -> (terminal tasks, host seconds between cell boundaries)
    per_heuristic: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    warm_s: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Reference over current calibration-burst duration around the round:
    #: multiplying a host time by it gives reference-host seconds.
    host_scale: float = 1.0


class CellClock:
    """Campaign observer: host time at each cell boundary, as cells stream in."""

    def __init__(self):
        self.started = 0.0
        self.marks: List[Tuple[float, str, int]] = []

    def on_campaign_start(self, experiment_id, total_cells):
        self.started = clock()

    def on_cell_complete(self, index, total, record, cached=False, run=None):
        self.marks.append((clock(), record.heuristic, len(run.tasks) if run else 0))

    def on_campaign_end(self, result_set):
        pass

    def per_heuristic(self) -> Dict[str, Tuple[int, float]]:
        out: Dict[str, Tuple[int, float]] = {}
        previous = self.started
        for at, heuristic, tasks in self.marks:
            done, spent = out.get(heuristic, (0, 0.0))
            out[heuristic] = (done + tasks, spent + at - previous)
            previous = at
        return out


def run_round(inputs: Inputs, content: Content, jobs: int, recorder=None) -> Round:
    """One campaign over one content (cold, then warm when a store is used)."""
    from repro.experiments.campaign import run_campaign
    from repro.obs.counters import merge_counters

    from perfbench.check import check_run, records_digest

    store_dir = None
    if inputs.workload.store:
        store_dir = os.path.join(OUT_DIR, f"store-{os.getpid()}")
        shutil.rmtree(store_dir, ignore_errors=True)

    def campaign(observers):
        span = recorder.open("campaign") if recorder is not None else None
        try:
            return run_campaign(
                experiment_id=f"perfbench-{inputs.workload.name}",
                title=f"perfbench {inputs.workload.name} content {content.index}",
                platform=inputs.platform,
                metatasks=content.metatasks,
                config=content.config,
                jobs=jobs,
                observers=observers,
                store=store_dir,
            )
        finally:
            if span is not None:
                recorder.close(span)

    try:
        cell_clock = CellClock()
        started = clock()
        table = campaign([cell_clock])
        wall = clock() - started
        runs = [run for outcome in table.outcomes.values() for run in outcome.runs]
        problems: List[str] = []
        for run in runs:
            problems.extend(check_run(run, content.task_counts[run.metatask_name]))
        cells = len(table.result_set)
        if table.cache_info["executed"] != cells:
            problems.append(
                f"cold campaign executed {table.cache_info['executed']} of {cells} cells"
            )
        digest = records_digest(table.result_set)
        result = Round(
            wall_s=wall,
            tasks=sum(len(run.tasks) for run in runs),
            cells=cells,
            digest=digest,
            per_heuristic=cell_clock.per_heuristic() if jobs == 1 else {},
            problems=problems,
            counters=merge_counters(run.counters for run in runs),
        )
        result.counters["tasks.completed"] = sum(run.completed_count for run in runs)
        if store_dir is not None:
            started = clock()
            warm = campaign([])
            result.warm_s = clock() - started
            if warm.cache_info["executed"] != 0:
                problems.append(f"warm campaign executed {warm.cache_info['executed']} cells")
            if records_digest(warm.result_set) != digest:
                problems.append("warm campaign records differ from the cold campaign's")
        return result
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


Pass = List[Round]


def measure(
    inputs: Inputs, seconds: float, jobs: int, min_passes: int, recorder=None
) -> Tuple[List[Pass], List[str]]:
    """Closed loop: whole passes back to back until ``seconds`` have passed."""
    passes: List[Pass] = []
    errors: List[str] = []
    host = HostSpeed(jobs)
    try:
        started = clock()
        before = host.measure()
        while len(passes) < min_passes or clock() - started < seconds:
            current: Pass = []
            for content in inputs.contents:
                try:
                    result = run_round(inputs, content, jobs, recorder)
                except Exception as exc:  # a cell raised: the round failed whole
                    errors.append(f"pass {len(passes)} content {content.index} raised {exc!r}")
                    return passes, errors
                after = host.measure()
                result.host_scale = CALIBRATION_REF_S / ((before + after) / 2.0)
                before = after
                current.append(result)
            passes.append(current)
        return passes, errors
    finally:
        host.close()


def pass_digest(one_pass: Pass) -> str:
    """Digest of a whole pass: its rounds' record digests in content order."""
    return hashlib.sha256("".join(r.digest for r in one_pass).encode("ascii")).hexdigest()


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(passes: List[Pass], normalise: bool = True) -> Dict[str, float]:
    """Throughput over a pass, each round timed at its best over the passes.

    Round times are first converted to reference-host seconds with the
    calibration bursts run around each round (``normalise``), which cancels
    the host's speed drifting over minutes as other tenants come and go.
    Contention only ever slows a round down, so the fastest of a round's
    repeats is the steadiest estimate of its cost.  Callers pass a fixed
    number of passes (``BEST_OF``, or one each for the halves of a traced
    run), so a faster program does not also get more repeats.
    """
    contents = range(len(passes[0]))

    def best(seconds) -> float:
        return sum(
            min(seconds(p[k]) * (p[k].host_scale if normalise else 1.0) for p in passes)
            for k in contents
        )

    tasks = sum(r.tasks for r in passes[0])
    out = {"tasks_per_s": tasks / best(lambda r: r.wall_s)}
    for heuristic in sorted(passes[0][0].per_heuristic):
        done = sum(r.per_heuristic[heuristic][0] for r in passes[0])
        out[f"tasks_per_s.{heuristic}"] = done / best(lambda r: r.per_heuristic[heuristic][1])
    if passes[0][0].warm_s is not None:
        out["warm_s"] = best(lambda r: r.warm_s)
    return out


def per_layer(inputs: Inputs, passes: List[Pass], recorder, counts, overhead: float):
    """The per-layer table, every sum per pass, times in reference-host units."""
    from perfbench.layers import LAYER_SPANS
    from perfbench.spans import self_times, tail_percentile

    n = len(passes)
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    self_by_span: Dict[str, float] = {}
    total_by_span: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for i, name in enumerate(recorder.names):
        self_by_span[name] = self_by_span.get(name, 0.0) + selfs[i]
        total_by_span[name] = total_by_span.get(name, 0.0) + recorder.ends[i] - recorder.starts[i]
        calls[name] = calls.get(name, 0) + 1

    def per_pass(value: float) -> float:
        return value / n

    def layer_self(layer: str) -> float:
        return sum(self_by_span.get(span, 0.0) for span in LAYER_SPANS[layer])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    notes: List[str] = []

    def tail(span: str, wanted: float, scale: float) -> float:
        values = recorder.durations(span)
        used, value = tail_percentile(values, wanted)
        if used is None:
            if values:
                notes.append(f"{span}: {len(values)} samples, too few for p{wanted:g}")
            return 0.0
        if used != wanted:
            notes.append(f"{span}: p{wanted:g} reported as p{used:.2f} ({len(values)} samples)")
        return value * scale

    counters: Dict[str, int] = {}
    for r in passes[0]:
        for key, value in r.counters.items():
            counters[key] = counters.get(key, 0) + value
    baseline_lookups = counters.get("htm.baseline_cache_hits", 0) + counters.get(
        "htm.baseline_cache_misses", 0
    )
    wall = total_by_span.get("campaign", 0.0)
    metrics: Dict[str, Tuple[float, str]] = {
        "engine.events": (per_pass(counts.engine_events), "count"),
        "engine.self_s": (per_pass(layer_self("engine")), "s"),
        "engine.us_per_event": (ratio(layer_self("engine"), counts.engine_events) * 1e6, "us"),
        "server.submits": (per_pass(calls.get("server.submit", 0)), "count"),
        "fluid.truth.advances": (per_pass(counts.truth_advances), "count"),
        "fluid.truth.self_s": (per_pass(layer_self("fluid_truth")), "s"),
        "monitor.reports": (per_pass(calls.get("monitor", 0)), "count"),
        "monitor.self_s": (per_pass(layer_self("monitor")), "s"),
        "agent.decisions": (per_pass(calls.get("agent", 0)), "count"),
        "agent.decision_ms.p50": (tail("agent", 50, 1e3), "ms"),
        "agent.decision_ms.p99": (tail("agent", 99, 1e3), "ms"),
        "agent.self_s": (per_pass(layer_self("agent")), "s"),
        "agent.useful_ratio": (
            ratio(counters.get("tasks.completed", 0), counters.get("agent.mappings", 0)),
            "ratio",
        ),
        "htm.predicts": (per_pass(calls.get("htm.predict", 0)), "count"),
        "htm.predict_s": (per_pass(total_by_span.get("htm.predict", 0.0)), "s"),
        "htm.predict_ms.p50": (tail("htm.predict", 50, 1e3), "ms"),
        "htm.predict_ms.p99": (tail("htm.predict", 99, 1e3), "ms"),
        "htm.whatif.runs": (per_pass(counts.whatif_runs), "count"),
        "htm.whatif.tasks": (per_pass(counts.whatif_tasks), "count"),
        "htm.whatif.advances": (per_pass(counts.whatif_advances), "count"),
        "htm.whatif.self_s": (per_pass(self_by_span.get("htm.whatif", 0.0)), "s"),
        "htm.baseline_hit_ratio": (
            ratio(counters.get("htm.baseline_cache_hits", 0), baseline_lookups), "ratio"
        ),
        "htm.fluid.stage_events": (float(counters.get("htm.fluid.stage_events", 0)), "count"),
        "htm.syncs": (per_pass(calls.get("htm.sync", 0)), "count"),
        "htm.sync_s": (per_pass(total_by_span.get("htm.sync", 0.0)), "s"),
        "campaign.cells": (per_pass(calls.get("cell", 0)), "count"),
        "campaign.cell_s.p50": (tail("cell", 50, 1.0), "s"),
        "campaign.cell_s.max": (max(recorder.durations("cell") or [0.0]), "s"),
        "campaign.overhead_s": (per_pass(wall - total_by_span.get("cell", 0.0)), "s"),
        "store.puts": (per_pass(calls.get("store.put", 0)), "count"),
        "store.put_s": (per_pass(total_by_span.get("store.put", 0.0)), "s"),
        "store.gets": (per_pass(calls.get("store.get", 0)), "count"),
        "store.get_s": (per_pass(total_by_span.get("store.get", 0.0)), "s"),
        "store.hit_ratio": (ratio(counts.store_hits, calls.get("store.get", 0)), "ratio"),
        "workload.gen_s": (inputs.gen_s, "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    for layer in LAYER_SPANS:
        metrics[f"share.{layer}"] = (ratio(layer_self(layer), wall), "ratio")
    time_scale = statistics.mean(r.host_scale for one in passes for r in one)
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms", "us"):
            metrics[name] = (value * time_scale, unit)
    return metrics, notes


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def parse_args(argv=None):
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_table(title: str, rows: Dict[str, Tuple[float, str]]) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    if (argv if argv is not None else sys.argv[1:]) == ["--calibration-helper"]:
        return calibration_helper()
    sys.path.insert(0, ROOT)
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    args = parse_args(argv)
    _import_simulator()
    workload = WORKLOADS[args.workload]
    try:
        inputs = build_inputs(workload, args.seed)
    except Exception as exc:
        _fail_setup(f"cannot build workload {workload.name!r}: {exc!r}")
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)

    errors: List[str] = []
    traced: List[Pass] = []
    per_layer_metrics: Dict[str, Tuple[float, str]] = {}
    notes: List[str] = []
    if args.trace == 0:
        passes, errors = measure(inputs, args.seconds, workload.jobs, BEST_OF)
    else:
        from perfbench.layers import Counts, instrument
        from perfbench.spans import SpanRecorder

        # One pass untraced, then one traced, both serial: spans recorded in
        # pool workers would be lost, and the overhead ratio must compare
        # like with like.  A pass is sized to take about half of --seconds.
        passes, errors = measure(inputs, 0.0, 1, 1)
        recorder, counts = SpanRecorder(), Counts()
        if not errors:
            with instrument(recorder, counts):
                traced, errors = measure(inputs, 0.0, 1, 1, recorder)
    rss = peak_rss_mb()

    all_passes = passes + traced
    problems = [p for one in all_passes for r in one for p in r.problems] + errors
    digests = sorted({pass_digest(one) for one in all_passes})
    if len(digests) > 1:
        problems.append(f"record digests differ across passes: {digests}")
    attempted = sum(r.cells for one in all_passes for r in one)
    failed = sum(r.cells for one in all_passes for r in one if r.problems)
    if errors:
        attempted += workload.cells_per_round
        failed += workload.cells_per_round
    correct = not problems and bool(passes)

    metrics: Dict[str, Tuple[float, str]] = {}
    raw_tasks_per_s = None
    if passes:
        for name, value in end_to_end(passes[:BEST_OF]).items():
            metrics[name] = (value, "s" if name == "warm_s" else "1/s")
        raw_tasks_per_s = end_to_end(passes[:BEST_OF], normalise=False)["tasks_per_s"]
    if traced and not errors:
        overhead = (
            end_to_end(passes[:1])["tasks_per_s"] / end_to_end(traced[:1])["tasks_per_s"]
        )
        per_layer_metrics, notes = per_layer(inputs, traced, recorder, counts, overhead)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-s{args.seed}.csv")
        recorder.write_csv(spans_path)

    samples = probe_setup_s(workload.name, args.seed) if correct else []
    if samples:
        metrics["setup_s"] = (statistics.median(norm for _, norm in samples), "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")

    digest = digests[0] if len(digests) == 1 else None
    digests_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
    with open(digests_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if args.seed == DEFAULT_SEED and workload.name in recorded:
        pin = "matches" if digest == recorded[workload.name] else "DIFFERS FROM"
        digest_note = f"{pin} the recorded seed-{DEFAULT_SEED} digest"
    else:
        digest_note = f"digests are recorded for seed {DEFAULT_SEED} only"

    jobs = workload.jobs if args.trace == 0 else 1
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {len(passes)} untraced + {len(traced)} traced passes of "
        f"{workload.contents} rounds x {workload.cells_per_round} cells, jobs={jobs}"
    )
    print(f"  digest {digest} ({digest_note})")
    _print_table("end to end", metrics)
    if raw_tasks_per_s is not None:
        scales = [r.host_scale for one in passes[:BEST_OF] for r in one]
        raw_setup = statistics.median(raw for raw, _ in samples) if samples else math.nan
        print(
            f"  host-normalised: raw tasks_per_s {raw_tasks_per_s:.6g}, raw setup_s "
            f"{raw_setup:.6g}; host speed factor median {statistics.median(scales):.3f} "
            f"(range {min(scales):.3f}-{max(scales):.3f})"
        )
    if per_layer_metrics:
        _print_table("per layer (per pass of the traced run)", per_layer_metrics)
    for note in notes:
        print(f"  note: {note}")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "digest_note": digest_note,
        "problems": problems,
        "notes": notes,
        "setup_samples_s": samples,
        "raw_tasks_per_s": raw_tasks_per_s,
        "host_scales": [[r.host_scale for r in one] for one in passes + traced],
        "pass_walls_s": [sum(r.wall_s for r in one) for one in passes],
        "traced_pass_walls_s": [sum(r.wall_s for r in one) for one in traced],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer_metrics.items()},
    }
    report_path = os.path.join(OUT_DIR, f"report-{workload.name}-s{args.seed}-t{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    wanted = per_layer_metrics if args.trace else {
        name: metrics[name] for name in END_TO_END if name in metrics
    }
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in wanted.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
