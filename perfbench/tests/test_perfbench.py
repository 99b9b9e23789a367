"""Tests of the benchmark's own arithmetic and checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.check import check_run, records_digest  # noqa: E402
from perfbench.spans import (  # noqa: E402
    SpanRecorder,
    percentile,
    reportable_percentile,
    self_times,
    tail_percentile,
)
from repro.workload.tasks import TaskStatus  # noqa: E402


# --------------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_children_once_and_clips_them():
    #   0: root        [0, 10]
    #   1: child       [1, 4]   (its child 3 covers [2, 3])
    #   2: child       [3, 6]   overlaps child 1 on [3, 4]
    #   3: grandchild  [2, 3]
    #   4: child       [9, 12]  runs past the root's end: clipped to [9, 10]
    starts = [0.0, 1.0, 3.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    selfs = self_times(starts, ends, parents)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[1] == pytest.approx(2.0)  # 3 - grandchild's 1
    assert selfs[2] == pytest.approx(3.0)
    # root: 10 - union([1,4], [3,6], [9,10]) = 10 - (5 + 1)
    assert selfs[0] == pytest.approx(4.0)


def test_self_times_of_a_properly_nested_tree_add_up_to_the_root():
    ticks = iter(float(t) for t in range(100))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    root = recorder.open("campaign")
    for _ in range(3):
        cell = recorder.open("cell")
        inner = recorder.open("agent")
        recorder.close(inner)
        recorder.close(cell)
    recorder.close(root)
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    assert sum(selfs) == pytest.approx(recorder.ends[root] - recorder.starts[root])
    assert all(s >= 0 for s in selfs)
    assert list(recorder.parents) == [-1, 0, 1, 0, 3, 0, 5]


def test_wrapped_calls_nest_and_stamp_the_cell_id():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    recorder.cell = 7
    assert outer(1) == 4
    assert recorder.names == ["outer", "inner"]
    assert list(recorder.parents) == [-1, 0]
    assert list(recorder.cells) == [7, 7]
    assert recorder.stack == []


# --------------------------------------------------------------------------- #
# the ten-beyond percentile rule
# --------------------------------------------------------------------------- #
def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile([0.0, 10.0], 25) == 2.5


@pytest.mark.parametrize(
    "count, wanted, expected",
    [
        (1000, 99, 99.0),  # 10 samples beyond p99: allowed as asked
        (999, 99, 100.0 * (1 - 10 / 999)),
        (100, 99, 90.0),  # only p90 leaves ten beyond
        (20, 50, 50.0),
        (19, 50, None),  # not even the median qualifies
        (0, 50, None),
    ],
)
def test_reportable_percentile_keeps_ten_samples_beyond(count, wanted, expected):
    got = reportable_percentile(count, wanted)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected)
        assert count * (1 - got / 100.0) >= 10 - 1e-9


def test_tail_percentile_reports_the_percentile_it_used():
    values = [float(v) for v in range(1, 101)]
    used, value = tail_percentile(values, 99)
    assert used == pytest.approx(90.0)
    assert value == pytest.approx(percentile(values, 90.0))
    assert tail_percentile(values[:5], 50) == (None, None)


# --------------------------------------------------------------------------- #
# correctness checks and the digest
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_campaign():
    from perfbench.run import build_inputs
    from perfbench.workloads import Workload
    from repro.experiments.campaign import run_campaign

    workload = Workload(
        name="unit",
        scenario="paper-low-rate",
        heuristics=("mct", "hmct"),
        tasks=12,
        metatasks=1,
        contents=1,
    )
    inputs = build_inputs(workload, seed=11)
    content = inputs.contents[0]
    table = run_campaign(
        experiment_id="perfbench-unit",
        title="unit",
        platform=inputs.platform,
        metatasks=content.metatasks,
        config=content.config,
    )
    return inputs, table


def test_checks_pass_on_a_real_campaign(small_campaign):
    inputs, table = small_campaign
    runs = [run for outcome in table.outcomes.values() for run in outcome.runs]
    assert len(runs) == 2
    for run in runs:
        assert check_run(run, inputs.contents[0].task_counts[run.metatask_name]) == []


def test_digest_is_stable_and_order_free(small_campaign):
    _, table = small_campaign
    records = list(table.result_set)
    assert records_digest(records) == records_digest(list(reversed(records)))


def test_digest_check_fails_on_a_perturbed_record(small_campaign):
    _, table = small_campaign
    records = list(table.result_set)
    metrics = dict(records[0].metrics)
    metrics["sum_flow"] = metrics["sum_flow"] + 1e-9
    perturbed = [dataclasses.replace(records[0], metrics=metrics)] + records[1:]
    assert records_digest(perturbed) != records_digest(records)


def test_check_run_flags_broken_task_states(small_campaign):
    inputs, table = small_campaign
    run = table.outcomes["mct"].runs[0]
    submitted = inputs.contents[0].task_counts[run.metatask_name]
    tasks = run.tasks
    saved = [(t.status, t.completion_time) for t in tasks[:2]]
    try:
        tasks[0].status = TaskStatus.RUNNING
        tasks[1].completion_time = tasks[1].arrival - 1.0
        problems = check_run(run, submitted)
    finally:
        for task, (status, completion) in zip(tasks, saved):
            task.status, task.completion_time = status, completion
    assert any("ended running" in p for p in problems)
    assert any("before its submission" in p for p in problems)
    assert any("!= 12 submitted" in p for p in problems)
    assert check_run(run, submitted + 1) != []


def test_instrumented_campaign_keeps_records_and_restores_the_classes(small_campaign):
    from perfbench.layers import Counts, instrument
    from repro.core.htm import HistoricalTraceManager
    from repro.experiments.campaign import run_campaign
    from repro.simulation.fluid import FluidNetwork

    inputs, table = small_campaign
    originals = (HistoricalTraceManager.predict, FluidNetwork.advance_to)
    recorder, counts = SpanRecorder(), Counts()
    with instrument(recorder, counts):
        traced = run_campaign(
            experiment_id="perfbench-unit",
            title="unit",
            platform=inputs.platform,
            metatasks=inputs.contents[0].metatasks,
            config=inputs.contents[0].config,
        )
    assert (HistoricalTraceManager.predict, FluidNetwork.advance_to) == originals
    assert records_digest(traced.result_set) == records_digest(table.result_set)
    assert recorder.names.count("cell") == 2
    assert counts.engine_events > 0 and counts.truth_advances > 0
    assert counts.whatif_runs > 0 and counts.whatif_advances > 0
    assert recorder.stack == []
