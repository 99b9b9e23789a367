"""Every obs/bench file writer goes through the crash-safe ``atomic_write_text``.

Overwriting an existing report must keep its permission bits (a shared
results file stays shared) and must leave no temporary file behind; a failed
write must leave the previous content untouched.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.bench.report import BenchCaseResult, BenchReport
from repro.obs import (
    CellMetrics,
    CellTrace,
    MetricSeries,
    PerfReport,
    SeriesView,
    TraceEvent,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_html,
    write_metrics_jsonl,
    write_trace_jsonl,
)


def _cell_trace():
    return CellTrace(
        heuristic="mct",
        metatask_index=0,
        repetition=0,
        events=(TraceEvent(0.5, "task.submit", (("task", "t1"),)),),
    )


def _cell_metrics():
    series = MetricSeries()
    series.append(0.0, {"inflight": 0.0})
    series.append(30.0, {"inflight": 1.0})
    return [CellMetrics.from_series("mct", 0, 0, series)]


def _perf_report():
    return PerfReport(
        scenario="paper-low-rate",
        experiment_id="scenario-paper-low-rate",
        scale={"tasks_per_metatask": 10},
        phases=[("simulate", 0.5)],
        counters={"fluid.completions": 10},
    )


def _bench_report():
    report = BenchReport(suite="test", seed=2003, jobs=1)
    report.cases.append(
        BenchCaseResult(
            name="case",
            scenario="paper-low-rate",
            scale={"tasks_per_metatask": 10},
            wall_s=0.5,
            phases={"simulate": 0.5},
            tasks_simulated=10,
            tasks_per_s=20.0,
            cells=1,
            counters={"fluid.completions": 10},
        )
    )
    return report


WRITERS = {
    "trace-jsonl": lambda path: write_trace_jsonl(path, [_cell_trace()]),
    "chrome-trace": lambda path: write_chrome_trace(path, [_cell_trace()]),
    "metrics-jsonl": lambda path: write_metrics_jsonl(path, _cell_metrics()),
    "metrics-csv": lambda path: write_metrics_csv(path, _cell_metrics()),
    "metrics-html": lambda path: write_metrics_html(
        path, [SeriesView(label="mct/m0/rep0", times=(0.0, 30.0), columns={"inflight": (0.0, 1.0)})]
    ),
    "perf-report": lambda path: _perf_report().save_json(path),
    "bench-report": lambda path: _bench_report().save_json(path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_overwrite_keeps_the_mode_and_leaves_no_temp_file(tmp_path, writer):
    target = tmp_path / "out"
    target.write_text("old content\n", encoding="utf-8")
    os.chmod(target, 0o640)
    WRITERS[writer](str(target))
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert target.read_text(encoding="utf-8") != "old content\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_a_failed_write_leaves_the_old_file_untouched(tmp_path):
    target = tmp_path / "trace.jsonl"
    target.write_text("old content\n", encoding="utf-8")
    bad = CellTrace(
        heuristic="mct",
        metatask_index=0,
        repetition=0,
        events=(TraceEvent(0.0, "bad", (("x", float("nan")),)),),
    )
    with pytest.raises(ValueError):
        write_trace_jsonl(str(target), [bad])
    assert target.read_text(encoding="utf-8") == "old content\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
