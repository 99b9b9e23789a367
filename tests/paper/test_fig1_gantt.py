"""Fig. 1 / Section 2.3 — the "usefulness of the HTM" scenario."""

from __future__ import annotations

from repro.experiments.fig1 import run_fig1


def test_fig1_htm_usefulness():
    """Two identical servers, a third task at t=80: the HTM picks the right one."""
    result = run_fig1(duration_t1=100.0, duration_t2=200.0, duration_t3=100.0, arrival_t3=80.0)

    p1 = result.predictions["server-1"]
    p2 = result.predictions["server-2"]
    # The HTM knows the remaining durations (20 s vs 120 s) and therefore maps
    # the new task on server-1, with a strictly smaller completion date and a
    # strictly smaller perturbation.
    assert result.chosen_server == "server-1"
    assert p1.new_task_completion < p2.new_task_completion
    assert p1.sum_perturbation < p2.sum_perturbation
    # Both Gantt charts exist and cover the three tasks of the figure.
    assert {row.task_id for row in result.charts["server-1"]} == {"task1", "task3"}
    assert {row.task_id for row in result.charts["server-2"]} == {"task2", "task3"}
