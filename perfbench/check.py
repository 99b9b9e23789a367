"""Correctness checks run on every benchmark round, and the record digest."""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List

from repro.workload.tasks import TaskStatus

__all__ = ["check_run", "records_digest"]

_TERMINAL = (TaskStatus.COMPLETED, TaskStatus.FAILED)


def check_run(run, submitted: int) -> List[str]:
    """Problems with one executed cell (an empty list means it is correct).

    * the run was not cut short at the safety horizon;
    * every task ends in exactly one terminal state: COMPLETED with a
      completion date, or FAILED without one;
    * completed + failed = submitted (the metatask's task count);
    * no completion precedes its submission, and no attempt finishes before
      it was mapped.
    """
    problems: List[str] = []
    where = f"{run.heuristic}/{run.metatask_name}"
    if run.truncated:
        problems.append(f"{where}: truncated at the safety horizon")
    completed = failed = 0
    for task in run.tasks:
        if task.status not in _TERMINAL:
            problems.append(f"{where}: task {task.task_id} ended {task.status.value}")
            continue
        if task.status is TaskStatus.COMPLETED:
            completed += 1
            if task.completion_time is None:
                problems.append(f"{where}: completed task {task.task_id} has no date")
            elif task.completion_time < task.arrival:
                problems.append(
                    f"{where}: task {task.task_id} completed at {task.completion_time!r} "
                    f"before its submission at {task.arrival!r}"
                )
        else:
            failed += 1
            if task.completion_time is not None:
                problems.append(f"{where}: failed task {task.task_id} has a completion date")
        for attempt in task.attempts:
            if attempt.finished_at is not None and attempt.finished_at < attempt.mapped_at:
                problems.append(f"{where}: task {task.task_id} finished before it was mapped")
    if completed + failed != submitted or len(run.tasks) != submitted:
        problems.append(
            f"{where}: {completed} completed + {failed} failed != {submitted} submitted"
        )
    return problems


def records_digest(records: Iterable) -> str:
    """SHA-256 over the canonical JSON of campaign records (sorted order).

    Records carry every per-run statistic the tables are built from, with
    exact float text, so equal digests mean no simulated statistic moved.
    """
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.sort_key):
        payload = record.to_json_dict()
        payload.pop("experiment_id", None)
        digest.update(json.dumps(payload, sort_keys=True, allow_nan=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
