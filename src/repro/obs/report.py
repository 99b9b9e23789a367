"""Per-campaign performance report (``perf-report.json``).

:class:`PerfReportObserver` rides the existing
:class:`~repro.results.CampaignObserver` chain (duck-typed — the campaign
engine dispatches on method signatures, so this module needs no import from
:mod:`repro.results`): the engine hands it the live
:class:`~repro.platform.middleware.RunResult` of every freshly executed cell
through the optional ``run=`` keyword, and the observer accumulates each
cell's hot-path counters.  :class:`PerfReport` then combines that rollup
with the profiling harness's wall-clock phase timers into one JSON artifact.

Contract reminder: wall-clock fields (``phases``, ``wall_s_total``,
throughput) exist *only* in this report.  Counters are deterministic, wall
times are not, and neither may reach records, traces or fingerprints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..store.journal import atomic_write_text
from .counters import merge_counters

__all__ = ["PerfReportObserver", "PerfReport"]

#: Schema tag of the JSON artifact (bump on incompatible layout changes).
SCHEMA = "perf-report/v1"


class PerfReportObserver:
    """Collects per-cell counters as a campaign streams.

    Attach through ``run_campaign(..., observers=[...])`` or
    ``ExperimentConfig.observers``.  Cells recovered from a campaign store
    arrive without a live run (``run=None``) and contribute no counters —
    the report's ``cells_counted`` vs ``cells_total`` split makes that
    visible instead of silently under-reporting.
    """

    def __init__(self) -> None:
        self.experiment_id: Optional[str] = None
        self.cells_total = 0
        self.cells_counted = 0
        self.cells_cached = 0
        #: ``(cell tag, counters)`` per counted cell, in planned order.
        self.per_cell: List[Tuple[str, Dict[str, int]]] = []
        self.tasks_simulated = 0
        self.truncated_cells = 0
        #: Campaign-level counters harvested at ``on_campaign_end`` — today
        #: the sequential stopping engine's ``stats.*`` family.
        self.campaign_counters: Dict[str, int] = {}

    # Campaign engine hooks (duck-typed CampaignObserver protocol). ------- #
    def on_campaign_start(self, experiment_id: str, total_cells: int) -> None:
        self.experiment_id = experiment_id
        self.cells_total += total_cells

    def on_cell_complete(
        self, index: int, total: int, record, cached: bool = False, run=None
    ) -> None:
        if getattr(record, "truncated", False):
            self.truncated_cells += 1
        if cached or run is None:
            self.cells_cached += 1
            return
        self.cells_counted += 1
        tag = (
            f"{record.heuristic}/m{record.metatask_index}/rep{record.repetition}"
        )
        self.per_cell.append((tag, dict(run.counters)))
        self.tasks_simulated += len(run.tasks)

    def on_campaign_end(self, result_set) -> None:
        """Harvest campaign-level counters off the final set's meta.

        A sequential-stopping campaign publishes its ``stats.*`` counter
        family (rounds run, cells planned, groups unresolved at stop) under
        ``meta["sequential"]["counters"]``; fixed-repetition campaigns carry
        none and this stays empty.
        """
        meta = getattr(result_set, "meta", None) or {}
        sequential = meta.get("sequential") or {}
        for key, value in (sequential.get("counters") or {}).items():
            self.campaign_counters[key] = (
                self.campaign_counters.get(key, 0) + int(value)
            )

    # Rollup. ------------------------------------------------------------- #
    def counters(self) -> Dict[str, int]:
        """Per-cell counters summed, plus campaign-level ones (sorted keys)."""
        return merge_counters(
            [counters for _, counters in self.per_cell]
            + ([self.campaign_counters] if self.campaign_counters else [])
        )


@dataclass
class PerfReport:
    """One profiling run's machine-readable performance report."""

    scenario: str
    experiment_id: str
    scale: Dict[str, object]
    #: ``(phase name, wall seconds)`` in execution order — the >= 5 named
    #: phases of the profiling harness (setup, workload-gen, simulate, ...).
    phases: List[Tuple[str, float]]
    counters: Dict[str, int]
    cells_total: int = 0
    cells_counted: int = 0
    cells_cached: int = 0
    truncated_cells: int = 0
    tasks_simulated: int = 0
    per_cell: List[Tuple[str, Dict[str, int]]] = field(default_factory=list)
    #: Top functions by cumulative time from cProfile (empty when disabled).
    profile_top: List[Dict[str, object]] = field(default_factory=list)
    jobs: int = 1

    @property
    def wall_s_total(self) -> float:
        """Total wall time across the named phases."""
        return sum(seconds for _, seconds in self.phases)

    @property
    def tasks_per_s(self) -> float:
        """End-to-end simulated-task throughput over the phase total."""
        total = self.wall_s_total
        return self.tasks_simulated / total if total > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The JSON-ready report document."""
        return {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "jobs": self.jobs,
            "phases": [
                {
                    "name": name,
                    "wall_s": round(seconds, 6),
                    "share": (
                        round(seconds / self.wall_s_total, 4)
                        if self.wall_s_total > 0
                        else 0.0
                    ),
                }
                for name, seconds in self.phases
            ],
            "wall_s_total": round(self.wall_s_total, 6),
            "cells": {
                "total": self.cells_total,
                "counted": self.cells_counted,
                "cached": self.cells_cached,
                "truncated": self.truncated_cells,
            },
            "throughput": {
                "tasks_simulated": self.tasks_simulated,
                "tasks_per_s": round(self.tasks_per_s, 2),
            },
            "counters": self.counters,
            "per_cell": [
                {"cell": tag, "counters": counters}
                for tag, counters in self.per_cell
            ],
            "profile_top": self.profile_top,
        }

    def save_json(self, path: str) -> str:
        """Atomically write the report to ``path`` and return it."""
        text = json.dumps(self.as_dict(), indent=2, allow_nan=False)
        return atomic_write_text(path, text + "\n")

    def render(self) -> str:
        """Human-readable summary (the CLI's default output)."""
        lines = [
            f"perf report: {self.scenario} ({self.experiment_id})",
            f"  cells: {self.cells_total} total, {self.cells_counted} simulated, "
            f"{self.cells_cached} cached"
            + (f", {self.truncated_cells} TRUNCATED" if self.truncated_cells else ""),
            f"  tasks simulated: {self.tasks_simulated} "
            f"({self.tasks_per_s:.1f} tasks/s end to end)",
            "  phases:",
        ]
        total = self.wall_s_total
        for name, seconds in self.phases:
            share = f"{100.0 * seconds / total:5.1f}%" if total > 0 else "    -"
            lines.append(f"    {name:<14} {seconds:9.3f}s  {share}")
        lines.append(f"    {'total':<14} {total:9.3f}s")
        if self.counters:
            lines.append("  counters:")
            for key, value in self.counters.items():
                lines.append(f"    {key:<32} {value}")
        if self.profile_top:
            lines.append("  hottest functions (cumulative):")
            for entry in self.profile_top[:10]:
                lines.append(
                    f"    {entry['cumtime_s']:9.3f}s  {entry['ncalls']:>10}  "
                    f"{entry['func']}"
                )
        return "\n".join(lines)
