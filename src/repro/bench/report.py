"""The ``bench-report.json`` artifact (schema ``bench-report/v1``).

One :class:`BenchCaseResult` per suite case — the interesting slice of the
case's :class:`~repro.obs.report.PerfReport` (wall seconds per phase,
deterministic counters, task throughput) — wrapped in a :class:`BenchReport`
with the suite/seed/jobs provenance needed to refuse apples-to-oranges
comparisons.  Saved atomically, loaded with a schema check, diffed by
:mod:`repro.bench.compare`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ResultsError
from ..store.journal import atomic_write_text

__all__ = ["SCHEMA", "BenchCaseResult", "BenchReport"]

#: Schema tag of the JSON artifact (bump on incompatible layout changes).
SCHEMA = "bench-report/v1"


@dataclass
class BenchCaseResult:
    """One case's measurements."""

    name: str
    scenario: str
    scale: Dict[str, object]
    wall_s: float
    phases: Dict[str, float]
    tasks_simulated: int
    tasks_per_s: float
    cells: int
    counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "scale": self.scale,
            "wall_s": round(self.wall_s, 6),
            "phases": {name: round(s, 6) for name, s in self.phases.items()},
            "tasks_simulated": self.tasks_simulated,
            "tasks_per_s": round(self.tasks_per_s, 2),
            "cells": self.cells,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchCaseResult":
        return cls(
            name=str(data["name"]),
            scenario=str(data["scenario"]),
            scale=dict(data.get("scale") or {}),
            wall_s=float(data["wall_s"]),
            phases={k: float(v) for k, v in (data.get("phases") or {}).items()},
            tasks_simulated=int(data.get("tasks_simulated", 0)),
            tasks_per_s=float(data.get("tasks_per_s", 0.0)),
            cells=int(data.get("cells", 0)),
            counters={k: int(v) for k, v in (data.get("counters") or {}).items()},
        )


@dataclass
class BenchReport:
    """One bench run: provenance plus one result per case."""

    suite: str
    seed: int
    jobs: int
    cases: List[BenchCaseResult] = field(default_factory=list)

    def case(self, name: str) -> Optional[BenchCaseResult]:
        for result in self.cases:
            if result.name == name:
                return result
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "seed": self.seed,
            "jobs": self.jobs,
            "cases": [case.as_dict() for case in self.cases],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchReport":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ResultsError(
                f"not a bench report: schema {schema!r} (expected {SCHEMA!r})"
            )
        return cls(
            suite=str(data.get("suite", "")),
            seed=int(data.get("seed", 0)),
            jobs=int(data.get("jobs", 1)),
            cases=[BenchCaseResult.from_dict(c) for c in data.get("cases") or []],
        )

    def save_json(self, path: str) -> str:
        """Atomically write the report to ``path`` and return it."""
        text = json.dumps(self.as_dict(), indent=2, allow_nan=False)
        return atomic_write_text(path, text + "\n")

    @classmethod
    def load_json(cls, path: str) -> "BenchReport":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ResultsError(f"cannot read bench report {path!r}: {exc}") from exc
        return cls.from_dict(data)

    def render(self) -> str:
        """Human-readable summary (the CLI's default output)."""
        lines = [
            f"bench report: suite {self.suite!r}, seed {self.seed}, "
            f"jobs {self.jobs} — {len(self.cases)} case(s)"
        ]
        for case in self.cases:
            lines.append(
                f"  {case.name:<24} {case.wall_s:8.3f}s  "
                f"{case.tasks_per_s:9.1f} tasks/s  "
                f"{case.tasks_simulated:>7} tasks, {case.cells} cell(s)"
            )
        return "\n".join(lines)
