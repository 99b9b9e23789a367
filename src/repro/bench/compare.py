"""Diff two bench reports under configurable regression thresholds.

Two families of checks, independently gateable because they have different
portability:

* **wall gate** — a case regressed if its wall time grew by more than
  ``max_slowdown`` (default 20%) over the baseline.  Wall seconds are only
  comparable on similar hardware, so CI compares against the committed
  baseline with ``--no-wall-gate`` and proves the gate itself on a
  synthetic slowdown instead;
* **counter gate** — a case regressed if any deterministic hot-path
  counter grew by more than ``counter_tolerance`` (default 10%).  Counters
  are exact on every machine, so this gate runs everywhere and catches
  "accidentally doing more work" even when wall noise hides it.

A case present in the baseline but missing from the current report is
always a regression (a silently dropped benchmark would otherwise *pass*).
New cases and improvements are reported but never fail the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import ExperimentError
from .report import BenchReport

__all__ = ["CaseDelta", "BenchComparison", "compare_reports"]


@dataclass
class CaseDelta:
    """One case's baseline-vs-current verdict."""

    name: str
    #: ``current wall / baseline wall - 1``, the relative change (``0.0``
    #: when the case is missing on either side or the baseline wall is zero).
    wall_ratio: float = 0.0
    wall_base_s: float = 0.0
    wall_current_s: float = 0.0
    #: ``(counter, base, current)`` for every counter past tolerance.
    counter_growth: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Human-readable reasons this case regressed (empty = pass).
    regressions: List[str] = field(default_factory=list)
    missing: bool = False
    new: bool = False

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)


@dataclass
class BenchComparison:
    """The full diff; ``ok`` is the gate's verdict."""

    max_slowdown: float
    counter_tolerance: float
    wall_gate: bool
    counter_gate: bool
    deltas: List[CaseDelta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(delta.regressed for delta in self.deltas)

    def render(self) -> str:
        lines = [
            "bench compare: wall gate "
            + (f"<= +{self.max_slowdown:.0%}" if self.wall_gate else "OFF")
            + ", counter gate "
            + (f"<= +{self.counter_tolerance:.0%}" if self.counter_gate else "OFF")
        ]
        for delta in self.deltas:
            if delta.missing:
                lines.append(f"  {delta.name:<24} MISSING from current report")
                continue
            if delta.new:
                lines.append(
                    f"  {delta.name:<24} new case "
                    f"({delta.wall_current_s:.3f}s, not gated)"
                )
                continue
            change = (
                f"{delta.wall_base_s:.3f}s -> {delta.wall_current_s:.3f}s "
                f"({delta.wall_ratio:+.1%})".replace("+-", "-")
            )
            verdict = "REGRESSED" if delta.regressed else "ok"
            lines.append(f"  {delta.name:<24} {change}  {verdict}")
            for reason in delta.regressions:
                lines.append(f"    - {reason}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    *,
    max_slowdown: float = 0.20,
    counter_tolerance: float = 0.10,
    wall_gate: bool = True,
    counter_gate: bool = True,
) -> BenchComparison:
    """Diff ``current`` against ``baseline``; see the module docstring."""
    if max_slowdown < 0 or counter_tolerance < 0:
        raise ExperimentError("regression thresholds must be >= 0")
    if baseline.seed != current.seed:
        raise ExperimentError(
            f"bench reports disagree on seed ({baseline.seed} vs "
            f"{current.seed}) — counter comparison would be meaningless"
        )
    comparison = BenchComparison(
        max_slowdown=max_slowdown,
        counter_tolerance=counter_tolerance,
        wall_gate=wall_gate,
        counter_gate=counter_gate,
    )
    for base_case in baseline.cases:
        delta = CaseDelta(name=base_case.name)
        cur_case = current.case(base_case.name)
        if cur_case is None:
            delta.missing = True
            delta.regressions.append(
                "case missing from the current report (dropped benchmark?)"
            )
            comparison.deltas.append(delta)
            continue
        delta.wall_base_s = base_case.wall_s
        delta.wall_current_s = cur_case.wall_s
        if base_case.wall_s > 0:
            delta.wall_ratio = cur_case.wall_s / base_case.wall_s - 1.0
        if wall_gate and base_case.wall_s > 0:
            if cur_case.wall_s > base_case.wall_s * (1.0 + max_slowdown):
                delta.regressions.append(
                    f"wall time {base_case.wall_s:.3f}s -> "
                    f"{cur_case.wall_s:.3f}s exceeds the "
                    f"+{max_slowdown:.0%} budget"
                )
        if counter_gate:
            for name in sorted(base_case.counters):
                base_value = base_case.counters[name]
                cur_value = cur_case.counters.get(name, 0)
                grew = (
                    cur_value > base_value * (1.0 + counter_tolerance)
                    if base_value > 0
                    else cur_value > 0
                )
                if grew:
                    delta.counter_growth.append((name, base_value, cur_value))
                    delta.regressions.append(
                        f"counter {name}: {base_value} -> {cur_value} "
                        f"exceeds the +{counter_tolerance:.0%} budget"
                    )
        comparison.deltas.append(delta)
    for cur_case in current.cases:
        if baseline.case(cur_case.name) is None:
            comparison.deltas.append(
                CaseDelta(
                    name=cur_case.name,
                    new=True,
                    wall_current_s=cur_case.wall_s,
                )
            )
    # Output order is stable: baseline order first, new cases after — a
    # pure function of the two reports.
    return comparison
