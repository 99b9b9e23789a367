"""The ``ablation-*`` experiments and the paper's two future-work items.

Each ablation sweeps several configurations, so they run at the reduced
default scale of :mod:`repro.experiments.ablations`.
"""

from __future__ import annotations

from repro.experiments.ablations import (
    ablation_arrival_rate_sweep,
    ablation_communication_model,
    ablation_dual_cpu,
    ablation_htm_resync,
    ablation_memory_aware_msf,
    ablation_monitor_period,
)


def test_ablation_monitor_period():
    """Stale load reports: MCT degrades as the monitor period grows, MSF does not."""
    table = ablation_monitor_period()
    msf_5 = table.columns["msf @ 5s"]["sumflow"]
    msf_120 = table.columns["msf @ 120s"]["sumflow"]
    # MSF never reads the load reports, so the report period cannot change its
    # schedule; MCT's sum-flow moves with the period (in either direction at
    # this reduced scale) but never beats MSF.
    assert abs(msf_120 - msf_5) <= 0.05 * msf_5
    for period in ("5", "30", "120"):
        assert (
            table.columns[f"msf @ {period}s"]["sumflow"]
            <= table.columns[f"mct @ {period}s"]["sumflow"] * 1.02
        )


def test_ablation_htm_resync():
    """Re-anchoring the HTM on completion messages never hurts (future work #2)."""
    table = ablation_htm_resync()
    for heuristic in ("hmct", "msf"):
        with_resync = table.columns[f"{heuristic} (resync)"]["sumflow"]
        without = table.columns[f"{heuristic} (no resync)"]["sumflow"]
        assert with_resync <= without * 1.10


def test_ablation_memory_aware_msf():
    """Memory-aware MSF (future work #1) completes at least as many tasks as HMCT."""
    table = ablation_memory_aware_msf()
    aware = table.columns["msf (memory aware)"]
    hmct = table.columns["hmct"]
    assert aware["completed tasks"] >= hmct["completed tasks"]
    assert aware["server collapses"] <= hmct["server collapses"]


def test_ablation_communication_model():
    """Dropping the transfer phases from the HTM keeps the heuristics functional."""
    table = ablation_communication_model()
    for heuristic in ("hmct", "msf"):
        full = table.columns[f"{heuristic} (3-phase)"]["sumflow"]
        compute_only = table.columns[f"{heuristic} (compute-only)"]["sumflow"]
        # The compute-only model loses little on this workload (transfers are
        # short), but it must not diverge wildly either.
        assert compute_only <= full * 1.25


def test_ablation_dual_cpu():
    """Dual-CPU Xeons lower the contention for every heuristic (Table 2 ambiguity)."""
    table = ablation_dual_cpu()
    for heuristic in ("mct", "mp", "msf"):
        single = table.columns[f"{heuristic} (single-CPU xeons)"]["sumflow"]
        dual = table.columns[f"{heuristic} (dual-CPU xeons)"]["sumflow"]
        assert dual <= single


def test_ablation_arrival_rate_sweep():
    """The advantage of MSF over MCT grows with the arrival rate."""
    table = ablation_arrival_rate_sweep(rates_s=(30.0, 20.0, 15.0))
    gain_low = table.columns["mct"]["sumflow @ 30s"] - table.columns["msf"]["sumflow @ 30s"]
    gain_high = table.columns["mct"]["sumflow @ 15s"] - table.columns["msf"]["sumflow @ 15s"]
    assert gain_high >= gain_low
    # MSF never loses to MCT at any swept rate.
    for rate in ("30", "20", "15"):
        assert (
            table.columns["msf"][f"sumflow @ {rate}s"]
            <= table.columns["mct"][f"sumflow @ {rate}s"] * 1.02
        )
