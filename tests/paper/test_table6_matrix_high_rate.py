"""Table 6 — matrix multiplications, high arrival rate, at the paper's scale.

Shape criteria (from the paper's Table 6): at this rate MCT and HMCT overload
the fastest servers until they exhaust memory and collapse, so neither
completes the whole metatask (NetSolve's fault tolerance salvages most of
MCT's tasks); MP and MSF complete all 500 tasks; MCT has by far the worst
sum-flow and max-stretch; MSF the best max-flow.
"""

from __future__ import annotations

from repro.experiments.config import FULL_SCALE, ExperimentConfig
from repro.experiments.set1 import run_table6

CONFIG = ExperimentConfig(scale=FULL_SCALE, seed=2003)


def test_table6_matrix_high_rate():
    """Reproduce Table 6 and check the memory-collapse behaviour."""
    table = run_table6(CONFIG)

    completed = {h: table.value(h, "completed tasks") for h in table.columns}
    sumflow = {h: table.value(h, "sumflow") for h in table.columns}
    maxflow = {h: table.value(h, "maxflow") for h in table.columns}
    maxstretch = {h: table.value(h, "maxstretch") for h in table.columns}

    collapses = {
        name: sum(
            sum(run.server_stats[server]["collapses"] for server in run.server_stats)
            for run in outcome.runs
        )
        for name, outcome in table.outcomes.items()
    }

    total = CONFIG.scale.task_count
    # MP and MSF never overload a server into collapse: they complete everything.
    assert completed["mp"] == total
    assert completed["msf"] == total
    assert collapses["mp"] == 0
    assert collapses["msf"] == 0

    # MCT and HMCT trigger collapses on the fastest servers and lose tasks.
    assert collapses["mct"] >= 1
    assert collapses["hmct"] >= 1
    assert completed["mct"] < total
    assert completed["hmct"] < total
    # MCT pays the largest sum-flow and the worst stretch.
    assert sumflow["mct"] == max(sumflow.values())
    assert maxstretch["mct"] == max(maxstretch.values())
    assert maxstretch["mp"] == min(maxstretch.values())
    # MSF keeps the smallest max-flow.
    assert maxflow["msf"] == min(maxflow.values())
    # The HTM heuristics still make most tasks finish sooner than MCT.
    for heuristic in ("mp", "msf"):
        sooner = table.value(heuristic, "tasks finishing sooner than MCT")
        assert sooner >= 0.6 * completed["mct"]
