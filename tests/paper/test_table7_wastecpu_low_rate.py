"""Table 7 — waste-cpu tasks, low arrival rate, at the paper's scale.

Shape criteria (from the paper's Table 7): every task completes (waste-cpu
needs no memory); the HTM heuristics improve the sum-flow over MCT; MP gives
the best max-stretch and the largest max-flow; roughly two thirds of the
tasks finish sooner than under MCT.
"""

from __future__ import annotations

from repro.experiments.config import FULL_SCALE, ExperimentConfig
from repro.experiments.set2 import run_table7

CONFIG = ExperimentConfig(scale=FULL_SCALE, seed=2003)


def test_table7_wastecpu_low_rate():
    """Reproduce Table 7 (three metatasks, means) and check the ordering."""
    table = run_table7(CONFIG)

    completed = {h: table.value(h, "completed tasks") for h in table.columns}
    sumflow = {h: table.value(h, "sumflow") for h in table.columns}
    maxflow = {h: table.value(h, "maxflow") for h in table.columns}
    maxstretch = {h: table.value(h, "maxstretch") for h in table.columns}
    makespan = {h: table.value(h, "makespan") for h in table.columns}

    # "All the tasks of all the metatasks of this set of experiments have been
    # submitted, accepted and computed."
    total = CONFIG.scale.task_count
    for heuristic in ("mct", "hmct", "mp", "msf"):
        assert completed[heuristic] == total

    assert max(makespan.values()) <= min(makespan.values()) * 1.03

    # HTM-based heuristics do not lose to the stale-information MCT.
    assert sumflow["hmct"] <= sumflow["mct"]
    assert sumflow["msf"] <= sumflow["hmct"]
    assert sumflow["mp"] <= sumflow["mct"]
    # MP: best stretch, largest max-flow; MSF: smallest max-flow.
    assert maxstretch["mp"] == min(maxstretch.values())
    assert maxstretch["mct"] == max(maxstretch.values())
    assert maxflow["mp"] == max(maxflow.values())
    assert maxflow["msf"] == min(maxflow.values())
    for heuristic in ("hmct", "mp", "msf"):
        sooner = table.value(heuristic, "tasks finishing sooner than MCT")
        assert sooner >= 0.55 * total
