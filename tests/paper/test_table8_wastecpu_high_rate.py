"""Table 8 — waste-cpu tasks, high arrival rate, at the paper's scale.

Shape criteria (from the paper's Table 8): all tasks still complete; the
contention is higher, so the perturbation-aware heuristics pull further
ahead — MP and MSF have clearly lower sum-flows than MCT and HMCT, MSF the
lowest max-flow, MP the lowest max-stretch, and the number of tasks finishing
sooner than MCT grows towards 80 % for MP and MSF.
"""

from __future__ import annotations

from repro.experiments.config import FULL_SCALE, ExperimentConfig
from repro.experiments.set2 import run_table8

CONFIG = ExperimentConfig(scale=FULL_SCALE, seed=2003)


def test_table8_wastecpu_high_rate():
    """Reproduce Table 8 (three metatasks, means) and check the ordering."""
    table = run_table8(CONFIG)

    completed = {h: table.value(h, "completed tasks") for h in table.columns}
    sumflow = {h: table.value(h, "sumflow") for h in table.columns}
    maxflow = {h: table.value(h, "maxflow") for h in table.columns}
    maxstretch = {h: table.value(h, "maxstretch") for h in table.columns}

    total = CONFIG.scale.task_count
    for heuristic in ("mct", "hmct", "mp", "msf"):
        assert completed[heuristic] == total

    # The gain of the perturbation-based heuristics grows with the rate.
    assert sumflow["mct"] == max(sumflow.values())
    assert sumflow["mp"] < sumflow["hmct"]
    assert sumflow["msf"] < sumflow["hmct"]
    assert sumflow["msf"] < 0.9 * sumflow["mct"]
    # MSF: smallest max-flow; MP: smallest max-stretch.
    assert maxflow["msf"] == min(maxflow.values())
    assert maxstretch["mp"] == min(maxstretch.values())
    # Quality of service: MP and MSF make ~80 % of the tasks finish sooner.
    for heuristic in ("mp", "msf"):
        sooner = table.value(heuristic, "tasks finishing sooner than MCT")
        assert sooner >= 0.7 * total
    assert table.value("hmct", "tasks finishing sooner than MCT") >= 0.5 * total
