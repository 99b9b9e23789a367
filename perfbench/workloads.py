"""The benchmark's workloads: which scenario, which heuristics, how big.

Every workload is a closed loop: the campaign engine runs the cells of one
*round* back to back (one at a time, or two at a time with ``jobs=2``) and
the benchmark starts the next round only when the previous one returned.
Inside a cell, tasks arrive on the scenario's own open-loop virtual-time
process.

A workload has ``contents`` distinct rounds, each a campaign over
``metatasks`` freshly drawn metatasks of ``tasks`` tasks; a *pass* runs
every content once.  All of it is a fixed function of ``--seed``, so every
pass of a run simulates exactly the same cells and must produce the same
record digest.  Many small contents, rather than one big round, average out
how much the cost of a metatask depends on its random draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SEED"]

#: The seed the recorded digests (``digests.json``) were taken at.
DEFAULT_SEED = 2003


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``README.md`` for why each exists)."""

    name: str
    scenario: str
    heuristics: Tuple[str, ...]
    #: Tasks per metatask, metatasks per round, distinct rounds per pass.
    tasks: int
    metatasks: int
    contents: int
    #: Worker processes of the untraced campaign (the traced run is serial).
    jobs: int = 1
    #: Run each round cold into a fresh campaign store, then again warm.
    store: bool = False

    @property
    def reference(self) -> str:
        """The campaign's pairwise-comparison reference heuristic."""
        return "mct" if "mct" in self.heuristics else self.heuristics[0]

    @property
    def cells_per_round(self) -> int:
        return len(self.heuristics) * self.metatasks


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # HTM read path: 16 candidate what-if predictions per decision, and
        # a trace that rarely mutates between decisions (high baseline-cache
        # hit ratio).
        Workload(
            name="htm-wide",
            scenario="hetero-farm-16",
            heuristics=("hmct", "msf"),
            tasks=100,
            metatasks=1,
            contents=18,
        ),
        # The same HTM layer under churn: bursts and memory collapses mutate
        # the traces, so baselines miss and what-ifs run deeper; MCT cells
        # add retries and down-reports.
        Workload(
            name="htm-churn",
            scenario="burst-storm",
            heuristics=("mct", "hmct", "mp", "msf"),
            tasks=60,
            metatasks=1,
            contents=27,
        ),
        # HTM off: engine, ground-truth fluid servers, agent, monitors.
        Workload(
            name="mct-long",
            scenario="paper-low-rate",
            heuristics=("mct",),
            tasks=1000,
            metatasks=1,
            contents=24,
        ),
        # Campaign fan-out, pool pickling, store journal writes (cold) and
        # reads (warm): many small cells at jobs=2.
        Workload(
            name="sweep-store",
            scenario="paper-low-rate",
            heuristics=("mct", "hmct", "mp", "msf"),
            tasks=25,
            metatasks=10,
            contents=14,
            jobs=2,
            store=True,
        ),
    )
}
