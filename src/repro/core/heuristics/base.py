"""Base classes of the scheduling heuristics.

A heuristic sees exactly what the agent sees: the static description of the
incoming task, per-server static costs, the latest monitor reports (for the
load-based baseline) and, for the paper's heuristics, the Historical Trace
Manager.  It returns a :class:`Decision` naming the chosen server.

The ground-truth state of the platform is *never* available to a heuristic —
that separation is the whole point of the paper's comparison between MCT
(stale load reports) and the HTM-based heuristics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...errors import NoCandidateServer, SchedulingError
from ...workload.problems import PhaseCosts
from ...workload.tasks import Task
from ..htm import HistoricalTraceManager
from ..records import HtmPrediction

__all__ = ["ServerInfo", "SchedulingContext", "Decision", "Heuristic", "HtmHeuristic"]


@dataclass(frozen=True)
class ServerInfo:
    """What the agent knows about one candidate server when scheduling a task.

    Attributes
    ----------
    name:
        Server name.
    costs:
        Unloaded costs of the incoming task's problem on this server (static
        information of Section 2.2).
    reported_load:
        Load carried by the most recent monitor report (smoothed number of
        tasks in the compute phase).  ``0`` if no report was received yet.
    report_age:
        Seconds elapsed since that report (staleness).
    pending_correction:
        NetSolve's first load-correction mechanism: number of tasks the agent
        mapped on the server since the last report, minus the completions it
        was notified of.
    is_up:
        Whether the agent currently believes the server is alive.
    speed_hint:
        Abstract speed (MFlop/s) used only for display/tie-breaking.
    cpu_count:
        Number of processors of the server (static information from the
        registration); MCT's availability estimate accounts for it.
    """

    name: str
    costs: PhaseCosts
    reported_load: float = 0.0
    report_age: float = 0.0
    pending_correction: int = 0
    is_up: bool = True
    speed_hint: float = 1.0
    cpu_count: int = 1

    @property
    def corrected_load(self) -> float:
        """Reported load plus the pending correction (never negative)."""
        return max(0.0, self.reported_load + self.pending_correction)


@dataclass
class SchedulingContext:
    """Everything a heuristic may look at to map one task."""

    now: float
    task: Task
    servers: Tuple[ServerInfo, ...]
    htm: Optional[HistoricalTraceManager] = None
    #: Every HTM prediction an HTM heuristic made for this decision, keyed by
    #: server.  A record for inspection: the agent does not read it, and its
    #: commit of the chosen server runs no what-if simulation anyway.
    predictions: Dict[str, HtmPrediction] = field(default_factory=dict)

    def candidate_servers(self) -> Tuple[ServerInfo, ...]:
        """Servers that are up (the agent never selects a collapsed server)."""
        return tuple(info for info in self.servers if info.is_up)

    def server(self, name: str) -> ServerInfo:
        """The :class:`ServerInfo` called ``name``."""
        for info in self.servers:
            if info.name == name:
                return info
        raise SchedulingError(f"server {name!r} is not a candidate for this task")


@dataclass(frozen=True)
class Decision:
    """The outcome of a scheduling decision."""

    server: str
    #: Estimated completion date of the task on the chosen server, as computed
    #: by the heuristic (load-based estimate for MCT, HTM prediction for the
    #: others).  Purely informational.
    estimated_completion: Optional[float] = None
    #: Heuristic-specific scores per candidate server (for tracing/analysis).
    scores: Mapping[str, float] = field(default_factory=dict)


class Heuristic(abc.ABC):
    """Base class of every scheduling heuristic."""

    #: Short identifier used by the registry, reports and the CLI.
    name: str = "heuristic"
    #: Whether the heuristic needs the Historical Trace Manager.
    requires_htm: bool = False

    @abc.abstractmethod
    def select(self, context: SchedulingContext) -> Decision:
        """Choose a server for ``context.task`` among ``context.servers``."""

    # ------------------------------------------------------------------ #
    def _require_candidates(self, context: SchedulingContext) -> Tuple[ServerInfo, ...]:
        candidates = context.candidate_servers()
        if not candidates:
            raise NoCandidateServer(context.task.problem.name)
        return candidates

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class HtmHeuristic(Heuristic):
    """Base class of the heuristics that rely on the Historical Trace Manager."""

    requires_htm = True

    def _predictions(self, context: SchedulingContext) -> Dict[str, HtmPrediction]:
        """Ask the HTM for a prediction on every live candidate server."""
        if context.htm is None:
            raise SchedulingError(
                f"heuristic {self.name!r} needs the Historical Trace Manager"
            )
        candidates = self._require_candidates(context)
        predictions = {
            info.name: context.htm.predict(info.name, context.task, context.now)
            for info in candidates
        }
        context.predictions.update(predictions)
        return predictions
