"""The NetSolve-like middleware harness.

:class:`GridMiddleware` assembles a complete client-agent-server deployment
inside the discrete-event simulation: the ground-truth servers (with memory
pressure and speed noise), their load monitors, the agent with its heuristic
and Historical Trace Manager, the client submitting a metatask, and NetSolve's
fault-tolerance (resubmission of failed tasks).  One middleware instance
executes one run; the experiment harness builds a fresh instance per
(metatask, heuristic) pair.

This is the substitute for the real NetSolve deployment of the paper's
experiments — see the introduction of README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.heuristics import Heuristic, create_heuristic
from ..core.htm import HistoricalTraceManager
from ..errors import NoCandidateServer, PlatformError, TaskRejected
from ..obs import MetricSeries, MetricsSampler, TraceEvent, Tracer, middleware_counters
from ..simulation import Environment, RandomStreams
from ..workload.metatask import Metatask
from ..workload.problems import ProblemCatalogue, PAPER_CATALOGUE
from ..workload.tasks import Task, TaskStatus
from .agent import Agent
from .client import Client
from .faults import (
    FaultSchedule,
    FaultTolerancePolicy,
    MemoryModel,
    OutageWindow,
    SlowdownWindow,
    SpeedNoiseModel,
)
from .monitors import LoadMonitor
from .server import RESOURCE_CPU, ComputeServer
from .spec import MachineRole, PlatformSpec

__all__ = ["MiddlewareConfig", "RunResult", "GridMiddleware"]


@dataclass(frozen=True)
class MiddlewareConfig:
    """Tunable knobs of a middleware deployment.

    The defaults correspond to the setting used for the paper's tables:
    30-second monitor reports, 2 % CPU speed noise, memory accounting with
    collapse enabled, fault tolerance reserved to the stock NetSolve agent
    (i.e. the MCT heuristic).
    """

    monitor_period_s: float = 30.0
    monitor_delay_s: float = 0.05
    monitor_jitter_s: float = 2.0
    memory_enabled: bool = True
    memory_model: MemoryModel = MemoryModel(enabled=True)
    noise_model: Optional[SpeedNoiseModel] = SpeedNoiseModel()
    fault_tolerance: FaultTolerancePolicy = FaultTolerancePolicy()
    #: Apply fault tolerance only to these heuristics (the paper's NetSolve
    #: MCT benefits from resubmission, the new heuristics did not).
    fault_tolerant_heuristics: tuple = ("mct",)
    htm_resync: bool = True
    htm_model_communication: bool = True
    #: Use the HTM's cached-baseline prediction fast path (see
    #: :class:`repro.core.htm.HistoricalTraceManager`).
    htm_incremental: bool = True
    seed: int = 0
    #: Hard bound on the simulated time of a run (safety net).
    max_horizon_s: float = 1_000_000.0
    #: Optional deterministic schedule of server outage / slowdown windows
    #: (the scenario subsystem's churn model).  ``None`` disables it.
    fault_schedule: Optional[FaultSchedule] = None

    def effective_memory_model(self) -> MemoryModel:
        """Memory model actually applied to servers (honours ``memory_enabled``)."""
        if not self.memory_enabled:
            return MemoryModel(enabled=False)
        return self.memory_model

    def fault_policy_for(self, heuristic_name: str) -> FaultTolerancePolicy:
        """Fault-tolerance policy applied to runs of the given heuristic."""
        if heuristic_name in self.fault_tolerant_heuristics:
            return self.fault_tolerance
        return FaultTolerancePolicy.disabled()


@dataclass
class RunResult:
    """Everything recorded during one middleware run."""

    heuristic: str
    metatask_name: str
    tasks: List[Task]
    duration: float
    agent_decisions: Dict[str, int] = field(default_factory=dict)
    server_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    seed: int = 0
    #: ``True`` when the run hit ``max_horizon_s`` before every task reached a
    #: terminal state; the in-flight tasks were then finalised as failed with
    #: reason ``"horizon"``.  Campaign assembly surfaces every truncated cell
    #: in the table notes (see :func:`repro.experiments.campaign.run_campaign`),
    #: so truncated runs are never *silently* mixed into the column means —
    #: check this flag to exclude them outright.
    truncated: bool = False
    #: Hot-path work counters harvested after the run (see
    #: :func:`repro.obs.counters.middleware_counters`).  Deterministic per
    #: cell, but an implementation measure: excluded from records/fingerprints.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Report-bus health: counts plus staleness-at-dispatch of the load
    #: report each mapping decision relied on (virtual seconds).
    monitor_summary: Dict[str, float] = field(default_factory=dict)
    #: Virtual-time trace of the run (empty unless a tracer was attached).
    trace_events: Tuple[TraceEvent, ...] = ()
    #: Events the tracer's bounded ring had to drop (0 = complete trace).
    trace_dropped: int = 0
    #: Fixed-interval metric samples (``None`` unless a sampler was attached).
    metric_series: Optional[MetricSeries] = None

    @property
    def completed_tasks(self) -> List[Task]:
        """Tasks that ran to successful completion."""
        return [task for task in self.tasks if task.completed]

    @property
    def failed_tasks(self) -> List[Task]:
        """Tasks that never completed."""
        return [task for task in self.tasks if not task.completed]

    @property
    def completed_count(self) -> int:
        """Number of completed tasks (the paper's "number of completed tasks")."""
        return len(self.completed_tasks)

    @property
    def failed_count(self) -> int:
        """Number of tasks that never completed."""
        return len(self.tasks) - self.completed_count

    def task_by_id(self, task_id: str) -> Task:
        """Look a task up by identifier."""
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        # repro: allow[EXC-BARE] mapping-protocol lookup: callers rely on
        # KeyError semantics (pinned by tests/platform/test_middleware.py)
        raise KeyError(task_id)


class GridMiddleware:
    """A complete simulated NetSolve deployment for one run.

    Parameters
    ----------
    platform:
        The machines and links (e.g. from :mod:`repro.workload.testbed`).
    heuristic:
        Either a heuristic instance or a registry name (``"mct"``, ``"hmct"``,
        ``"mp"``, ``"msf"``, ...).
    catalogue:
        The problem catalogue servers register from (defaults to the paper's).
    config:
        Middleware knobs; see :class:`MiddlewareConfig`.
    server_problems:
        Optional mapping server name → iterable of problem names it registers.
        By default a server registers every catalogue problem it has a
        measured cost for (or all problems when it has none).
    """

    def __init__(
        self,
        platform: PlatformSpec,
        heuristic: Union[Heuristic, str],
        catalogue: ProblemCatalogue = PAPER_CATALOGUE,
        config: Optional[MiddlewareConfig] = None,
        server_problems: Optional[Mapping[str, Iterable[str]]] = None,
        tracer: Optional[Tracer] = None,
        sampler: Optional[MetricsSampler] = None,
    ):
        self.platform = platform
        self.catalogue = catalogue
        self.config = config if config is not None else MiddlewareConfig()
        self.heuristic = (
            heuristic if isinstance(heuristic, Heuristic) else create_heuristic(heuristic)
        )
        self.streams = RandomStreams(self.config.seed)

        self.env = Environment()
        self.servers: Dict[str, ComputeServer] = {}
        self.monitors: Dict[str, LoadMonitor] = {}

        htm = None
        if self.heuristic.requires_htm:
            htm = HistoricalTraceManager(
                resync_on_completion=self.config.htm_resync,
                model_communication=self.config.htm_model_communication,
                incremental_predictions=self.config.htm_incremental,
            )
        self.agent = Agent(self.env, self.heuristic, htm=htm)
        # The trace bus (repro.obs).  ``tracer is None`` keeps every hook a
        # single attribute test — the zero-overhead-when-off contract.
        self.tracer = tracer
        self.agent.tracer = tracer
        if self.agent.htm is not None:
            self.agent.htm.tracer = tracer
        # The metrics bus (repro.obs): same ``is None`` zero-overhead contract
        # as the tracer; its sampling callbacks only *read* simulation state,
        # so a sampled run's numbers equal an unsampled run's.
        self.sampler = sampler
        self.fault_policy = self.config.fault_policy_for(self.heuristic.name)

        memory_model = self.config.effective_memory_model()
        for name in platform.server_names():
            spec = platform.machine(name)
            problems = self._problems_for(name, server_problems)
            server = ComputeServer(
                env=self.env,
                spec=spec,
                problems=problems,
                catalogue=catalogue,
                memory_model=memory_model,
                noise_model=self.config.noise_model,
                rng=self.streams[f"speed-noise/{name}"],
            )
            server.on_completion.append(self._on_task_completed)
            server.on_failure.append(self._on_task_failed)
            server.on_collapse.append(self._on_server_collapse)
            server.on_recovery.append(self._on_server_recovery)
            self.servers[name] = server
            self.agent.register_server(server)
            self.monitors[name] = LoadMonitor(
                env=self.env,
                server=server,
                deliver=self.agent.receive_load_report,
                period=self.config.monitor_period_s,
                delay=self.config.monitor_delay_s,
                jitter=self.config.monitor_jitter_s,
                rng=self.streams[f"monitor/{name}"],
            )

        self._wire_fault_schedule()

        self._tasks: List[Task] = []
        self._terminal = 0
        self._expected = 0
        # Incremental lifecycle counts: sampling reads them in O(1) instead
        # of scanning the task list at every sample.
        self._submitted_count = 0
        self._completed_count = 0
        self._failed_count = 0
        self._finished_event = None
        self._ran = False

    def _wire_fault_schedule(self) -> None:
        """Turn the configured fault schedule into simulation-clock callbacks.

        Every window boundary becomes a timeout on the environment's calendar,
        so the schedule replays identically under every heuristic and every
        campaign executor (it depends on the simulated clock only).
        """
        schedule = self.config.fault_schedule
        if not schedule:
            return
        unknown = [n for n in schedule.server_names() if n not in self.servers]
        if unknown:
            raise PlatformError(
                f"fault schedule targets unknown servers {sorted(unknown)}; "
                f"platform has {sorted(self.servers)}"
            )
        # Same-instant timeouts fire in creation order, so the wiring order
        # encodes the boundary semantics of back-to-back windows (declaration
        # order is not required to be sorted):
        # * slowdowns interleave start/end in chronological order — the old
        #   window's end-callback (restore 1.0) must fire before the new
        #   window's start-callback, or it would undo it;
        # * outages create every begin-callback before any end-callback — at a
        #   shared boundary the outage depth then goes 1 → 2 → 1 and the
        #   server stays down continuously instead of flapping up/down (no
        #   spurious agent re-registration between touching windows).
        ordered = sorted(schedule.windows, key=lambda w: (w.start_s, w.end_s))
        slowdowns = [w for w in ordered if isinstance(w, SlowdownWindow)]
        outages = [w for w in ordered if isinstance(w, OutageWindow)]
        unknown_kinds = [w for w in ordered if not isinstance(w, (SlowdownWindow, OutageWindow))]
        if unknown_kinds:  # pragma: no cover - defensive
            raise PlatformError(f"unknown fault window type {type(unknown_kinds[0])!r}")
        tracer = self.tracer
        for window in slowdowns:
            server = self.servers[window.server]
            start = self.env.timeout(window.start_s)
            start.callbacks.append(
                lambda _evt, s=server, f=window.factor: s.set_slowdown(f)
            )
            if tracer is not None:
                start.callbacks.append(
                    lambda _evt, t=window.start_s, n=window.server, f=window.factor: tracer.emit(
                        t, "fault.slowdown.begin", server=n, factor=f
                    )
                )
            end = self.env.timeout(window.end_s)
            end.callbacks.append(lambda _evt, s=server: s.set_slowdown(1.0))
            if tracer is not None:
                end.callbacks.append(
                    lambda _evt, t=window.end_s, n=window.server: tracer.emit(
                        t, "fault.slowdown.end", server=n
                    )
                )
        for window in outages:
            start = self.env.timeout(window.start_s)
            start.callbacks.append(
                lambda _evt, s=self.servers[window.server]: s.begin_outage()
            )
            if tracer is not None:
                start.callbacks.append(
                    lambda _evt, t=window.start_s, n=window.server: tracer.emit(
                        t, "fault.outage.begin", server=n
                    )
                )
        for window in outages:
            end = self.env.timeout(window.end_s)
            end.callbacks.append(
                lambda _evt, s=self.servers[window.server]: s.end_outage()
            )
            if tracer is not None:
                end.callbacks.append(
                    lambda _evt, t=window.end_s, n=window.server: tracer.emit(
                        t, "fault.outage.end", server=n
                    )
                )

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #
    def _problems_for(
        self, server_name: str, server_problems: Optional[Mapping[str, Iterable[str]]]
    ) -> List[str]:
        if server_problems is not None and server_name in server_problems:
            return list(server_problems[server_name])
        measured = [p.name for p in self.catalogue if server_name in p.known_servers()]
        return measured if measured else [p.name for p in self.catalogue]

    # ------------------------------------------------------------------ #
    # task lifecycle
    # ------------------------------------------------------------------ #
    def submit(self, task: Task) -> None:
        """Entry point used by clients: schedule and dispatch one task."""
        task.status = TaskStatus.SUBMITTED
        self._submitted_count += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now,
                "task.submit",
                task=task.task_id,
                problem=task.problem.name,
            )
        self._dispatch(task)

    def _dispatch(self, task: Task) -> None:
        now = self.env.now
        try:
            decision = self.agent.schedule(task)
        except NoCandidateServer:
            task.mark_failed(now, "no candidate server")
            if self.tracer is not None:
                self.tracer.emit(
                    now, "task.reject", task=task.task_id, reason="no candidate server"
                )
            self._task_terminal(task)
            return
        server = self.servers[decision.server]
        task.new_attempt(decision.server, mapped_at=now)
        try:
            server.submit(task)
        except TaskRejected as exc:
            task.mark_failed(now, str(exc))
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "task.reject",
                    task=task.task_id,
                    server=decision.server,
                    reason=str(exc),
                )
            self.agent.notify_failure(task, decision.server, now)
            self._maybe_retry(task, now)

    def _on_task_completed(self, task: Task, at: float) -> None:
        server_name = task.attempts[-1].server
        if self.tracer is not None:
            self.tracer.emit(
                at, "task.complete", task=task.task_id, server=server_name
            )
        if self.sampler is not None:
            self.sampler.note_completion(at, at - task.arrival)
        self.agent.notify_completion(task, server_name, at)
        self._task_terminal(task)

    def _on_task_failed(self, task: Task, at: float, reason: str) -> None:
        server_name = task.attempts[-1].server if task.attempts else "?"
        if self.tracer is not None:
            self.tracer.emit(
                at, "task.fail", task=task.task_id, server=server_name, reason=reason
            )
        self.agent.notify_failure(task, server_name, at)
        self._maybe_retry(task, at)

    def _maybe_retry(self, task: Task, at: float) -> None:
        if self.fault_policy.should_retry(task.n_attempts):
            if self.tracer is not None:
                self.tracer.emit(
                    at, "task.retry", task=task.task_id, attempt=task.n_attempts
                )
            delay = max(self.fault_policy.retry_delay_s, 0.0)
            # The task keeps its FAILED status during the back-off window and
            # only becomes SUBMITTED when the deferred dispatch actually
            # fires; flipping it eagerly here made the task misreport as
            # submitted for ``retry_delay_s`` seconds, so a concurrent
            # terminal check could miscount it as in flight.
            timeout = self.env.timeout(delay)
            timeout.callbacks.append(lambda _evt, t=task: self._redispatch(t))
        else:
            self._task_terminal(task)

    def _redispatch(self, task: Task) -> None:
        """Deferred retry: the task re-enters the submitted state only now."""
        task.status = TaskStatus.SUBMITTED
        self._dispatch(task)

    def _on_server_collapse(self, server: ComputeServer, at: float) -> None:
        if self.tracer is not None:
            self.tracer.emit(at, "server.collapse", server=server.name)
        self.agent.notify_server_down(server.name, at)

    def _on_server_recovery(self, server: ComputeServer, at: float) -> None:
        if self.tracer is not None:
            self.tracer.emit(at, "server.recover", server=server.name)
        self.agent.notify_server_up(server.name, at)

    def _task_terminal(self, task: Task) -> None:
        self._terminal += 1
        if task.completed:
            self._completed_count += 1
        else:
            self._failed_count += 1
        if self._finished_event is not None and self._terminal >= self._expected:
            if not self._finished_event.triggered:
                self._finished_event.succeed()

    # ------------------------------------------------------------------ #
    # metric sampling
    # ------------------------------------------------------------------ #
    def _metrics_loop(self):
        """Self-rescheduling sampling process (the LoadMonitor idiom).

        Samples at t=0 and then every ``sampler.interval`` virtual seconds.
        The loop only ever *reads* state, so the extra calendar entries can
        never change a simulated number: a sampled run's records equal an
        unsampled run's, and the samples themselves are byte-identical at
        any ``--jobs`` level.
        """
        while True:
            self._take_sample()
            yield self.env.timeout(self.sampler.interval)

    def _take_sample(self) -> None:
        """Append one metric row at the current virtual time (idempotent)."""
        sampler = self.sampler
        now = self.env.now
        times = sampler.series.times
        if times and times[-1] == now:
            return  # the end-of-run sample landed on a scheduled tick
        throughput, latency = sampler.window_stats(now)
        row: Dict[str, float] = {
            "inflight": float(self._submitted_count - self._terminal),
            "completed": float(self._completed_count),
            "failed": float(self._failed_count),
            "throughput_w": throughput,
            "latency_w": latency,
            "staleness_s": self._mean_report_staleness(now),
            "htm_unfinished": float(self._htm_unfinished()),
        }
        for name in sorted(self.servers):
            server = self.servers[name]
            row[f"queue.{name}"] = float(server.network.active_count())
            row[f"util.{name}"] = server.network.utilization(RESOURCE_CPU)
        sampler.record(now, row)

    def _mean_report_staleness(self, now: float) -> float:
        """Mean age of the freshest load report per server (0.0 = none yet)."""
        total = 0.0
        count = 0
        for name in sorted(self.servers):
            report = self.agent.registration(name).last_report
            if report is not None:
                total += now - report.emitted_at
                count += 1
        return total / count if count else 0.0

    def _htm_unfinished(self) -> int:
        """Tasks the HTM still tracks as unfinished, across its server traces."""
        htm = self.agent.htm
        if htm is None:
            return 0
        return htm.unfinished_total()

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(self, workload: Union[Metatask, Sequence[Task]], client_name: str = "zanzibar") -> RunResult:
        """Execute a metatask (or an explicit task list) to completion.

        The run ends when every task reached a terminal state (completed or
        definitively failed) or when the safety horizon is hit.
        """
        if self._ran:
            raise PlatformError("a GridMiddleware instance can only run once; build a new one")
        self._ran = True

        if isinstance(workload, Metatask):
            tasks = workload.instantiate(client=client_name)
            metatask_name = workload.name
        else:
            tasks = list(workload)
            metatask_name = "custom"

        self._tasks = tasks
        self._expected = len(tasks)
        self._finished_event = self.env.event()
        Client(self.env, client_name, tasks, submit=self.submit)
        if self.sampler is not None:
            self.env.process(self._metrics_loop(), name="metrics-sampler")

        horizon = self.env.timeout(self.config.max_horizon_s)
        self.env.run(until=self.env.any_of([self._finished_event, horizon]))

        truncated = self._terminal < self._expected
        if truncated:
            # The safety horizon fired with tasks still in flight: finalise
            # them so no task leaves the run in a non-terminal status with no
            # failure reason or date.
            now = self.env.now
            for task in tasks:
                if task.status not in (TaskStatus.COMPLETED, TaskStatus.FAILED):
                    task.mark_failed(now, "horizon")
        if self.sampler is not None:
            # One closing sample at the run's end state (skipped when the run
            # ended exactly on a scheduled tick).  Taken *before* horizon
            # finalisation would be dishonest — but the truncated tasks were
            # genuinely in flight at env.now, and the incremental counts the
            # row reads intentionally exclude the post-hoc 'horizon' failures.
            self._take_sample()

        return RunResult(
            heuristic=self.heuristic.name,
            metatask_name=metatask_name,
            tasks=tasks,
            duration=self.env.now,
            agent_decisions=dict(self.agent.stats.decisions_per_server),
            server_stats={name: server.stats.as_dict() for name, server in self.servers.items()},
            seed=self.config.seed,
            truncated=truncated,
            counters=middleware_counters(self),
            monitor_summary=self._monitor_summary(),
            trace_events=self.tracer.events() if self.tracer is not None else (),
            trace_dropped=self.tracer.dropped if self.tracer is not None else 0,
            metric_series=self.sampler.series if self.sampler is not None else None,
        )

    def _monitor_summary(self) -> Dict[str, float]:
        """Report-bus health of the run (counts + staleness-at-dispatch)."""
        stats = self.agent.stats
        with_report = stats.dispatches_with_report
        return {
            "reports_sent": float(sum(m.reports_sent for m in self.monitors.values())),
            "reports_received": float(stats.reports_received),
            "reports_down_received": float(stats.reports_down_received),
            "reports_dropped": float(stats.reports_dropped),
            "dispatches_with_report": float(with_report),
            "dispatches_without_report": float(stats.dispatches_without_report),
            "staleness_mean_s": (
                stats.staleness_sum / with_report if with_report else 0.0
            ),
            "staleness_max_s": stats.staleness_max,
        }

    def __repr__(self) -> str:
        return (
            f"<GridMiddleware heuristic={self.heuristic.name!r} "
            f"servers={list(self.servers)}>"
        )
