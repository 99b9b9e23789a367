"""Legacy (pre-virtual-time) fluid processor-sharing models.

This is the original O(R·J)-per-event implementation of the fluid core:
``next_completion_time`` rescans every job of every queue at every event and
``_progress`` decrements every job's ``remaining`` on every slice.  It was
replaced by the virtual-time core of :mod:`repro.simulation.fluid` and is kept
**only** as the equivalence oracle — the randomized old-vs-new sweep in
``tests/simulation/test_fluid_equivalence.py`` and the large-N A/B benchmarks
in ``benchmarks/bench_micro.py`` compare against it.  Nothing in the library
itself may import this module; do not add features here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import SimulationError

__all__ = [
    "EPSILON",
    "PSJob",
    "ProcessorSharingQueue",
    "FluidStage",
    "FluidTaskState",
    "FluidEvent",
    "FluidNetwork",
]

#: Remaining amounts of work below this threshold are considered finished.
EPSILON = 1e-9


@dataclass
class PSJob:
    """A job inside a :class:`ProcessorSharingQueue`."""

    key: Hashable
    remaining: float
    entered_at: float
    order: int

    def copy(self) -> "PSJob":
        """Return an independent copy of the job."""
        return PSJob(self.key, self.remaining, self.entered_at, self.order)


class ProcessorSharingQueue:
    """Egalitarian processor sharing of one resource.

    Parameters
    ----------
    capacity:
        Amount of work the resource completes per unit of time when enough
        jobs are active.  With *n* active jobs each one progresses at
        ``capacity / n`` (subject to ``per_job_cap``).
    per_job_cap:
        Optional upper bound on the rate a single job can enjoy.  This models
        multi-processor servers: a machine with *c* CPUs has ``capacity = c``
        and ``per_job_cap = 1`` — one task can never use more than one CPU,
        but up to *c* tasks run without interfering.  ``None`` (default)
        means no cap, i.e. the paper's single-CPU ``1/n`` model.
    time:
        Initial value of the queue's internal clock.
    """

    def __init__(
        self,
        capacity: float = 1.0,
        time: float = 0.0,
        per_job_cap: Optional[float] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if per_job_cap is not None and per_job_cap <= 0:
            raise ValueError("per_job_cap must be strictly positive (or None)")
        self._capacity = float(capacity)
        self._per_job_cap = float(per_job_cap) if per_job_cap is not None else None
        self._time = float(time)
        self._jobs: Dict[Hashable, PSJob] = {}
        self._order = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def time(self) -> float:
        """Internal clock of the queue."""
        return self._time

    @property
    def capacity(self) -> float:
        """Current total capacity of the resource."""
        return self._capacity

    @property
    def per_job_cap(self) -> Optional[float]:
        """Upper bound on the rate of a single job (``None`` = uncapped)."""
        return self._per_job_cap

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._jobs

    def active_keys(self) -> List[Hashable]:
        """Keys of the active jobs, in insertion order."""
        return [job.key for job in sorted(self._jobs.values(), key=lambda j: j.order)]

    def remaining(self, key: Hashable) -> float:
        """Remaining work of job ``key`` at the queue's current clock."""
        return self._jobs[key].remaining

    def total_remaining(self) -> float:
        """Sum of the remaining work of all active jobs."""
        return sum(job.remaining for job in self._jobs.values())

    def rate(self) -> float:
        """Progress rate currently enjoyed by each active job."""
        n = len(self._jobs)
        if n == 0:
            return 0.0
        rate = self._capacity / n
        if self._per_job_cap is not None:
            rate = min(rate, self._per_job_cap)
        return rate

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, key: Hashable, work: float, now: float) -> None:
        """Insert a new job with ``work`` units of work at time ``now``."""
        if key in self._jobs:
            raise SimulationError(f"job {key!r} is already active in this queue")
        if work < 0:
            raise ValueError("work must be non-negative")
        self.advance_to(now)
        self._jobs[key] = PSJob(key, float(work), now, self._order)
        self._order += 1

    def remove(self, key: Hashable, now: float) -> float:
        """Remove job ``key`` (e.g. cancelled) and return its remaining work."""
        self.advance_to(now)
        job = self._jobs.pop(key)
        return job.remaining

    def set_capacity(
        self, capacity: float, now: float, per_job_cap: Optional[float] = ...
    ) -> None:
        """Change the resource capacity (and optionally the per-job cap) at ``now``.

        ``per_job_cap`` keeps its current value when omitted; pass ``None``
        explicitly to remove the cap.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.advance_to(now)
        self._capacity = float(capacity)
        if per_job_cap is not ...:
            if per_job_cap is not None and per_job_cap <= 0:
                raise ValueError("per_job_cap must be strictly positive (or None)")
            self._per_job_cap = float(per_job_cap) if per_job_cap is not None else None

    # ------------------------------------------------------------------ #
    # time evolution
    # ------------------------------------------------------------------ #
    def next_completion_time(self) -> float:
        """Time at which the next job completes if nothing else changes."""
        if not self._jobs:
            return math.inf
        min_remaining = min(job.remaining for job in self._jobs.values())
        if min_remaining <= EPSILON:
            return self._time
        rate = self.rate()
        if rate <= 0:
            return math.inf
        return self._time + min_remaining / rate

    def advance_to(self, now: float) -> List[Tuple[float, Hashable]]:
        """Advance the queue's clock to ``now``.

        Returns the list of ``(completion_time, key)`` pairs for the jobs that
        completed in the interval, in chronological (then insertion) order.
        """
        if now < self._time - 1e-6:
            raise SimulationError(
                f"cannot advance queue backwards (from {self._time} to {now})"
            )
        now = max(now, self._time)
        completions: List[Tuple[float, Hashable]] = []
        while self._jobs:
            t_next = self.next_completion_time()
            if t_next > now + EPSILON:
                break
            target = max(t_next, self._time)
            self._progress(target)
            finished = [
                job
                for job in sorted(self._jobs.values(), key=lambda j: j.order)
                if job.remaining <= EPSILON
            ]
            if not finished:  # pragma: no cover - float safety net
                break
            for job in finished:
                completions.append((self._time, job.key))
                del self._jobs[job.key]
        self._progress(now)
        return completions

    def _progress(self, target: float) -> None:
        """Advance all jobs linearly from the current clock to ``target``."""
        dt = target - self._time
        rate = self.rate()
        if dt > 0 and self._jobs and rate > 0:
            share = dt * rate
            for job in self._jobs.values():
                job.remaining -= share
        self._time = max(self._time, target)

    # ------------------------------------------------------------------ #
    def copy(self) -> "ProcessorSharingQueue":
        """Return an independent deep copy of the queue."""
        clone = ProcessorSharingQueue(self._capacity, self._time, per_job_cap=self._per_job_cap)
        clone._jobs = {key: job.copy() for key, job in self._jobs.items()}
        clone._order = self._order
        return clone

    def __repr__(self) -> str:
        return (
            f"<ProcessorSharingQueue t={self._time:.3f} capacity={self._capacity} "
            f"jobs={len(self._jobs)}>"
        )


# --------------------------------------------------------------------------- #
# multi-stage fluid network
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FluidStage:
    """One stage of a task: ``work`` units to be served by resource ``resource``."""

    resource: str
    work: float

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError("stage work must be non-negative")


@dataclass
class FluidTaskState:
    """Progress record of one task inside a :class:`FluidNetwork`."""

    key: Hashable
    arrival: float
    stages: Tuple[FluidStage, ...]
    stage_index: int = -1
    stage_finish_times: List[float] = field(default_factory=list)
    start_time: Optional[float] = None
    completion_time: Optional[float] = None

    @property
    def started(self) -> bool:
        """Whether the task has entered its first stage."""
        return self.stage_index >= 0

    @property
    def finished(self) -> bool:
        """Whether every stage of the task has completed."""
        return self.completion_time is not None

    @property
    def current_stage(self) -> Optional[FluidStage]:
        """The stage currently in service, or ``None``."""
        if self.finished or not self.started:
            return None
        return self.stages[self.stage_index]

    @property
    def total_work(self) -> float:
        """Total amount of work of the task, all stages summed."""
        return sum(stage.work for stage in self.stages)

    def copy(self) -> "FluidTaskState":
        """Return an independent copy of the task state."""
        return FluidTaskState(
            key=self.key,
            arrival=self.arrival,
            stages=self.stages,
            stage_index=self.stage_index,
            stage_finish_times=list(self.stage_finish_times),
            start_time=self.start_time,
            completion_time=self.completion_time,
        )


@dataclass(frozen=True)
class FluidEvent:
    """A stage or task completion produced by :meth:`FluidNetwork.advance_to`."""

    time: float
    key: Hashable
    stage_index: int
    resource: str
    task_finished: bool


class FluidNetwork:
    """A set of processor-shared resources traversed by multi-stage tasks.

    The canonical use in this repository is one network per server with three
    resources — ``"net_in"``, ``"cpu"`` and ``"net_out"`` — and tasks whose
    stages are the input-data transfer, the computation and the output-data
    transfer (the three parts of a task of Fig. 1 of the paper).
    """

    def __init__(
        self,
        capacities: Dict[str, float],
        time: float = 0.0,
        per_job_caps: Optional[Dict[str, float]] = None,
    ):
        if not capacities:
            raise ValueError("a FluidNetwork needs at least one resource")
        per_job_caps = per_job_caps or {}
        self._queues: Dict[str, ProcessorSharingQueue] = {
            name: ProcessorSharingQueue(cap, time, per_job_cap=per_job_caps.get(name))
            for name, cap in capacities.items()
        }
        self._tasks: Dict[Hashable, FluidTaskState] = {}
        self._pending: List[Hashable] = []  # tasks whose arrival is in the future
        self._time = float(time)
        self._version = 0
        # The HTM's what-if accounting reads these two counters, and the
        # large-N benchmarks run the HTM on this core.
        self.n_steps = 0
        self.n_stage_events = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def time(self) -> float:
        """Internal clock of the network."""
        return self._time

    @property
    def version(self) -> int:
        """Structural version of the network.

        The counter increments on every mutation that can change the *future*
        trajectory of the simulation — adding or removing a task, forgetting a
        record, changing a capacity.  Merely advancing the clock does not bump
        it: a free run to completion yields the same absolute completion dates
        regardless of the clock position, which is what lets the HTM cache
        what-if baselines across ``advance_to`` calls (see
        :meth:`repro.core.htm.ServerTrace.free_run_completions`).
        """
        return self._version

    @property
    def resources(self) -> List[str]:
        """Names of the resources of the network."""
        return list(self._queues)

    def capacity(self, resource: str) -> float:
        """Capacity of ``resource``."""
        return self._queues[resource].capacity

    def tasks(self) -> List[FluidTaskState]:
        """All task states known to the network (finished ones included)."""
        return list(self._tasks.values())

    def task(self, key: Hashable) -> FluidTaskState:
        """State of task ``key``."""
        return self._tasks[key]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._tasks

    def active_count(self, resource: Optional[str] = None) -> int:
        """Number of unfinished tasks, optionally restricted to one resource."""
        if resource is None:
            return sum(1 for t in self._tasks.values() if not t.finished)
        return len(self._queues[resource])

    def unfinished_keys(self) -> List[Hashable]:
        """Keys of the tasks that have not completed yet (pending included)."""
        return [key for key, state in self._tasks.items() if not state.finished]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def set_capacity(
        self,
        resource: str,
        capacity: float,
        now: float,
        per_job_cap: Optional[float] = ...,
    ) -> List[FluidEvent]:
        """Change a resource capacity at ``now`` (advancing the network first).

        ``per_job_cap`` keeps its current value when omitted.
        """
        events = self.advance_to(now)
        self._queues[resource].set_capacity(capacity, now, per_job_cap=per_job_cap)
        self._version += 1
        return events

    def add_task(
        self,
        key: Hashable,
        arrival: float,
        stages: Sequence[FluidStage],
        now: Optional[float] = None,
    ) -> List[FluidEvent]:
        """Register a task.

        ``arrival`` may be in the future (relative to the network clock), in
        which case the task stays pending until the network is advanced past
        its arrival date.  If ``now`` is given, the network is first advanced
        to ``now`` and the returned list contains the events of that advance.
        """
        if key in self._tasks:
            raise SimulationError(f"task {key!r} already exists in this network")
        stages = tuple(stages)
        if not stages:
            raise ValueError("a task needs at least one stage")
        for stage in stages:
            if stage.resource not in self._queues:
                raise KeyError(f"unknown resource {stage.resource!r}")
        events: List[FluidEvent] = []
        if now is not None:
            events.extend(self.advance_to(now))
        state = FluidTaskState(key=key, arrival=float(arrival), stages=stages)
        self._tasks[key] = state
        self._version += 1
        if arrival <= self._time + EPSILON:
            self._start_task(state, self._time, events)
        else:
            self._pending.append(key)
        return events

    def remove_task(self, key: Hashable, now: float) -> FluidTaskState:
        """Remove a (possibly running) task, e.g. because its server collapsed."""
        self.advance_to(now)
        state = self._tasks.pop(key)
        self._version += 1
        if key in self._pending:
            self._pending.remove(key)
        if state.started and not state.finished:
            queue = self._queues[state.stages[state.stage_index].resource]
            if key in queue:
                queue.remove(key, now)
        return state

    def forget(self, key: Hashable) -> None:
        """Drop the record of a *finished* task (memory reclamation)."""
        state = self._tasks.get(key)
        if state is None:
            return
        if not state.finished:
            raise SimulationError(f"cannot forget unfinished task {key!r}")
        # Dropping a *finished* record cannot change the future trajectory, so
        # the structural version stays put and cached free-run baselines
        # survive completion notifications (re-adding the key later bumps it).
        del self._tasks[key]

    # ------------------------------------------------------------------ #
    # time evolution
    # ------------------------------------------------------------------ #
    def next_event_time(self) -> float:
        """Earliest time of the next stage completion or pending arrival."""
        t = min((q.next_completion_time() for q in self._queues.values()), default=math.inf)
        for key in self._pending:
            t = min(t, self._tasks[key].arrival)
        return t

    def advance_to(self, now: float) -> List[FluidEvent]:
        """Advance the network clock to ``now`` and return what happened."""
        if now < self._time - 1e-6:
            raise SimulationError(
                f"cannot advance network backwards (from {self._time} to {now})"
            )
        events: List[FluidEvent] = []
        now = max(now, self._time)
        guard = 0
        while True:
            t_next = self.next_event_time()
            if t_next == math.inf or t_next > now + EPSILON:
                break
            self._step_to(max(t_next, self._time), events)
            guard += 1
            if guard > 50_000_000:  # pragma: no cover - defensive
                raise SimulationError("FluidNetwork.advance_to did not converge")
        self._step_to(now, events)
        return events

    def run_to_completion(self, horizon: float = math.inf) -> Dict[Hashable, float]:
        """Advance until every task has finished (or ``horizon`` is reached).

        Returns a mapping from task key to completion time for the tasks that
        have finished.  Mainly used by the HTM on *copies* of the live network
        to answer "what if" questions.
        """
        while True:
            t_next = self.next_event_time()
            if t_next == math.inf or t_next > horizon:
                break
            self.advance_to(t_next)
        return {
            key: state.completion_time
            for key, state in self._tasks.items()
            if state.completion_time is not None
        }

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _step_to(self, target: float, events: List[FluidEvent]) -> None:
        """Advance every queue to ``target`` and process stage transitions."""
        self.n_steps += 1
        completions: List[Tuple[float, Hashable, str]] = []
        for name, queue in self._queues.items():
            for time, key in queue.advance_to(target):
                completions.append((time, key, name))
        completions.sort(key=lambda item: item[0])
        self._time = max(self._time, target)
        self.n_stage_events += len(completions)
        for time, key, resource in completions:
            state = self._tasks[key]
            state.stage_finish_times.append(time)
            finished_task = state.stage_index + 1 >= len(state.stages)
            events.append(
                FluidEvent(time, key, state.stage_index, resource, task_finished=finished_task)
            )
            if finished_task:
                state.completion_time = time
            else:
                state.stage_index += 1
                self._enter_stage(state, time, events)
        # Activate tasks whose arrival date has been reached.
        due = [key for key in self._pending if self._tasks[key].arrival <= self._time + EPSILON]
        for key in due:
            self._pending.remove(key)
            state = self._tasks[key]
            self._start_task(state, max(state.arrival, self._time), events)

    def _start_task(self, state: FluidTaskState, now: float, events: List[FluidEvent]) -> None:
        state.stage_index = 0
        state.start_time = now
        self._enter_stage(state, now, events)

    def _enter_stage(self, state: FluidTaskState, now: float, events: List[FluidEvent]) -> None:
        """Put the task's current stage in service, skipping zero-work stages."""
        while state.stage_index < len(state.stages):
            stage = state.stages[state.stage_index]
            if stage.work > EPSILON:
                self._queues[stage.resource].add(state.key, stage.work, now)
                return
            # Zero-work stage: complete it immediately.
            state.stage_finish_times.append(now)
            finished_task = state.stage_index == len(state.stages) - 1
            self.n_stage_events += 1
            events.append(
                FluidEvent(now, state.key, state.stage_index, stage.resource, finished_task)
            )
            if finished_task:
                state.completion_time = now
                return
            state.stage_index += 1

    # ------------------------------------------------------------------ #
    def copy(self) -> "FluidNetwork":
        """Return an independent deep copy of the network (for what-if runs)."""
        clone = FluidNetwork.__new__(FluidNetwork)
        clone._queues = {name: queue.copy() for name, queue in self._queues.items()}
        clone._tasks = {key: state.copy() for key, state in self._tasks.items()}
        clone._pending = list(self._pending)
        clone._time = self._time
        clone._version = self._version
        clone.n_steps = self.n_steps
        clone.n_stage_events = self.n_stage_events
        return clone

    def __repr__(self) -> str:
        active = sum(1 for t in self._tasks.values() if not t.finished)
        return (
            f"<FluidNetwork t={self._time:.3f} resources={list(self._queues)} "
            f"active_tasks={active}>"
        )
