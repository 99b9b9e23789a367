"""Fluid (piecewise-linear) processor-sharing models — virtual-time core.

The paper models a time-shared server as follows (Section 2.3): when a server
executes *n* tasks, each task receives ``1/n`` of the total power of the
resource.  The same egalitarian sharing is assumed for data transfers on a
link ("we assume that all tasks can create communication bandwidth
interference for any other task", Section 6).

This module implements that model once, and both the *ground truth* platform
(:mod:`repro.platform.server`) and the agent's *Historical Trace Manager*
(:mod:`repro.core.htm`) reuse it:

* :class:`ProcessorSharingQueue` — a single resource whose capacity is shared
  equally among its active jobs; progress is piecewise linear between job
  arrivals/completions and capacity changes.
* :class:`FluidNetwork` — a set of named queues through which multi-stage
  tasks (input transfer → computation → output transfer) flow.

Both classes operate on an explicit *virtual clock*: the caller advances them
to a target time and receives the completions that occurred.  This makes the
same code usable inside a discrete-event simulation (driven by the
environment clock) and inside the HTM (driven by hypothetical what-if runs).

Virtual-time scheduling
-----------------------

Because the sharing is egalitarian, every active job of a queue progresses at
the *same* instantaneous rate.  The queue therefore tracks a single cumulative
per-job service function ``V(t)`` (piecewise linear, with slope ``rate()``
between events) instead of mutating each job on every slice:

* a job entering with ``work`` units at virtual time ``V`` is assigned the
  immutable completion target ``V + work``;
* its remaining work at any later moment is ``target - V(now)`` — no per-job
  state is ever touched while time advances, so long runs accumulate no
  per-job floating-point drift;
* a min-heap keyed by ``(target, insertion order)`` yields the next completion
  in O(log J); ``remove`` is a dictionary pop with *lazy deletion* — stale
  heap entries are discarded when they surface.

On top, :class:`FluidNetwork` schedules events through heaps as well: pending
arrivals live in a min-heap keyed by arrival date, and each queue exposes its
next completion as an O(1) peek of its own target heap.  The cross-queue
event layer is the min across those per-queue heap tops plus the arrival-heap
head — a flat min because the canonical networks of this repository have
R = 3 resources (a binary heap over queue tops only pays off for R ≫ 10).
``advance_to`` / ``run_to_completion`` are thus O((events + mutations)·log)
where the previous implementation rescanned every job of every queue at every
event (O(E·R·J) per run), and ``run_to_completion`` takes a single step per
event; ``copy()`` shares the immutable job records instead of cloning them.
The pre-virtual-time core is preserved in :mod:`repro.simulation.fluid_legacy`
as the equivalence oracle for tests and A/B benchmarks.
"""

from __future__ import annotations

import heapq
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


@dataclass(frozen=True)
class PSJob:
    """A job inside a :class:`ProcessorSharingQueue`.

    The record is immutable: ``target`` is the value of the queue's cumulative
    service function ``V`` at which the job completes (``V(entry) + work``),
    fixed at insertion.  Immutability is what lets :meth:`ProcessorSharingQueue.copy`
    share job records between clones.
    """

    key: Hashable
    target: float
    entered_at: float
    order: int

    def copy(self) -> "PSJob":
        """Return the job itself (records are immutable, sharing is safe)."""
        return self


class ProcessorSharingQueue:
    """Egalitarian processor sharing of one resource, in virtual time.

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
        #: Cumulative per-job service V(t) since the queue's creation.
        self._vtime = 0.0
        self._jobs: Dict[Hashable, PSJob] = {}
        #: Min-heap of ``(target, order, key)``; entries whose ``(key, order)``
        #: no longer matches ``_jobs`` are stale (lazy deletion).
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._order = 0
        # Hot-path work counters (rolled up by :mod:`repro.obs.counters`).
        # Plain ints on purpose: one ``+= 1`` next to a heap push is
        # unmeasurable, a dict lookup per event is not.  Deterministic per
        # run — they describe the implementation's work, never the model's.
        self.n_heap_pushes = 0
        self.n_lazy_discards = 0
        self.n_completions = 0
        self.n_reanchors = 0

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
        return self._jobs[key].target - self._vtime

    def total_remaining(self) -> float:
        """Sum of the remaining work of all active jobs."""
        return sum(job.target - self._vtime for job in self._jobs.values())

    def rate(self) -> float:
        """Progress rate currently enjoyed by each active job."""
        n = len(self._jobs)
        if n == 0:
            return 0.0
        rate = self._capacity / n
        if self._per_job_cap is not None:
            rate = min(rate, self._per_job_cap)
        return rate

    def utilization(self) -> float:
        """Fraction of the capacity currently consumed (0.0 — 1.0).

        With ``per_job_cap`` (the multi-CPU model) *n* jobs consume
        ``n * rate()`` of the capacity — e.g. 2 tasks on a 4-CPU server read
        0.5; without a cap any non-empty queue saturates the resource (the
        paper's egalitarian ``1/n`` sharing), reading 1.0.
        """
        n = len(self._jobs)
        if n == 0:
            return 0.0
        if self._capacity <= 0.0:
            return 1.0
        return min(1.0, n * self.rate() / self._capacity)

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
        job = PSJob(key, self._vtime + float(work), now, self._order)
        self._jobs[key] = job
        heapq.heappush(self._heap, (job.target, job.order, key))
        self._order += 1
        self.n_heap_pushes += 1

    def remove(self, key: Hashable, now: float) -> float:
        """Remove job ``key`` (e.g. cancelled) and return its remaining work.

        The heap entry of the job is *not* searched for: it goes stale and is
        discarded when it reaches the top (lazy deletion, O(1) here).
        """
        self.advance_to(now)
        job = self._jobs.pop(key)
        remaining = job.target - self._vtime
        if not self._jobs:
            self._reanchor()
        return remaining

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
    def _min_target(self) -> Optional[float]:
        """Smallest live completion target, discarding stale heap entries."""
        heap = self._heap
        while heap:
            target, order, key = heap[0]
            job = self._jobs.get(key)
            if job is not None and job.order == order:
                return target
            heapq.heappop(heap)
            self.n_lazy_discards += 1
        return None

    def next_completion_time(self) -> float:
        """Time at which the next job completes if nothing else changes."""
        if not self._jobs:
            return math.inf
        min_remaining = self._min_target() - self._vtime
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
        if not self._jobs:
            # An idle queue is already re-anchored (``remove`` and the tail
            # below both call ``_reanchor`` when it drains): only the clock moves.
            if now > self._time:
                self._time = now
            return []
        now = max(now, self._time)
        completions: List[Tuple[float, Hashable]] = []
        while self._jobs:
            t_next = self.next_completion_time()
            if t_next > now + EPSILON:
                break
            self._progress(max(t_next, self._time))
            finished: List[PSJob] = []
            while True:
                target = self._min_target()
                if target is None or target > self._vtime + EPSILON:
                    break
                _, _, key = heapq.heappop(self._heap)
                finished.append(self._jobs.pop(key))
            if not finished:  # pragma: no cover - float safety net
                break
            # Jobs finishing in the same instant are reported in insertion
            # order (their targets agree to within EPSILON but not exactly).
            finished.sort(key=lambda j: j.order)
            self.n_completions += len(finished)
            for job in finished:
                completions.append((self._time, job.key))
        if now > self._time:
            self._progress(now)
        if not self._jobs:
            self._reanchor()
        return completions

    def _reanchor(self) -> None:
        """Reset the service function once the queue drains.

        Targets are meaningless with no jobs, so ``_vtime`` can restart from
        zero — bounding its magnitude by the longest *busy period* instead of
        the whole run, which keeps the absolute EPSILON comparisons against
        ``target - _vtime`` sharp on arbitrarily long horizons.
        """
        if self._vtime != 0.0 or self._heap:
            self.n_reanchors += 1
        self._vtime = 0.0
        self._heap.clear()

    def _progress(self, target: float) -> None:
        """Advance the service function linearly from the current clock to ``target``."""
        dt = target - self._time
        rate = self.rate()
        if dt > 0 and self._jobs and rate > 0:
            self._vtime += dt * rate
        self._time = max(self._time, target)

    # ------------------------------------------------------------------ #
    def copy(self) -> "ProcessorSharingQueue":
        """Return an independent copy of the queue.

        Job records are immutable, so the clone shares them: the copy is one
        dict copy and one list copy, with no per-job allocation.
        """
        clone = ProcessorSharingQueue.__new__(ProcessorSharingQueue)
        clone._capacity = self._capacity
        clone._per_job_cap = self._per_job_cap
        clone._time = self._time
        clone._vtime = self._vtime
        clone._jobs = dict(self._jobs)
        clone._heap = list(self._heap)
        clone._order = self._order
        clone.n_heap_pushes = self.n_heap_pushes
        clone.n_lazy_discards = self.n_lazy_discards
        clone.n_completions = self.n_completions
        clone.n_reanchors = self.n_reanchors
        return clone

    def counters(self) -> Dict[str, int]:
        """Hot-path work counters of this queue (see :mod:`repro.obs.counters`)."""
        return {
            "heap_pushes": self.n_heap_pushes,
            "lazy_discards": self.n_lazy_discards,
            "completions": self.n_completions,
            "reanchors": self.n_reanchors,
        }

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

    Event scheduling is heap-based (see the module docstring): pending
    arrivals sit in a min-heap keyed by arrival date, and each queue's next
    completion is an O(1) peek of its virtual-time target heap, so one event
    costs O(R + log) instead of a full rescan of every job of every queue.

    Time moves in *steps* (``_step_to``): every queue advances to the step's
    date, then the stage completions and due arrivals of that date are
    processed.  :meth:`run_to_completion` takes one step per event — one
    ``next_event_time`` scan, one step — which is what an HTM what-if costs
    per event; :meth:`advance_to` steps through the events before its target
    and then to the target itself.  An idle queue only moves its clock, so a
    step costs little on the resources no task is using.  ``n_steps`` counts
    the steps taken (a copy starts from its original's count).
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
        #: Tasks whose arrival is in the future, mapped to the sequence
        #: number of their *live* arrival-heap entry.
        self._pending: Dict[Hashable, int] = {}
        #: Min-heap of ``(arrival, seq, key)``; an entry is live only while
        #: ``_pending[key] == seq`` — matching on the sequence number (not
        #: mere membership) keeps an entry stale after its task is removed
        #: and the same key re-added with a different arrival date.
        self._arrival_heap: List[Tuple[float, int, Hashable]] = []
        self._seq = 0
        self._time = float(time)
        self._version = 0
        # Hot-path work counters (rolled up by :mod:`repro.obs.counters`).
        self.n_steps = 0
        self.n_stage_events = 0
        self.n_arrivals_activated = 0

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

    def utilization(self, resource: str) -> float:
        """Fraction of ``resource``'s capacity currently consumed (0.0 — 1.0)."""
        return self._queues[resource].utilization()

    def tasks(self) -> List[FluidTaskState]:
        """All task states known to the network (finished ones included)."""
        return list(self._tasks.values())

    def task(self, key: Hashable) -> FluidTaskState:
        """State of task ``key``."""
        return self._tasks[key]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._tasks

    def active_count(self, resource: Optional[str] = None) -> int:
        """Number of unfinished tasks, optionally restricted to one resource.

        Pending tasks count once: they are unfinished entries of the task table.
        """
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
            self._pending[key] = self._seq
            heapq.heappush(self._arrival_heap, (state.arrival, self._seq, key))
            self._seq += 1
        return events

    def remove_task(self, key: Hashable, now: float) -> FluidTaskState:
        """Remove a (possibly running) task, e.g. because its server collapsed."""
        self.advance_to(now)
        state = self._tasks.pop(key)
        self._version += 1
        # A pending key leaves the table; its arrival-heap entry goes stale
        # (the sequence number no longer matches) and is discarded lazily.
        self._pending.pop(key, None)
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
    def _next_arrival(self) -> float:
        """Earliest pending arrival (heap peek, discarding stale entries)."""
        heap = self._arrival_heap
        while heap:
            arrival, seq, key = heap[0]
            if self._pending.get(key) == seq:
                return arrival
            heapq.heappop(heap)
        return math.inf

    def next_event_time(self) -> float:
        """Earliest time of the next stage completion or pending arrival."""
        t = self._next_arrival()
        for queue in self._queues.values():
            t_queue = queue.next_completion_time()
            if t_queue < t:
                t = t_queue
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

        The loop takes exactly one step per event: one ``next_event_time``
        scan, then one ``_step_to`` to that date.  The dates are exactly those
        of calling :meth:`advance_to` at each event, which would cost two more
        scans and a zero-length step per event.
        """
        events: List[FluidEvent] = []
        while True:
            t_next = self.next_event_time()
            if t_next == math.inf or t_next > horizon:
                break
            self._step_to(max(t_next, self._time), events)
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
        if len(completions) > 1:
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
        # Activate tasks whose arrival date has been reached (heap order:
        # arrival date, then insertion order).
        heap = self._arrival_heap
        while heap:
            arrival, seq, key = heap[0]
            if self._pending.get(key) != seq:
                heapq.heappop(heap)
                continue
            if arrival > self._time + EPSILON:
                break
            heapq.heappop(heap)
            del self._pending[key]
            self.n_arrivals_activated += 1
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
        clone._pending = dict(self._pending)
        clone._arrival_heap = list(self._arrival_heap)
        clone._seq = self._seq
        clone._time = self._time
        clone._version = self._version
        clone.n_steps = self.n_steps
        clone.n_stage_events = self.n_stage_events
        clone.n_arrivals_activated = self.n_arrivals_activated
        return clone

    def counters(self) -> Dict[str, int]:
        """Hot-path work counters, the per-resource queues summed in.

        Deterministic per run (pure function of the event sequence), but an
        *implementation* measure, not a model output: counters never enter
        :class:`~repro.results.RunRecord` metrics or fingerprints.
        """
        out = {
            "steps": self.n_steps,
            "stage_events": self.n_stage_events,
            "arrivals_activated": self.n_arrivals_activated,
            "heap_pushes": 0,
            "lazy_discards": 0,
            "completions": 0,
            "reanchors": 0,
        }
        for queue in self._queues.values():
            out["heap_pushes"] += queue.n_heap_pushes
            out["lazy_discards"] += queue.n_lazy_discards
            out["completions"] += queue.n_completions
            out["reanchors"] += queue.n_reanchors
        return {key: out[key] for key in sorted(out)}

    def __repr__(self) -> str:
        active = sum(1 for t in self._tasks.values() if not t.finished)
        return (
            f"<FluidNetwork t={self._time:.3f} resources={list(self._queues)} "
            f"active_tasks={active}>"
        )
