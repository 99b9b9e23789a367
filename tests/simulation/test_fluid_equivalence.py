"""Virtual-time fluid core: long-horizon drift and old-vs-new equivalence.

Two guarantees of the virtual-time rewrite are locked down here:

* **no drift** — the legacy core decremented every job's ``remaining`` on
  every slice, accumulating floating-point error over long runs; the
  virtual-time core stores immutable completion targets, so completion dates
  stay exact against closed forms even after thousands of completions through
  one queue;
* **equivalence** — randomized programs (multi-stage networks with arrivals,
  removals and capacity changes) produce the same trajectories on the new
  core and on the preserved legacy implementation
  (``tests/oracles/fluid_legacy.py``), which is the oracle the refactor is
  judged against.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import fluid_legacy
from repro.simulation import fluid
from repro.simulation.fluid import FluidNetwork, FluidStage, ProcessorSharingQueue

#: Absolute tolerance of the drift regression (seconds over ~10^5 s horizons).
DRIFT_TOL = 1e-6


class TestLongHorizonDrift:
    def test_thousands_of_sequential_completions_stay_exact(self):
        """5000 back-to-back jobs: completion i must equal the running sum of
        works, within 1e-6, with no accumulated drift at the end of the run."""
        queue = ProcessorSharingQueue(capacity=1.0)
        work = math.pi / 3.0  # deliberately not representable "nicely"
        expected = 0.0
        for i in range(5000):
            queue.add(i, work, now=expected)
            expected += work
            completions = queue.advance_to(expected)
            assert len(completions) == 1
            finished_at, key = completions[0]
            assert key == i
            assert abs(finished_at - expected) < DRIFT_TOL

    def test_thousands_of_shared_completions_match_closed_form(self):
        """200 rounds of a 10-job batch with works w, 2w, ..., 10w.

        Within a batch arriving together on a capacity-1 queue, job j (1-based)
        completes at ``start + w * sum_{i=0}^{j-1} (K - i)`` — the classic
        processor-sharing staircase.  2000 completions over a ~10^5 s horizon
        must all match that closed form within 1e-6 s.
        """
        queue = ProcessorSharingQueue(capacity=1.0)
        k, w = 10, 4.7
        start = 0.0
        for round_index in range(200):
            for j in range(k):
                queue.add((round_index, j), (j + 1) * w, now=start)
            horizon = start + w * sum(range(1, k + 1)) + 1.0
            completions = dict((key, t) for t, key in queue.advance_to(horizon))
            assert len(completions) == k
            expected = start
            for j in range(k):
                expected += (k - j) * w
                assert abs(completions[(round_index, j)] - expected) < DRIFT_TOL
            start = horizon

    def test_network_long_run_matches_unloaded_sum_when_tasks_never_overlap(self):
        """2000 three-stage tasks spaced far apart: every completion is the
        arrival plus the unloaded total work, exactly, for the whole run."""
        network = FluidNetwork({"net_in": 1.0, "cpu": 1.0, "net_out": 1.0})
        total = 1.0 + 10.0 + 0.5
        spacing = 20.0  # > total: tasks never share a resource
        for i in range(2000):
            network.add_task(
                i,
                arrival=i * spacing,
                stages=(
                    FluidStage("net_in", 1.0),
                    FluidStage("cpu", 10.0),
                    FluidStage("net_out", 0.5),
                ),
            )
        completions = network.run_to_completion()
        assert len(completions) == 2000
        for i, completed_at in completions.items():
            assert abs(completed_at - (i * spacing + total)) < DRIFT_TOL


def random_program(rng: np.random.Generator):
    """One randomized multi-stage network program, replayable on any core.

    Returns ``(capacities, per_job_caps, operations)`` where operations is a
    list of ``("add", key, arrival, stages)``, ``("advance", t)``,
    ``("remove", key, t)`` and ``("capacity", resource, value, t)`` tuples in
    non-decreasing time order.
    """
    resources = ["net_in", "cpu", "net_out"]
    capacities = {name: float(rng.uniform(0.5, 3.0)) for name in resources}
    per_job_caps = {"cpu": 1.0} if rng.random() < 0.5 else None
    operations = []
    now = 0.0
    alive = []
    for i in range(int(rng.integers(15, 35))):
        now += float(rng.exponential(4.0))
        roll = rng.random()
        if roll < 0.62 or not alive:
            stages = tuple(
                FluidStage(resource, float(rng.choice([0.0, rng.uniform(0.2, 12.0)], p=[0.1, 0.9])))
                for resource in resources
            )
            if all(stage.work == 0.0 for stage in stages):
                stages = (FluidStage("cpu", 1.0),)
            arrival = now + float(rng.choice([0.0, rng.uniform(0.0, 15.0)]))
            operations.append(("add", i, arrival, stages))
            alive.append(i)
        elif roll < 0.75:
            operations.append(("advance", now))
        elif roll < 0.88:
            key = alive.pop(int(rng.integers(len(alive))))
            operations.append(("remove", key, now))
        else:
            resource = resources[int(rng.integers(len(resources)))]
            operations.append(("capacity", resource, float(rng.uniform(0.3, 3.0)), now))
    return capacities, per_job_caps, operations


def saturated_program(n: int = 300):
    """Three-phase tasks whose arrivals outpace service, so the CPU queue keeps
    growing and the per-event job count reaches O(n) — the legacy core's worst
    case."""
    operations = [
        (
            "add",
            i,
            i * 2.0,
            (FluidStage("net_in", 1.0), FluidStage("cpu", 10.0 + (i % 5)), FluidStage("net_out", 0.5)),
        )
        for i in range(n)
    ]
    return {"net_in": 1.0, "cpu": 1.0, "net_out": 1.0}, None, operations


def replay(module, capacities, per_job_caps, operations):
    """Run one program on a given fluid implementation; return its trace."""
    network = module.FluidNetwork(dict(capacities), per_job_caps=per_job_caps)
    events = []
    for operation in operations:
        if operation[0] == "add":
            _, key, arrival, stages = operation
            stages = tuple(module.FluidStage(s.resource, s.work) for s in stages)
            events.extend(network.add_task(key, arrival=arrival, stages=stages))
        elif operation[0] == "advance":
            events.extend(network.advance_to(operation[1]))
        elif operation[0] == "remove":
            _, key, t = operation
            if key in network and not network.task(key).finished:
                events.extend(network.advance_to(t))
                network.remove_task(key, t)
        else:
            _, resource, value, t = operation
            events.extend(network.set_capacity(resource, value, t))
    completions = network.run_to_completion()
    return events, completions, network


class TestLegacyEquivalence:
    @pytest.mark.parametrize("seed", [*range(12), "saturated"])
    def test_randomized_network_programs_match_the_legacy_core(self, seed):
        if seed == "saturated":
            capacities, per_job_caps, operations = saturated_program()
        else:
            capacities, per_job_caps, operations = random_program(np.random.default_rng(seed))
        new_events, new_completions, new_network = replay(
            fluid, capacities, per_job_caps, operations
        )
        old_events, old_completions, old_network = replay(
            fluid_legacy, capacities, per_job_caps, operations
        )

        assert set(new_completions) == set(old_completions)
        for key, completed_at in old_completions.items():
            assert new_completions[key] == pytest.approx(completed_at, rel=1e-9, abs=1e-6)

        assert len(new_events) == len(old_events)
        for new_event, old_event in zip(new_events, old_events):
            assert new_event.key == old_event.key
            assert new_event.stage_index == old_event.stage_index
            assert new_event.resource == old_event.resource
            assert new_event.task_finished == old_event.task_finished
            assert new_event.time == pytest.approx(old_event.time, rel=1e-9, abs=1e-6)

        assert new_network.time == pytest.approx(old_network.time, rel=1e-9, abs=1e-6)
        assert new_network.version == old_network.version
        assert set(new_network.unfinished_keys()) == set(old_network.unfinished_keys())
        assert not new_network.unfinished_keys()

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_queue_programs_match_the_legacy_core(self, seed):
        """Queue-level sweep: staggered adds, removals and capacity changes."""
        rng = np.random.default_rng(1000 + seed)
        new_queue = fluid.ProcessorSharingQueue(capacity=1.5)
        old_queue = fluid_legacy.ProcessorSharingQueue(capacity=1.5)
        now = 0.0
        new_done, old_done = [], []
        alive = []
        for i in range(60):
            now += float(rng.exponential(2.0))
            roll = rng.random()
            if roll < 0.7 or not alive:
                work = float(rng.uniform(0.1, 20.0))
                new_done.extend(new_queue.advance_to(now))
                old_done.extend(old_queue.advance_to(now))
                new_queue.add(i, work, now=now)
                old_queue.add(i, work, now=now)
                alive.append(i)
            elif roll < 0.85:
                # Advance first: the victim may complete before ``now``.
                new_done.extend(new_queue.advance_to(now))
                old_done.extend(old_queue.advance_to(now))
                key = alive.pop(int(rng.integers(len(alive))))
                if key in new_queue:
                    removed_new = new_queue.remove(key, now)
                    removed_old = old_queue.remove(key, now)
                    assert removed_new == pytest.approx(removed_old, rel=1e-9, abs=1e-9)
            else:
                capacity = float(rng.uniform(0.2, 4.0))
                new_queue.set_capacity(capacity, now)
                old_queue.set_capacity(capacity, now)
            alive = [key for key in alive if key in new_queue]
        new_done.extend(new_queue.advance_to(now + 10_000.0))
        old_done.extend(old_queue.advance_to(now + 10_000.0))

        assert [key for _, key in new_done] == [key for _, key in old_done]
        for (new_t, _), (old_t, _) in zip(new_done, old_done):
            assert new_t == pytest.approx(old_t, rel=1e-9, abs=1e-9)

    def test_copies_share_immutable_jobs_but_not_state(self):
        """The cheap copy must still be semantically deep: advancing a clone
        never changes the original's remaining amounts."""
        queue = fluid.ProcessorSharingQueue(capacity=1.0)
        for i in range(5):
            queue.add(i, 10.0 + i, now=0.0)
        clone = queue.copy()
        clone.advance_to(200.0)
        assert len(clone) == 0
        assert len(queue) == 5
        assert queue.remaining(0) == pytest.approx(10.0)
