"""Exactness of the one-step-per-event ``run_to_completion`` loop.

``FluidNetwork.run_to_completion`` steps straight from one event to the
next.  The reference below is the stepping it replaced, written with the
public API only: scan for the next event, then ``advance_to`` it.  Both must
give the *same* floats — the HTM's what-if predictions and the golden tables
depend on it — so the comparisons use ``==``, never ``approx``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import fluid, fluid_legacy
from repro.simulation.fluid import FluidNetwork, FluidStage, ProcessorSharingQueue

RESOURCES = ("net_in", "cpu", "net_out")


def advance_stepping(network: FluidNetwork, horizon: float = math.inf) -> None:
    """Reference loop: one ``advance_to`` per scanned event date."""
    while (t := network.next_event_time()) <= horizon and t != math.inf:
        network.advance_to(t)


def trajectory(network: FluidNetwork):
    return [
        (state.key, state.completion_time, state.stage_finish_times, state.start_time)
        for state in network.tasks()
    ]


#: Stage work: mostly real sharing, sometimes zero (skipped stages).
stage_works = st.one_of(
    st.just(0.0), st.floats(min_value=0.01, max_value=20.0, allow_nan=False)
)
task_programs = st.lists(
    st.tuples(
        # gap from the previous submission, then how far ahead it arrives
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        st.lists(st.sampled_from(RESOURCES), min_size=1, max_size=3),
        st.lists(stage_works, min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=8,
)


def build(program, cpus: int, capped: bool, link: float) -> FluidNetwork:
    network = FluidNetwork(
        {"net_in": link, "cpu": float(cpus), "net_out": 1.0},
        per_job_caps={"cpu": 1.0} if capped else None,
    )
    now = 0.0
    for index, (gap, ahead, resources, works) in enumerate(program):
        now += gap
        stages = [FluidStage(resource, work) for resource, work in zip(resources, works)]
        network.add_task(index, arrival=now + ahead, stages=stages, now=now)
    return network


class TestOneStepPerEvent:
    @given(
        program=task_programs,
        cpus=st.integers(min_value=1, max_value=4),
        capped=st.booleans(),
        link=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
        horizon=st.one_of(
            st.just(math.inf), st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_to_completion_matches_advance_to_stepping_exactly(
        self, program, cpus, capped, link, horizon
    ):
        network = build(program, cpus, capped, link)
        direct = network.copy()
        completions = direct.run_to_completion(horizon)
        reference = network.copy()
        advance_stepping(reference, horizon)
        assert trajectory(direct) == trajectory(reference)
        assert completions == {
            state.key: state.completion_time
            for state in reference.tasks()
            if state.completion_time is not None
        }
        assert direct.time == reference.time

    def test_one_step_per_stage_completion(self):
        network = FluidNetwork({name: 1.0 for name in RESOURCES})
        network.add_task(
            "a", arrival=0.0,
            stages=[FluidStage("net_in", 1.0), FluidStage("cpu", 2.0), FluidStage("net_out", 1.0)],
        )
        completions = network.run_to_completion()
        assert completions == {"a": 4.0}
        assert network.n_steps == 3

    def test_pending_arrival_is_a_step_of_its_own(self):
        network = FluidNetwork({"cpu": 1.0})
        network.add_task("a", arrival=5.0, stages=[FluidStage("cpu", 1.0)])
        assert network.run_to_completion() == {"a": 6.0}
        assert network.n_steps == 2  # the arrival, then the completion

    def test_copies_carry_the_step_count(self):
        network = FluidNetwork({"cpu": 1.0})
        network.add_task("a", arrival=0.0, stages=[FluidStage("cpu", 1.0)])
        network.advance_to(0.5)
        clone = network.copy()
        assert clone.n_steps == network.n_steps
        clone.run_to_completion()
        assert clone.n_steps == network.n_steps + 1
        assert network.counters()["steps"] == network.n_steps


class TestIdleQueue:
    def test_idle_queue_only_moves_its_clock(self):
        queue = ProcessorSharingQueue(capacity=2.0)
        queue.add("a", 1.0, now=0.0)
        assert queue.advance_to(10.0) == [(0.5, "a")]
        reanchors = queue.n_reanchors
        assert queue.advance_to(12.0) == []
        assert queue.time == 12.0
        assert queue.n_reanchors == reanchors
        assert queue.advance_to(11.9999999) == []  # within the tolerance
        assert queue.time == 12.0
        with pytest.raises(SimulationError):
            queue.advance_to(11.0)

    def test_idle_queue_starts_the_next_job_from_its_clock(self):
        queue = ProcessorSharingQueue()
        queue.advance_to(3.0)
        queue.add("a", 2.0, now=3.0)
        assert queue.advance_to(10.0) == [(5.0, "a")]


class TestActiveCount:
    @pytest.mark.parametrize("module", [fluid, fluid_legacy], ids=["fluid", "legacy"])
    def test_pending_task_counts_once(self, module):
        network = module.FluidNetwork({"cpu": 1.0})
        network.add_task("a", arrival=5.0, stages=[module.FluidStage("cpu", 1.0)])
        assert network.active_count() == 1 == len(network.unfinished_keys())
        network.add_task("b", arrival=0.0, stages=[module.FluidStage("cpu", 1.0)])
        assert network.active_count() == 2
        network.run_to_completion()
        assert network.active_count() == 0
