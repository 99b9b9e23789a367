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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fluid_legacy
from repro.errors import SimulationError
from repro.simulation import fluid
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


def what_if_completion(network: FluidNetwork, now: float, stages) -> float:
    """Reference: simulate the new task on a copy, as the HTM's what-ifs do."""
    clone = network.copy()
    clone.add_task("new", now, stages, now=now)
    return clone.run_to_completion()["new"]


def step_loop_advance(network: FluidNetwork, now: float):
    """Reference: the step loop's ``advance_to`` on an idle network.

    With nothing unfinished the scan finds no event, so the loop takes one
    step to the target.
    """
    assert network.next_event_time() == math.inf
    events = []
    network._step_to(max(now, network.time), events)
    return events


def queue_clocks(network: FluidNetwork):
    return [network._queues[name].time for name in network.resources]


#: Stage work around the EPSILON threshold as well as real work: stages of
#: at most EPSILON are skipped, larger ones are served.
idle_stage_works = st.one_of(
    st.just(0.0),
    st.sampled_from(
        [fluid.EPSILON / 2, fluid.EPSILON, math.nextafter(fluid.EPSILON, math.inf), 2 * fluid.EPSILON]
    ),
    st.floats(min_value=fluid.EPSILON / 4, max_value=4 * fluid.EPSILON, allow_nan=False),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)


def idle_network(program, cpus: int, capped: bool, link: float, gap: float) -> FluidNetwork:
    """A network that ran ``program`` to completion, then idled for ``gap``."""
    network = build(program, cpus, capped, link)
    network.run_to_completion()
    network.advance_to(network.time + gap)
    assert network.is_idle()
    return network


class TestIdleNetwork:
    @given(
        program=st.one_of(st.just([]), task_programs),
        cpus=st.integers(min_value=1, max_value=8),
        capped=st.booleans(),
        link=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
        gap=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        # the new task's date, relative to the network clock: up to 1e-7
        # behind it (the tolerated clock lag) or ahead of it
        offset=st.one_of(
            st.just(0.0),
            st.floats(min_value=-1e-7, max_value=0.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        ),
        resources=st.lists(st.sampled_from(RESOURCES), min_size=1, max_size=4),
        works=st.lists(idle_stage_works, min_size=4, max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    # stage dates are added one by one, not summed first: ((1 + 1.1) + 2.2)
    # + 3.3 differs from 1 + (1.1 + 2.2 + 3.3)
    @example([], 1, True, 1.0, 0.0, 1.0, list(RESOURCES), [1.1, 2.2, 3.3, 0.0])
    # a task dated behind the clock starts at the clock
    @example([], 1, True, 1.0, 0.0, -5e-8, ["cpu"], [2.0, 0.0, 0.0, 0.0])
    # a stage of at most EPSILON work is skipped, not served
    @example([], 1, True, 1.0, 0.0, 0.0, ["net_in", "cpu"], [fluid.EPSILON / 2, 1.0, 0.0, 0.0])
    def test_idle_completion_equals_the_what_if_run_exactly(
        self, program, cpus, capped, link, gap, offset, resources, works
    ):
        network = idle_network(program, cpus, capped, link, gap)
        now = network.time + offset
        stages = [FluidStage(resource, work) for resource, work in zip(resources, works)]
        before = (network.time, queue_clocks(network), network.version, network.counters())
        assert network.idle_completion(now, stages) == what_if_completion(network, now, stages)
        assert (network.time, queue_clocks(network), network.version, network.counters()) == before

    @given(
        program=st.one_of(st.just([]), task_programs),
        cpus=st.integers(min_value=1, max_value=8),
        capped=st.booleans(),
        link=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
        offset=st.one_of(
            st.just(0.0),
            st.floats(min_value=-1e-7, max_value=0.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_idle_advance_leaves_the_clocks_where_the_step_loop_does(
        self, program, cpus, capped, link, offset
    ):
        network = idle_network(program, cpus, capped, link, 0.0)
        reference = network.copy()
        now = network.time + offset
        assert network.advance_to(now) == []
        assert step_loop_advance(reference, now) == []
        assert network.time == reference.time
        assert queue_clocks(network) == queue_clocks(reference)
        assert network.version == reference.version
        # and the next task runs the same from either state
        stages = [FluidStage("net_in", 1.5), FluidStage("cpu", 2.5), FluidStage("net_out", 0.5)]
        for net in (network, reference):
            net.add_task("next", net.time, stages, now=net.time)
            net.run_to_completion()
        assert trajectory(network) == trajectory(reference)

    def test_idle_advance_takes_no_step(self):
        network = FluidNetwork({name: 1.0 for name in RESOURCES})
        network.add_task("a", arrival=0.0, stages=[FluidStage("cpu", 2.0)])
        network.run_to_completion()
        steps = network.n_steps
        assert network.advance_to(10.0) == []
        assert network.time == 10.0
        assert queue_clocks(network) == [10.0, 10.0, 10.0]
        assert network.n_steps == steps

    def test_idle_means_nothing_unfinished(self):
        network = FluidNetwork({"cpu": 1.0})
        assert network.is_idle()
        network.add_task("later", arrival=5.0, stages=[FluidStage("cpu", 1.0)])
        assert not network.is_idle()  # a pending arrival
        network.advance_to(5.5)
        assert not network.is_idle()  # in service
        network.advance_to(6.0)
        assert network.is_idle()
        network.add_task("removed", arrival=9.0, stages=[FluidStage("cpu", 1.0)])
        network.remove_task("removed", now=7.0)
        assert network.is_idle()  # its arrival-heap entry is stale
        assert network.advance_to(20.0) == []
        network.add_task("zero", arrival=20.0, stages=[FluidStage("cpu", 0.0)], now=20.0)
        assert network.is_idle()  # zero work finishes on arrival

    def test_idle_completion_rejects_busy_networks_and_bad_stages(self):
        network = FluidNetwork({"cpu": 2.0, "net": 0.0}, per_job_caps={"cpu": 1.0})
        assert network.idle_completion(3.0, [FluidStage("cpu", 4.0)]) == 7.0
        assert network.idle_completion(3.0, [FluidStage("net", 1.0)]) == math.inf
        with pytest.raises(ValueError):
            network.idle_completion(3.0, [])
        with pytest.raises(KeyError):
            network.idle_completion(3.0, [FluidStage("disk", 1.0)])
        network.add_task("a", arrival=0.0, stages=[FluidStage("cpu", 1.0)])
        with pytest.raises(SimulationError):
            network.idle_completion(3.0, [FluidStage("cpu", 1.0)])


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
