"""Unit tests of the discrete-event engine: the clock and its callback calendar."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptySchedule
from repro.simulation import NORMAL, URGENT, Environment


class TestClockAndCalendar:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_can_be_set(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_step_on_empty_calendar_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_returns_infinity_when_empty(self, env):
        assert env.peek() == math.inf

    def test_peek_returns_the_next_entry_time(self, env):
        env.schedule(7.0, lambda: None)
        env.schedule(3.0, lambda: None)
        assert env.peek() == 3.0

    def test_step_moves_the_clock_and_runs_the_callback(self, env):
        seen = []
        env.schedule(10.0, lambda: seen.append(env.now))
        env.step()
        assert env.now == 10.0 and seen == [10.0]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(-1.0, lambda: None)

    def test_delay_counts_from_the_current_time(self, env):
        seen = []
        env.schedule(4.0, lambda: env.schedule(2.5, lambda: seen.append(env.now)))
        env.run()
        assert seen == [6.5]

    def test_self_rescheduling_callback_runs_periodically(self, env):
        seen = []

        def tick():
            seen.append(env.now)
            env.schedule(10.0, tick)

        env.schedule(0.0, tick)
        env.run(until=35.0)
        assert seen == [0.0, 10.0, 20.0, 30.0]

    def test_delay_counts_from_a_nonzero_initial_time(self):
        env = Environment(initial_time=5.0)
        seen = []
        env.schedule(2.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [7.0]

    def test_entry_time_is_now_plus_delay_in_float_arithmetic(self):
        # Callers pass ``t_next - now`` and rely on getting ``now + delay``
        # back exactly as computed, rounding included.
        env = Environment(initial_time=0.1)
        env.schedule(0.2, lambda: None)
        assert env.peek() == 0.1 + 0.2
        assert env.peek() != 0.3

    def test_zero_delay_entry_runs_at_the_current_time(self, env):
        seen = []
        env.schedule(3.0, lambda: env.schedule(0.0, lambda: seen.append(env.now)))
        env.run()
        assert seen == [3.0]

    def test_step_runs_exactly_one_entry(self, env):
        seen = []
        env.schedule(1.0, lambda: seen.append("a"))
        env.schedule(1.0, lambda: seen.append("b"))
        env.step()
        assert seen == ["a"] and env.peek() == 1.0

    def test_repr_shows_the_clock_and_the_pending_entries(self, env):
        env.schedule(1.0, lambda: None)
        env.schedule(2.0, lambda: None)
        assert repr(env) == "<Environment now=0.0 pending=2>"


class TestOrder:
    def test_entries_run_in_time_then_insertion_order(self, env):
        order = []
        for label, delay in (("b", 5.0), ("a", 1.0), ("c", 5.0)):
            env.schedule(delay, lambda lab=label: order.append(lab))
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_runs_before_normal_at_the_same_time(self, env):
        order = []
        env.schedule(1.0, lambda: order.append("normal"))
        env.schedule(1.0, lambda: order.append("urgent"), priority=URGENT)
        env.schedule(1.0, lambda: order.append("normal-2"), priority=NORMAL)
        env.run()
        assert order == ["urgent", "normal", "normal-2"]

    def test_priority_never_beats_an_earlier_time(self, env):
        order = []
        env.schedule(2.0, lambda: order.append("urgent-later"), priority=URGENT)
        env.schedule(1.0, lambda: order.append("normal-earlier"))
        env.run()
        assert order == ["normal-earlier", "urgent-later"]

    def test_same_instant_entry_added_by_a_callback_runs_last(self, env):
        order = []

        def first():
            order.append("a")
            env.schedule(0.0, lambda: order.append("c"))

        env.schedule(1.0, first)
        env.schedule(1.0, lambda: order.append("b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_entry_added_by_a_callback_overtakes_pending_normal_ones(self, env):
        order = []

        def first():
            order.append("a")
            env.schedule(0.0, lambda: order.append("urgent"), priority=URGENT)

        env.schedule(1.0, first)
        env.schedule(1.0, lambda: order.append("b"))
        env.run()
        assert order == ["a", "urgent", "b"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.sampled_from([URGENT, NORMAL])),
            max_size=40,
        )
    )
    def test_order_is_time_then_priority_then_insertion(self, entries):
        env = Environment()
        order = []
        for index, (delay, priority) in enumerate(entries):
            env.schedule(delay, lambda i=index: order.append(i), priority=priority)
        env.run()
        expected = sorted(range(len(entries)), key=lambda i: (entries[i][0], entries[i][1], i))
        assert order == expected


class TestRun:
    def test_run_without_until_drains_the_calendar(self, env):
        env.schedule(3.0, lambda: None)
        env.schedule(8.0, lambda: None)
        env.run()
        assert env.now == 8.0 and env.peek() == math.inf

    def test_run_until_leaves_the_clock_at_that_time(self, env):
        seen = []
        env.schedule(10.0, lambda: seen.append(10.0))
        env.schedule(100.0, lambda: seen.append(100.0))
        env.run(until=30.0)
        assert env.now == 30.0 and seen == [10.0]
        assert env.peek() == 100.0

    def test_run_until_on_an_empty_calendar_moves_the_clock(self, env):
        env.run(until=25.0)
        assert env.now == 25.0

    def test_run_until_runs_entries_due_exactly_then(self, env):
        seen = []
        env.schedule(30.0, lambda: seen.append(env.now))
        env.run(until=30.0)
        assert seen == [30.0] and env.now == 30.0

    def test_run_until_past_time_rejected(self, env):
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_the_current_time_is_allowed(self, env):
        env.run(until=10.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_entries_past_until_run_in_a_later_run(self, env):
        seen = []
        env.schedule(10.0, lambda: seen.append(env.now))
        env.run(until=5.0)
        assert seen == [] and env.now == 5.0
        env.run()
        assert seen == [10.0]

    def test_entries_added_during_a_run_until_respect_the_bound(self, env):
        seen = []

        def spawn():
            env.schedule(2.0, lambda: seen.append(env.now))
            env.schedule(20.0, lambda: seen.append(env.now))

        env.schedule(1.0, spawn)
        env.run(until=10.0)
        assert seen == [3.0] and env.now == 10.0 and env.peek() == 21.0

    def test_stop_ends_run_after_the_current_callback(self, env):
        order = []

        def stopper():
            env.stop()
            order.append("stopper")

        env.schedule(1.0, stopper)
        env.schedule(1.0, lambda: order.append("after"))
        env.run(until=50.0)
        assert order == ["stopper"]
        assert env.now == 1.0  # a stopped run does not move on to ``until``

    def test_a_later_run_resumes_after_stop(self, env):
        order = []
        env.schedule(1.0, env.stop)
        env.schedule(2.0, lambda: order.append("resumed"))
        env.run()
        assert env.now == 1.0 and order == []
        env.run()
        assert env.now == 2.0 and order == ["resumed"]

    def test_stop_outside_a_run_does_not_cancel_the_next_run(self, env):
        seen = []
        env.schedule(1.0, lambda: seen.append("a"))
        env.schedule(2.0, lambda: seen.append("b"))
        env.stop()
        env.run()
        assert seen == ["a", "b"]

    def test_a_resumed_run_until_reaches_its_bound(self, env):
        env.schedule(1.0, env.stop)
        env.schedule(2.0, lambda: None)
        env.run(until=10.0)
        assert env.now == 1.0
        env.run(until=10.0)
        assert env.now == 10.0 and env.peek() == math.inf

    def test_callback_exception_propagates_out_of_run(self, env):
        def boom():
            raise RuntimeError("boom")

        env.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 1.0

    def test_entries_after_a_failing_callback_stay_scheduled(self, env):
        seen = []

        def boom():
            raise RuntimeError("boom")

        env.schedule(1.0, boom)
        env.schedule(2.0, lambda: seen.append(env.now))
        with pytest.raises(RuntimeError):
            env.run()
        env.run()
        assert seen == [2.0]

    def test_run_dispatches_every_entry_through_step(self):
        class CountingEnvironment(Environment):
            steps = 0

            def step(self):
                CountingEnvironment.steps += 1
                super().step()

        env = CountingEnvironment()
        for delay in (1.0, 2.0, 2.0):
            env.schedule(delay, lambda: None)
        env.run()
        assert CountingEnvironment.steps == 3
