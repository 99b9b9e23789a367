"""The platform's periodic loops and stop rule on the callback calendar.

Clients, monitors, speed noise and the run's stop entry are all calendar
callbacks; these tests pin where each one lands among same-instant entries
and when it stops rescheduling itself.
"""

from __future__ import annotations

import math

import numpy as np

from repro.platform.client import Client
from repro.platform.faults import SpeedNoiseModel
from repro.platform.middleware import GridMiddleware, MiddlewareConfig
from repro.platform.monitors import LoadMonitor
from repro.platform.server import ComputeServer
from repro.platform.spec import PAPER_MACHINES
from repro.simulation import Environment
from repro.workload.problems import PAPER_CATALOGUE, matmul_problem
from repro.workload.tasks import Task


class _CountingEnvironment(Environment):
    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


def _server(env, noise=None, rng=None):
    return ComputeServer(
        env, PAPER_MACHINES["artimon"], ["matmul-1200"], PAPER_CATALOGUE,
        noise_model=noise, rng=rng,
    )


class TestClientLoop:
    def test_arrival_zero_task_is_submitted_before_normal_time_zero_entries(self, env):
        order = []
        env.schedule(0.0, lambda: order.append("normal"))
        Client(env, "c", [Task("a", matmul_problem(1200), arrival=0.0)],
               submit=lambda t: order.append(t.task_id))
        env.run()
        assert order == ["a", "normal"]

    def test_a_due_task_is_submitted_on_its_arrival_entry_without_a_second_wait(self):
        first, second = 1.1, 7.7
        entry_time = first + (second - first)
        assert entry_time < second  # the rounding residue this test is about
        env = _CountingEnvironment()
        submitted = []
        tasks = [Task(i, matmul_problem(1200), arrival=a) for i, a in (("a", first), ("b", second))]
        Client(env, "c", tasks, submit=lambda t: submitted.append((t.task_id, env.now)))
        env.run()
        assert submitted == [("a", first), ("b", entry_time)]
        assert env.steps == 3  # the start entry plus one wait per arrival date

    def test_simultaneous_arrivals_share_one_entry(self):
        env = _CountingEnvironment()
        tasks = [Task(i, matmul_problem(1200), arrival=4.0) for i in "abc"]
        client = Client(env, "c", tasks, submit=lambda t: None)
        env.run()
        assert client.submitted == 3
        assert env.steps == 2

    def test_client_stops_rescheduling_after_its_last_task(self, env):
        tasks = [Task(i, matmul_problem(1200), arrival=a) for i, a in (("a", 1.0), ("b", 3.0))]
        client = Client(env, "c", tasks, submit=lambda t: None)
        env.run(until=3.0)
        assert client.submitted == 2
        assert env.peek() == math.inf

    def test_client_without_tasks_only_runs_its_start_entry(self):
        env = _CountingEnvironment()
        client = Client(env, "c", [], submit=lambda t: None)
        env.run()
        assert client.submitted == 0 and env.steps == 1


class TestMonitorLoop:
    def test_first_report_precedes_normal_time_zero_entries(self, env):
        server = _server(env)
        order = []
        env.schedule(0.0, lambda: order.append("normal"))
        LoadMonitor(env, server, deliver=lambda r: order.append("report"),
                    period=10.0, delay=0.0)
        env.run(until=0.0)
        assert order == ["report", "normal"]

    def test_zero_delay_reports_add_no_delivery_entry(self, env):
        server = _server(env)
        received = []
        LoadMonitor(env, server, deliver=received.append, period=10.0, delay=0.0)
        env.run(until=0.0)
        assert [r.received_at for r in received] == [0.0]
        assert env.peek() == 10.0  # only the next tick is pending

    def test_jittered_period_never_falls_below_a_tenth_of_a_second(self, env):
        server = _server(env)
        emitted = []
        LoadMonitor(
            env, server, deliver=lambda r: emitted.append(r.emitted_at),
            period=1.0, delay=0.0, jitter=5.0, rng=np.random.default_rng(3),
        )
        env.run(until=50.0)
        gaps = [b - a for a, b in zip(emitted, emitted[1:])]
        assert len(gaps) > 10
        assert min(gaps) >= 0.1 - 1e-12


class _RecordingRng:
    """Stands in for the noise generator and notes when it is drawn from."""

    def __init__(self, env):
        self.env = env
        self.draws = []

    def lognormal(self, mean, sigma):
        self.draws.append(self.env.now)
        return 1.0


class TestNoiseLoop:
    def test_noise_is_redrawn_every_period_starting_one_period_in(self, env):
        rng = _RecordingRng(env)
        _server(env, noise=SpeedNoiseModel(relative_sigma=0.1, period_s=5.0), rng=rng)
        env.run(until=21.0)
        assert rng.draws == [5.0, 10.0, 15.0, 20.0]

    def test_disabled_noise_schedules_nothing(self, env):
        _server(env, noise=SpeedNoiseModel(relative_sigma=0.0, period_s=5.0))
        assert env.peek() == math.inf


class TestStopRule:
    def _config(self, **overrides):
        kwargs = dict(memory_enabled=False, noise_model=None, monitor_jitter_s=0.0, seed=7)
        kwargs.update(overrides)
        return MiddlewareConfig(**kwargs)

    def test_run_stops_at_the_last_completion(self, first_platform):
        tasks = [
            Task(f"t-{i:06d}", matmul_problem(1200), arrival=10.0 * i, client="zanzibar")
            for i in range(3)
        ]
        middleware = GridMiddleware(first_platform, "mct", config=self._config())
        result = middleware.run(tasks)
        assert not result.truncated
        assert result.duration == max(task.completion_time for task in result.tasks)
        # Stopped, not drained: the monitors' next reports are still pending.
        assert middleware.env.peek() < math.inf

    def test_zero_task_run_stops_at_the_horizon(self, first_platform):
        middleware = GridMiddleware(
            first_platform, "mct", config=self._config(max_horizon_s=75.0)
        )
        result = middleware.run([])
        assert not result.truncated
        assert result.duration == 75.0
