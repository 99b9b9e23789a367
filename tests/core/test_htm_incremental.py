"""Equivalence of the HTM's incremental prediction mode with the legacy path.

The incremental mode caches the free-run "without the new task" baseline of
each server trace instead of deep-copying and re-simulating the network per
candidate server.  These tests drive two HTMs — one per mode — through the
same randomized sequences of commits, predictions, completions and clock
advances, and assert that every :class:`HtmPrediction` matches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.htm import HistoricalTraceManager
from repro.workload.problems import matmul_problem
from repro.workload.tasks import Task

SERVERS = ("artimon", "pulney", "cabestan")


def make_pair(**kwargs):
    """Two HTMs over the same servers: legacy and incremental."""
    pair = (
        HistoricalTraceManager(incremental_predictions=False, **kwargs),
        HistoricalTraceManager(incremental_predictions=True, **kwargs),
    )
    for htm in pair:
        for server in SERVERS:
            htm.register_server(server, lambda problem, s=server: problem.costs_on(s))
    return pair


def random_task(rng: np.random.Generator, task_id: str, arrival: float) -> Task:
    problem = matmul_problem(int(rng.choice([1200, 1500, 1800])))
    return Task(task_id=task_id, problem=problem, arrival=arrival)


def assert_predictions_match(legacy, incremental):
    assert incremental.server == legacy.server
    if not legacy.completions_without:
        # An idle trace: the incremental arm dates the task in closed form,
        # with the very float operations of the legacy arm's what-if run.
        assert incremental.new_task_completion == legacy.new_task_completion
        assert incremental.completions_with == legacy.completions_with == {}
        assert incremental.perturbations == legacy.perturbations == {}
    assert incremental.new_task_completion == pytest.approx(
        legacy.new_task_completion, rel=1e-9, abs=1e-6
    )
    assert set(incremental.completions_without) == set(legacy.completions_without)
    assert set(incremental.completions_with) == set(legacy.completions_with)
    for task_id, value in legacy.completions_without.items():
        assert incremental.completions_without[task_id] == pytest.approx(
            value, rel=1e-9, abs=1e-6
        )
    for task_id, value in legacy.perturbations.items():
        assert incremental.perturbations[task_id] == pytest.approx(value, abs=1e-6)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("sweep_seed", [0, 1, 2, 3, 4])
    def test_randomized_mapped_task_scenario_sweep(self, sweep_seed):
        """Random program of commits / predict_all / completions over 3 servers."""
        rng = np.random.default_rng(sweep_seed)
        legacy, incremental = make_pair()
        now = 0.0
        committed = []  # (task_id, server)
        counter = 0

        for _ in range(40):
            now += float(rng.exponential(10.0))
            action = rng.random()
            if action < 0.55 or not committed:
                # Predict on every candidate server, then commit on a random one.
                counter += 1
                task = random_task(rng, f"t{counter:03d}", now)
                predictions_legacy = legacy.predict_all(SERVERS, task, now)
                predictions_incremental = incremental.predict_all(SERVERS, task, now)
                for server in SERVERS:
                    assert_predictions_match(
                        predictions_legacy[server], predictions_incremental[server]
                    )
                server = SERVERS[int(rng.integers(len(SERVERS)))]
                legacy.commit(server, task, now)
                incremental.commit(server, task, now)
                committed.append(task.task_id)
            elif action < 0.8:
                # The platform reports a completion (possibly early).
                task_id = committed.pop(int(rng.integers(len(committed))))
                legacy.notify_completion(task_id, now)
                incremental.notify_completion(task_id, now)
            else:
                # Pure clock advance: must keep the cache valid, not wrong.
                legacy.advance_to(now)
                incremental.advance_to(now)

        # Both kinds of trace were met: idle ones answered in closed form,
        # busy ones by simulation.
        assert 0 < incremental.n_idle_predicts < incremental.n_predicts
        assert legacy.n_idle_predicts == 0

        # The traces themselves agree at the end of the program.
        for server in SERVERS:
            a = legacy.predicted_completions(server)
            b = incremental.predicted_completions(server)
            assert set(a) == set(b)
            for task_id, value in a.items():
                assert b[task_id] == pytest.approx(value, rel=1e-9, abs=1e-6)

    def test_repeated_predictions_at_the_same_date_hit_the_cache(self):
        legacy, incremental = make_pair()
        for i in range(10):
            task = Task(f"t{i}", matmul_problem(1500), arrival=0.0)
            legacy.commit("artimon", task, float(i))
            incremental.commit("artimon", task, float(i))
        trace = incremental.trace("artimon")
        new_task = Task("new", matmul_problem(1800), arrival=20.0)

        incremental.predict("artimon", new_task, now=20.0)
        cached = trace._cached_completions
        assert cached is not None
        incremental.predict("artimon", new_task, now=20.0)
        assert trace._cached_completions is cached  # second call reused the baseline

        assert_predictions_match(
            legacy.predict("artimon", new_task, now=20.0),
            incremental.predict("artimon", new_task, now=20.0),
        )

    def test_commit_invalidates_the_cached_baseline(self):
        _, incremental = make_pair()
        first = Task("t0", matmul_problem(1200), arrival=0.0)
        incremental.commit("artimon", first, 0.0)
        probe = Task("probe", matmul_problem(1500), arrival=1.0)
        before = incremental.predict("artimon", probe, now=1.0)
        assert "t0" in before.completions_without

        second = Task("t1", matmul_problem(1800), arrival=2.0)
        incremental.commit("artimon", second, 2.0)
        after = incremental.predict("artimon", probe, now=2.0)
        # The baseline now accounts for the newly committed task: t0 is
        # delayed by the shared cpu, which a stale cache would have missed.
        assert after.completions_without["t0"] > before.completions_without["t0"] + 1.0
        assert "t1" in after.completions_without

    def test_completion_notification_invalidates_the_cached_baseline(self):
        _, incremental = make_pair()
        a = Task("a", matmul_problem(1500), arrival=0.0)
        b = Task("b", matmul_problem(1500), arrival=0.0)
        incremental.commit("artimon", a, 0.0)
        incremental.commit("artimon", b, 0.0)
        probe = Task("probe", matmul_problem(1200), arrival=1.0)
        before = incremental.predict("artimon", probe, now=1.0)

        # "a" finishes much earlier than simulated: the trace re-anchors.
        incremental.notify_completion("a", at=2.0)
        after = incremental.predict("artimon", probe, now=2.0)
        assert "a" not in after.completions_without
        assert after.completions_without["b"] < before.completions_without["b"]

    def test_equivalence_with_communication_model_disabled(self):
        legacy, incremental = make_pair(model_communication=False)
        rng = np.random.default_rng(7)
        now = 0.0
        for i in range(8):
            now += float(rng.exponential(5.0))
            task = random_task(rng, f"t{i}", now)
            assert_predictions_match(
                legacy.predict("pulney", task, now),
                incremental.predict("pulney", task, now),
            )
            legacy.commit("pulney", task, now)
            incremental.commit("pulney", task, now)

    def test_middleware_config_knob_reaches_the_htm(self):
        from repro.platform.middleware import GridMiddleware, MiddlewareConfig
        from repro.workload.testbed import first_set_platform

        on = GridMiddleware(first_set_platform(), "msf", config=MiddlewareConfig(seed=1))
        off = GridMiddleware(
            first_set_platform(), "msf", config=MiddlewareConfig(seed=1, htm_incremental=False)
        )
        assert on.agent.htm.incremental_predictions is True
        assert off.agent.htm.incremental_predictions is False
