"""Tests of the Historical Trace Manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.htm import HistoricalTraceManager
from repro.errors import SchedulingError
from repro.workload.problems import PAPER_CATALOGUE, matmul_problem
from repro.workload.tasks import Task


def make_htm(servers=("artimon", "pulney"), **kwargs) -> HistoricalTraceManager:
    htm = HistoricalTraceManager(**kwargs)
    for server in servers:
        htm.register_server(server, lambda problem, s=server: problem.costs_on(s))
    return htm


def task_of(size: int, task_id: str, arrival: float = 0.0) -> Task:
    return Task(task_id=task_id, problem=matmul_problem(size), arrival=arrival)


class TestRegistration:
    def test_register_and_list_servers(self):
        htm = make_htm()
        assert set(htm.servers()) == {"artimon", "pulney"}
        assert htm.has_server("artimon")
        assert not htm.has_server("valette")

    def test_duplicate_registration_rejected(self):
        htm = make_htm()
        with pytest.raises(SchedulingError):
            htm.register_server("artimon", lambda p: p.costs_on("artimon"))

    def test_unknown_server_access_rejected(self):
        htm = make_htm()
        with pytest.raises(SchedulingError):
            htm.trace("valette")

    def test_unregister_forgets_placements(self):
        htm = make_htm()
        task = task_of(1200, "t1")
        htm.commit("artimon", task, now=0.0)
        htm.unregister_server("artimon")
        assert htm.placement_of("t1") is None


class TestPredictions:
    def test_empty_server_prediction_is_the_unloaded_duration(self):
        htm = make_htm()
        task = task_of(1200, "t1")
        prediction = htm.predict("artimon", task, now=100.0)
        # artimon matmul-1200: 3 + 18 + 1 = 22 seconds, starting at t=100.
        assert prediction.new_task_completion == pytest.approx(122.0)
        assert prediction.sum_perturbation == 0.0
        assert prediction.n_perturbed == 0
        assert prediction.predicted_flow == pytest.approx(22.0)

    def test_prediction_does_not_modify_the_trace(self):
        htm = make_htm()
        task = task_of(1200, "t1")
        htm.predict("artimon", task, now=0.0)
        assert htm.tracked_task_count("artimon") == 0

    def test_perturbation_of_compute_sharing(self):
        """Two compute-heavy tasks on the same CPU delay each other measurably."""
        htm = make_htm()
        first = task_of(1800, "first")   # artimon: 8 + 53 + 2 = 63s
        htm.commit("artimon", first, now=0.0)
        second = task_of(1800, "second")
        prediction = htm.predict("artimon", second, now=0.0)
        assert prediction.perturbations["first"] > 0
        assert prediction.n_perturbed == 1
        # The second task cannot finish before twice the compute time.
        assert prediction.new_task_completion > 63.0
        assert prediction.sum_flow_increase == pytest.approx(
            prediction.sum_perturbation + prediction.predicted_flow
        )

    def test_perturbation_zero_on_another_server(self):
        htm = make_htm()
        htm.commit("artimon", task_of(1800, "first"), now=0.0)
        prediction = htm.predict("pulney", task_of(1800, "second"), now=0.0)
        assert prediction.sum_perturbation == 0.0

    def test_fig1_style_remaining_time_decision(self):
        """The HTM prefers the server whose running task finishes first."""
        htm = make_htm(servers=("s1", "s2"))
        # Give both servers an identical catalogue cost via a custom provider:
        # use matmul-1200 on artimon costs for both (22s) and matmul-1800 (63s).
        short = task_of(1200, "short")
        long = task_of(1800, "long")
        htm = HistoricalTraceManager()
        for server in ("s1", "s2"):
            htm.register_server(server, lambda p: p.costs_on("artimon"))
        htm.commit("s1", short, now=0.0)
        htm.commit("s2", long, now=0.0)
        new = task_of(1500, "new")
        p1 = htm.predict("s1", new, now=10.0)
        p2 = htm.predict("s2", new, now=10.0)
        assert p1.new_task_completion < p2.new_task_completion

    def test_predict_all_covers_every_candidate(self):
        htm = make_htm()
        predictions = htm.predict_all(["artimon", "pulney"], task_of(1200, "t"), now=0.0)
        assert set(predictions) == {"artimon", "pulney"}


class TestWhatIfCounters:
    def test_prediction_counts_the_work_of_its_what_if_copies(self):
        htm = make_htm()
        trace = htm.trace("artimon")
        htm.predict("artimon", task_of(1200, "t1"), now=0.0)
        # the empty baseline has no event; the copy with the new task
        # completes its three stages
        assert trace.whatif_stage_events == 3
        assert trace.whatif_steps >= 3
        steps = trace.whatif_steps
        htm.predict("artimon", task_of(1200, "t2"), now=0.0)  # baseline cached
        assert trace.whatif_stage_events == 6
        assert trace.whatif_steps == 2 * steps

    def test_legacy_core_trace_counts_the_same_stage_events(self):
        """The trace API is duck-typed: the large-N benchmarks back a trace
        with the legacy core, whose counters must feed the same accounting."""
        from repro.simulation import fluid_legacy

        counts = []
        for legacy in (False, True):
            htm = make_htm()
            trace = htm.trace("artimon")
            if legacy:
                trace.network = fluid_legacy.FluidNetwork(
                    {"net_in": 1.0, "cpu": 1.0, "net_out": 1.0}, per_job_caps={"cpu": 1.0}
                )
            htm.commit("artimon", task_of(1800, "first"), now=0.0)
            htm.predict("artimon", task_of(1200, "second"), now=1.0)
            counts.append(trace.whatif_stage_events)
        assert counts[0] == counts[1] == 9

    def test_what_if_leaves_the_live_network_alone(self):
        htm = make_htm()
        htm.commit("artimon", task_of(1800, "first"), now=0.0)
        trace = htm.trace("artimon")
        live = trace.network
        before = (live.time, live.version, live.counters())
        completions = trace.what_if()
        assert set(completions) == {"first"}
        assert (live.time, live.version, live.counters()) == before
        assert trace.whatif_stage_events == 3
        assert not live.task("first").finished


class TestCommitAndSync:
    def test_commit_tracks_placement_and_local_number(self):
        htm = make_htm()
        record1 = htm.commit("artimon", task_of(1200, "t1"), now=0.0)
        record2 = htm.commit("artimon", task_of(1500, "t2"), now=5.0)
        assert htm.placement_of("t1") == "artimon"
        assert record1.local_number == 1
        assert record2.local_number == 2
        assert htm.tracked_task_count("artimon") == 2

    def test_double_commit_rejected(self):
        htm = make_htm()
        task = task_of(1200, "t1")
        htm.commit("artimon", task, now=0.0)
        with pytest.raises(SchedulingError):
            htm.commit("pulney", task, now=0.0)

    def test_completion_notification_removes_the_task(self):
        htm = make_htm()
        htm.commit("artimon", task_of(1200, "t1"), now=0.0)
        htm.notify_completion("t1", at=30.0)
        assert htm.placement_of("t1") is None
        assert htm.tracked_task_count("artimon") == 0

    def test_early_completion_reanchors_the_trace(self):
        htm = make_htm()
        htm.commit("artimon", task_of(1800, "slow"), now=0.0)
        htm.commit("artimon", task_of(1200, "other"), now=0.0)
        # The platform says "slow" finished far earlier than simulated.
        htm.notify_completion("slow", at=5.0)
        predictions = htm.predicted_completions("artimon")
        assert "slow" not in predictions
        # "other" now finishes earlier than it would have with "slow" around.
        assert predictions["other"] < 22.0 + 63.0

    def test_resync_disabled_keeps_the_simulated_trace(self):
        htm = make_htm(resync_on_completion=False)
        htm.commit("artimon", task_of(1800, "slow"), now=0.0)
        htm.notify_completion("slow", at=5.0)
        # The placement is forgotten but the simulated load remains.
        assert htm.placement_of("slow") is None
        assert htm.tracked_task_count("artimon") == 1

    def test_failure_notification_removes_running_task(self):
        htm = make_htm()
        htm.commit("artimon", task_of(1800, "t1"), now=0.0)
        htm.notify_failure("t1", at=10.0)
        assert htm.tracked_task_count("artimon") == 0

    def test_clear_server_drops_everything(self):
        htm = make_htm()
        for i in range(3):
            htm.commit("pulney", task_of(1200, f"t{i}"), now=float(i))
        htm.clear_server("pulney", at=10.0)
        assert htm.tracked_task_count("pulney") == 0
        assert htm.placement_of("t0") is None

    def test_unknown_completion_is_ignored(self):
        htm = make_htm()
        htm.notify_completion("ghost", at=1.0)  # must not raise

    def test_model_communication_off_uses_compute_only(self):
        htm_full = make_htm()
        htm_compute = make_htm(model_communication=False)
        task = task_of(1800, "t1")
        full = htm_full.predict("artimon", task, now=0.0)
        compute_only = htm_compute.predict("artimon", task, now=0.0)
        assert full.new_task_completion == pytest.approx(63.0)
        assert compute_only.new_task_completion == pytest.approx(53.0)

    def test_gantt_chart_of_a_trace(self):
        htm = make_htm()
        htm.commit("artimon", task_of(1200, "t1"), now=0.0)
        htm.commit("artimon", task_of(1500, "t2"), now=5.0)
        chart = htm.gantt("artimon")
        assert len(chart) == 2
        assert chart.row("t1").end is not None
        text = chart.render()
        assert "t1" in text and "t2" in text


class TestPerturbationProperties:
    @given(
        sizes=st.lists(st.sampled_from([1200, 1500, 1800]), min_size=1, max_size=8),
        new_size=st.sampled_from([1200, 1500, 1800]),
    )
    @settings(max_examples=30, deadline=None)
    def test_predictions_are_consistent_with_commitment(self, sizes, new_size):
        """The completion predicted for the new task equals the completion the
        trace simulates once the task is actually committed."""
        htm = make_htm()
        for i, size in enumerate(sizes):
            htm.commit("artimon", task_of(size, f"t{i}"), now=float(i))
        now = float(len(sizes))
        new_task = task_of(new_size, "new")
        prediction = htm.predict("artimon", new_task, now=now)
        htm.commit("artimon", new_task, now=now)
        simulated = htm.trace("artimon").network.copy().run_to_completion()
        assert simulated["new"] == pytest.approx(prediction.new_task_completion, rel=1e-9)
        for task_id, completion in prediction.completions_with.items():
            assert simulated[task_id] == pytest.approx(completion, rel=1e-9)

    @given(sizes=st.lists(st.sampled_from([1200, 1500, 1800]), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_sum_perturbation_is_finite_and_not_strongly_negative(self, sizes):
        htm = make_htm()
        for i, size in enumerate(sizes):
            htm.commit("pulney", task_of(size, f"t{i}"), now=0.0)
        prediction = htm.predict("pulney", task_of(1500, "new"), now=1.0)
        assert prediction.sum_perturbation >= -1e-6
        assert prediction.new_task_completion >= 1.0
