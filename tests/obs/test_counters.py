"""Counter registry tests: merging, and a real run's harvested counters."""

from __future__ import annotations

from repro.obs import Tracer, merge_counters, middleware_counters
from repro.platform.middleware import GridMiddleware


class TestMergeCounters:
    def test_key_wise_sum_with_sorted_keys(self):
        merged = merge_counters([{"b": 1, "a": 2}, {"b": 3, "c": 4}])
        assert merged == {"a": 2, "b": 4, "c": 4}
        assert list(merged) == ["a", "b", "c"]

    def test_empty_input(self):
        assert merge_counters([]) == {}


class TestMiddlewareCounters:
    def test_run_harvests_all_counter_families(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        middleware = GridMiddleware(first_platform, "hmct", config=quiet_config)
        result = middleware.run(small_matmul_metatask)
        counters = middleware_counters(middleware)
        assert counters == result.counters  # run() snapshots the same rollup
        assert list(counters) == sorted(counters)
        n = len(small_matmul_metatask)
        assert counters["agent.requests"] == n
        assert counters["agent.mappings"] == n
        assert counters["agent.completion_messages"] == n
        # the ground truth did real fluid work (each task crosses several
        # stage queues, so stage completions exceed the task count)
        assert counters["fluid.completions"] >= n
        assert counters["fluid.heap_pushes"] >= n
        assert counters["htm.commits"] == n
        assert counters["htm.predicts"] > 0
        assert counters["monitor.reports_sent"] > 0
        # prediction-cache split is exhaustive
        assert (
            counters["htm.baseline_cache_hits"] + counters["htm.baseline_cache_misses"]
            > 0
        )

    def test_what_if_work_is_counted(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        middleware = GridMiddleware(first_platform, "hmct", config=quiet_config)
        middleware.run(small_matmul_metatask)
        counters = middleware_counters(middleware)
        htm = middleware.agent.htm
        traces = [htm.trace(server) for server in htm.servers()]
        assert counters["htm.whatif.steps"] == sum(t.whatif_steps for t in traces)
        assert counters["htm.whatif.stage_events"] == sum(
            t.whatif_stage_events for t in traces
        )
        # every prediction's copy completes the three stages of the new task
        assert counters["htm.whatif.stage_events"] >= 3 * counters["htm.predicts"]
        assert counters["htm.whatif.steps"] >= counters["htm.predicts"]
        # the live traces' own work is counted apart from the copies'
        assert counters["htm.fluid.steps"] > 0
        assert counters["fluid.steps"] > 0

    def test_counters_stay_out_of_run_records(self):
        import numpy as np

        from repro.experiments import ExperimentConfig, ExperimentScale, run_campaign
        from repro.workload.testbed import first_set_platform, matmul_metatask

        config = ExperimentConfig(
            scale=ExperimentScale(name="tiny", task_count=10, metatask_count=1),
            seed=42,
        )
        metatask = matmul_metatask(10, 20.0, rng=np.random.default_rng(42), name="m")
        table = run_campaign("t", "t", first_set_platform(), [metatask], config)
        runs = [run for outcome in table.outcomes.values() for run in outcome.runs]
        assert any(run.counters.get("htm.whatif.steps") for run in runs)
        for record in table.result_set:
            assert not any(
                name.startswith(("fluid.", "htm.")) for name in record.metrics
            )

    def test_mct_has_no_htm_counters(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        middleware = GridMiddleware(first_platform, "mct", config=quiet_config)
        middleware.run(small_matmul_metatask)
        counters = middleware_counters(middleware)
        assert not any(key.startswith("htm.") for key in counters)

    def test_counters_are_deterministic(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        runs = [
            GridMiddleware(first_platform, "msf", config=quiet_config).run(
                small_matmul_metatask
            )
            for _ in range(2)
        ]
        assert runs[0].counters == runs[1].counters


class TestMonitorSummary:
    def test_summary_reports_traffic_and_staleness(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        result = GridMiddleware(first_platform, "mct", config=quiet_config).run(
            small_matmul_metatask
        )
        summary = result.monitor_summary
        assert summary["reports_sent"] >= summary["reports_received"] > 0
        assert summary["reports_dropped"] == 0
        n = len(small_matmul_metatask)
        assert (
            summary["dispatches_with_report"] + summary["dispatches_without_report"]
            == n
        )
        assert summary["staleness_max_s"] >= summary["staleness_mean_s"] >= 0.0

    def test_tracing_does_not_change_the_numbers(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        plain = GridMiddleware(first_platform, "hmct", config=quiet_config).run(
            small_matmul_metatask
        )
        traced = GridMiddleware(
            first_platform, "hmct", config=quiet_config, tracer=Tracer()
        ).run(small_matmul_metatask)
        assert [
            (t.task_id, t.server, t.completion_time) for t in plain.tasks
        ] == [(t.task_id, t.server, t.completion_time) for t in traced.tasks]
        assert plain.counters == traced.counters
        assert plain.monitor_summary == traced.monitor_summary
        assert plain.trace_events == ()
        assert len(traced.trace_events) > 0
