"""Golden regression snapshots of the reproduced Table 5 / Table 6 columns.

These pin the *exact numbers* produced by the seed's simulation pipeline at a
small fixed scale (40 tasks, seed 2003) so that future refactors of the
simulator, the HTM or the campaign engine cannot silently shift the
reproduced tables.  The shape criteria (who wins, by what factor) live in
``tests/paper/``; this file is about bit-level reproducibility.

If a change *intentionally* alters the simulation (a model fix, a different
integration order), regenerate the snapshots with::

    PYTHONPATH=src python - <<'EOF'
    from repro.experiments import ExperimentConfig, ExperimentScale, run_experiment
    scale = ExperimentScale(name="golden", task_count=40, metatask_count=1, repetitions=1)
    config = ExperimentConfig(scale=scale, seed=2003)
    for exp in ("table5", "table6"):
        print(exp, run_experiment(exp, config).columns)
    EOF

and say so in the commit message.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, ExperimentScale, run_experiment

GOLDEN_SCALE = ExperimentScale(name="golden", task_count=40, metatask_count=1, repetitions=1)
GOLDEN_SEED = 2003

#: Columns of the golden small-scale Table 5 run (low arrival rate).
TABLE5_GOLDEN = {
    "mct": {
        "completed tasks": 40.0,
        "makespan": 828.0560994890744,
        "sumflow": 2397.6173862310516,
        "maxflow": 157.9592802736007,
        "maxstretch": 3.9975983047570796,
    },
    "hmct": {
        "completed tasks": 40.0,
        "makespan": 784.2976900978059,
        "sumflow": 1938.8698440685084,
        "maxflow": 100.29779286889892,
        "maxstretch": 2.9315937480724292,
        "tasks finishing sooner than MCT": 22.0,
    },
    "mp": {
        "completed tasks": 40.0,
        "makespan": 893.6479592723184,
        "sumflow": 2842.0321976396244,
        "maxflow": 509.9873963506963,
        "maxstretch": 2.0164163248417295,
        "tasks finishing sooner than MCT": 24.0,
    },
    "msf": {
        "completed tasks": 40.0,
        "makespan": 786.3339776695071,
        "sumflow": 1907.9317310770903,
        "maxflow": 89.69207027247111,
        "maxstretch": 2.2780101234496875,
        "tasks finishing sooner than MCT": 26.0,
    },
}

#: Columns of the golden small-scale Table 6 run (high arrival rate).
TABLE6_GOLDEN = {
    "mct": {
        "completed tasks": 40.0,
        "makespan": 639.441618291458,
        "sumflow": 3227.936204654995,
        "maxflow": 174.7855054745803,
        "maxstretch": 3.86429515735386,
    },
    "hmct": {
        "completed tasks": 40.0,
        "makespan": 633.3641180465306,
        "sumflow": 2828.788683969317,
        "maxflow": 161.05137039079227,
        "maxstretch": 3.4645708950796146,
        "tasks finishing sooner than MCT": 28.0,
    },
    "mp": {
        "completed tasks": 40.0,
        "makespan": 779.1972385394475,
        "sumflow": 2939.7406603005957,
        "maxflow": 519.5763026216357,
        "maxstretch": 2.559970846268657,
        "tasks finishing sooner than MCT": 31.0,
    },
    "msf": {
        "completed tasks": 40.0,
        "makespan": 624.5119593361525,
        "sumflow": 2338.196375832128,
        "maxflow": 105.31951539746332,
        "maxstretch": 2.7020570764683947,
        "tasks finishing sooner than MCT": 32.0,
    },
}


def golden_config(jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED, jobs=jobs)


def assert_matches_golden(table, golden):
    assert set(table.columns) == set(golden)
    for heuristic, expected_column in golden.items():
        column = table.columns[heuristic]
        assert set(column) == set(expected_column), heuristic
        for row, expected in expected_column.items():
            assert column[row] == pytest.approx(expected, rel=1e-9), (heuristic, row)


class TestGoldenTables:
    @pytest.fixture(scope="class")
    def table5(self):
        return run_experiment("table5", golden_config())

    @pytest.fixture(scope="class")
    def table6(self):
        return run_experiment("table6", golden_config())

    def test_table5_columns_match_the_snapshot(self, table5):
        assert_matches_golden(table5, TABLE5_GOLDEN)

    def test_table6_columns_match_the_snapshot(self, table6):
        assert_matches_golden(table6, TABLE6_GOLDEN)

    def test_table5_snapshot_holds_under_parallel_execution(self):
        """The campaign engine cannot shift golden numbers, whatever ``jobs``."""
        table = run_experiment("table5", golden_config(), jobs=4)
        assert_matches_golden(table, TABLE5_GOLDEN)

    def test_goldens_are_pure_views_over_run_records(self, table5, table6):
        """Acceptance criterion of the unified results API: the golden
        columns reproduce unchanged when re-pivoted from the run records."""
        for table, golden in ((table5, TABLE5_GOLDEN), (table6, TABLE6_GOLDEN)):
            assert table.result_set is not None
            assert_matches_golden(table.result_set.pivot(), golden)

    def test_goldens_survive_a_jsonl_round_trip(self, table5, table6, tmp_path):
        """Acceptance criterion: a saved-then-loaded ResultSet renders the
        byte-identical golden table."""
        from repro.results import ResultSet

        for name, table, golden in (
            ("table5", table5, TABLE5_GOLDEN),
            ("table6", table6, TABLE6_GOLDEN),
        ):
            path = tmp_path / f"{name}.jsonl"
            table.result_set.save(path)
            loaded = ResultSet.load(path)
            assert_matches_golden(loaded.pivot(), golden)
            assert loaded.pivot().render() == table.render()

    def test_goldens_preserve_the_papers_ordering_claims(self, table5, table6):
        """Cross-check: the snapshots themselves exhibit the paper's shape
        (HTM heuristics beat MCT on sum-flow; MSF has the lowest max-flow)."""
        for table in (table5, table6):
            mct_sumflow = table.value("mct", "sumflow")
            assert table.value("hmct", "sumflow") < mct_sumflow
            assert table.value("msf", "sumflow") < mct_sumflow
            assert table.value("msf", "maxflow") == min(
                table.value(h, "maxflow") for h in table.columns
            )
