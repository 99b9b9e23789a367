"""Shared configuration of the benchmark harness.

Every table and figure of the paper's evaluation has a benchmark here that
regenerates it (see "Reproducing the paper's artefacts" in README.md).
Each benchmark:

* runs the experiment once through ``benchmark.pedantic`` (the experiments are
  deterministic given the seed, so repeated rounds would only measure the
  simulator's wall-clock time, which the micro-benchmarks already cover);
* attaches the reproduced table to ``benchmark.extra_info`` so the values end
  up in the pytest-benchmark report;
* asserts the paper's *shape* criteria (who wins, by roughly what factor).

Set the environment variable ``REPRO_BENCH_SCALE`` to ``bench`` or ``smoke``
to run the table benchmarks at a reduced size (the shape assertions are
calibrated for the default ``full`` scale of 500-task metatasks).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import BENCH_SCALE, ExperimentConfig, FULL_SCALE, SMOKE_SCALE

_SCALES = {"full": FULL_SCALE, "bench": BENCH_SCALE, "smoke": SMOKE_SCALE}


def bench_scale_name() -> str:
    """Scale selected through the REPRO_BENCH_SCALE environment variable."""
    return os.environ.get("REPRO_BENCH_SCALE", "full").lower()


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """Experiment configuration used by every table benchmark."""
    scale = _SCALES.get(bench_scale_name(), FULL_SCALE)
    return ExperimentConfig(scale=scale, seed=2003)


@pytest.fixture(scope="session")
def full_scale() -> bool:
    """Whether the benchmarks run at the paper's 500-task scale."""
    return bench_scale_name() == "full"


def attach_table(benchmark, table) -> None:
    """Record the reproduced table in the benchmark's extra info."""
    benchmark.extra_info["experiment"] = table.experiment_id
    benchmark.extra_info["columns"] = {
        name: {row: round(float(value), 2) for row, value in column.items()}
        for name, column in table.columns.items()
    }
