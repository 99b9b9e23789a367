"""Golden digests of the event trace and the metric series.

The ``--jobs`` identity tests compare two runs of the same code, so they
cannot see a change of same-instant event order between two versions of
the simulator.  These digests can: they pin the exact bytes that
``repro profile trace`` and ``repro metrics record --interval 30`` write
for two scenarios whose faults, retries and bursts put many events at the
same virtual instant.  A change that moves any of them is a behaviour
change and must say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.obs.profile import metrics_scenario, trace_scenario

_TASKS = 150
_SEED = 2003

_GOLDEN = {
    "flaky-servers": (
        "630ff4c164342a8836bcfeaa6d3ebfea5274067021abe111501832f5ebedba7f",
        "9c378aba5a8997a824997829b0f7958f430dba4e58a7302ee739c65edc0a7658",
    ),
    "burst-storm": (
        "da786940c63f7189e5fcc87aea0916eef7a611d43ff3b9da05942ca8bf98083c",
        "1656e222906e3f126f1bfb4f5e5c84c9be2f747d7e29638f6d08faf942a6ab57",
    ),
}


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(_GOLDEN))
def test_trace_and_metrics_match_golden_digests(tmp_path, scenario):
    trace_digest, metrics_digest = _GOLDEN[scenario]
    trace_out = tmp_path / "trace.jsonl"
    metrics_out = tmp_path / "metrics.jsonl"
    trace_scenario(scenario, out=str(trace_out), tasks=_TASKS, seed=_SEED)
    metrics_scenario(
        scenario, out=str(metrics_out), tasks=_TASKS, seed=_SEED, interval=30.0
    )
    assert _sha256(trace_out) == trace_digest
    assert _sha256(metrics_out) == metrics_digest
