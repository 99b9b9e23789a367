"""Table 1 — validation of the shared-CPU model.

Paper reference: "We have shown small variations between the simulated and
real execution dates (a mean of less than 3% with regard to the duration)."
"""

from __future__ import annotations

from repro.experiments.validation import run_table1
from repro.platform.faults import SpeedNoiseModel


def test_table1_model_validation():
    """Real vs HTM-simulated completion dates on a noisy server."""
    result = run_table1(noise=SpeedNoiseModel(relative_sigma=0.02, period_s=20.0), seed=2003)

    # The HTM's model error stays within a few percent, as in the paper
    # (Table 1 reports a mean below 3 %).
    assert result.mean_percent_error < 4.0
    assert result.max_percent_error < 15.0
    assert len(result.rows) == 12  # 3 + 9 tasks, as in Table 1


def test_table1_noiseless_sanity():
    """Without platform noise the HTM matches the ground truth exactly."""
    result = run_table1(noise=None, seed=1)
    assert result.mean_percent_error < 1e-6
