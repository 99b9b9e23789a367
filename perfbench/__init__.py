"""The repository benchmark: simulated tasks per second on fixed workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload htm-wide --seed 2003 --seconds 16 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
traced run attributes time to each layer.
"""
