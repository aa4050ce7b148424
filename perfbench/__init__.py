"""End-to-end and per-layer benchmark of the repro decompressor.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/run.py`` describes
the output and ``perfbench/spec.json`` the workloads and metrics.
"""
