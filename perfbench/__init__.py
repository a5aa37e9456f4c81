"""The repository benchmark: three workloads, one record schema.

Run it as ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the metrics and workloads.
"""
