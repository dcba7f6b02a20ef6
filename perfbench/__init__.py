"""End-to-end benchmark of the reproduction's user path.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  Self-tests: ``python3 -m pytest perfbench``.
"""
