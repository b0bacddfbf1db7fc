"""bench — the repo benchmark: seven seeded workloads, end to end and per layer.

Run ``python3 bench/run.py`` (see ``bench/README.md``). The paper
experiments E1–E11 stay in ``benchmarks/``; this package is what later
performance and simplicity changes are judged by (``BENCHMARK.json``).
"""
