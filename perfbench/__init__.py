"""The repository's benchmark: workloads, outside-in tracing, metrics.

Entry point: ``python3 perfbench/run.py``; see README.md here.
"""
