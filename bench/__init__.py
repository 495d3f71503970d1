"""The benchmark: five workloads, end-to-end metrics and a per-layer trace.

See README.md; the entry point is ``python -m bench.run``.
"""
