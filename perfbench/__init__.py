"""Benchmark of the geomstates pipeline; see README.md."""
