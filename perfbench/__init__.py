"""Benchmark of the outpaint engine; see README.md."""
