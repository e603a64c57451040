"""Benchmark of jetlaw on the source paper's workloads; see README.md."""
