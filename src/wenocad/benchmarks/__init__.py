"""Benchmark problems, reference solutions, and error metrics."""
