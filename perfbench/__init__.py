"""Benchmark package: see ``perfbench/run.py``."""
