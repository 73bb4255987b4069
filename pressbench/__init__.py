"""Benchmark of the PRESS reproduction; entry point ``pressbench/run.py``."""
