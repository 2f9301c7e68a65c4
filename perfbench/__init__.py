"""Benchmark harness for maltsev; run it with ``python3 perfbench/run.py``."""
