"""Benchmark harness for colchunk; run ``python3 perfbench/run.py --help``."""
