"""Benchmark harness for rsa_fixpoints; run it as perfbench/run.py."""
