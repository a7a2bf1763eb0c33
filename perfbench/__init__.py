"""Benchmark for layerlens: fixed, seeded workloads timed end to end, with
an optional traced run that records spans around each layer's public
functions.  ``run.py`` is the entry point; see ``README.md``."""
