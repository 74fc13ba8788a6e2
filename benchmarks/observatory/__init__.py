"""``observatory`` — the repo's benchmark (see README.md in this directory).

Four seeded workloads over a real ``repro serve`` (plus one in-process
analytics sweep), end-to-end metrics with fixed regression bounds in
``BENCHMARK.json``, and a traced pass that attributes a request's time
to the repo's layers from outside, by timing calls into their public
functions.  Entry points: ``python3 benchmarks/observatory/run.py`` (the
``BENCHMARK.json`` command) or ``python -m benchmarks.observatory``.
"""
