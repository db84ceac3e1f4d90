"""The two perf gates CI runs, ``python -m repro.bench.gates scale`` and
``python -m repro.bench.gates tracing``, kept here until the repo
benchmark (``perfbench/``) carries them.  Nothing outside this package
imports it, so the package can go in one change."""
