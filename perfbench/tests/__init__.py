"""Self-tests of the benchmark's own machinery (``python -m perfbench
--selftest``); outside the repository's tier-1 ``testpaths``."""
