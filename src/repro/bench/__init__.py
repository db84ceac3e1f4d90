"""The legacy performance ledger: ``perf``, ``client_perf``,
``obs_perf`` and ``realnet_compare``, which write and compare
``BENCH_PERF.json``.  Nothing outside this package imports it;
fault schedules run through :func:`repro.workload.run_checked_workload`."""
