"""Workloads: canned scenarios, random schedules, clients, checked runs.

Everything here is written against :class:`~repro.ports.ClusterPort`, so
the same scenario + client mix drives the simulator and the real-socket
runtime unchanged (see :func:`run_checked_workload`).
"""

from repro.workload.scenarios import (
    cascade_scenario,
    clean_scenario,
    figure2_scenario,
    join_wave_scenario,
    partition_heal_scenario,
    total_failure_scenario,
)
from repro.workload.generator import RandomFaultGenerator
from repro.workload.clients import (
    ClientStats,
    FileClient,
    LockClient,
    MulticastClient,
    QueryClient,
)
from repro.workload.runner import WorkloadReport, run_checked_workload
from repro.workload.table import Table

__all__ = [
    "clean_scenario",
    "partition_heal_scenario",
    "cascade_scenario",
    "total_failure_scenario",
    "join_wave_scenario",
    "figure2_scenario",
    "RandomFaultGenerator",
    "ClientStats",
    "MulticastClient",
    "FileClient",
    "LockClient",
    "QueryClient",
    "WorkloadReport",
    "run_checked_workload",
    "Table",
]
