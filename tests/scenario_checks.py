"""The partition/merge scenario's structural assertions, for any runtime.

Shared by the simulator test (tests/test_cluster_port.py) and the
wall-clock one (tests/realnet/test_realnet_smoke.py), so ``repro demo``
is held to the same claims on both.
"""

from __future__ import annotations

import contextlib

from repro.ports import make_cluster
from repro.workload.scenarios import partition_merge


def assert_partition_merge(runtime: str, n_sites: int = 3, **knobs) -> None:
    """Run :func:`partition_merge` and check what the paper claims
    (:attr:`PartitionMergeReport.ok`; the report's repr names the field
    that failed)."""
    with contextlib.closing(make_cluster(runtime, n_sites, **knobs)) as cluster:
        report = partition_merge(cluster)
    assert report.ok, report
