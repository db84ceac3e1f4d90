"""Partition and EVS merge over *real* TCP sockets (Section 6).

Everything the other examples do in virtual time, this one does on the
wall clock: three group stacks — the same unmodified fd/gms/vsync/evs
code the simulator runs — boot on localhost TCP ports, settle into one
view, get firewalled into a majority and a minority (two concurrent
e-views over live sockets), merge each side's structure, heal, and
finish with an ``SV-SetMerge`` that the coordinator sequences and every
member applies in the same total order.  The paper's properties are
then verified on the merged trace, exactly as for a simulated run.

The scenario is :func:`repro.workload.scenarios.partition_merge`, the
one ``repro demo`` runs on either runtime; here it drives a realnet
cluster built by :func:`repro.ports.make_cluster`.  The wire format and
transport semantics are described in ``docs/protocol.md`` ("The realnet
wire format").

Run:  python examples/realnet_partition_merge.py
"""

from __future__ import annotations

import contextlib
import sys

from repro.ports import make_cluster
from repro.workload.scenarios import partition_merge


def main() -> int:
    print("== the VS/EVS stacks over localhost TCP ==\n")
    with contextlib.closing(make_cluster("realnet", 3)) as cluster:
        report = partition_merge(cluster, print)

    print("\n== recap ==")
    print(f"   concurrent e-views while partitioned: {report.concurrent_views}")
    print(f"   sv-sets after heal {report.svsets_after_heal} "
          f"(partition structure preserved, Property 6.3), "
          f"after SV-SetMerge {report.svsets_after_merge}")
    print(f"   frames destroyed by the firewall: {report.dropped_partition}")
    if not report.ok:
        print(f"   FAILED: {report.violations[:5] or report}")
        return 1
    print("   all view-synchrony and enriched-view properties hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
