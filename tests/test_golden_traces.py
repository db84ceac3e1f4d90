"""Cross-commit identity of seeded simulator traces.

``tests/test_determinism.py`` shows that one commit replays a seed
identically; this file pins the *exported bytes* of five seeded runs, so
a refactor that is meant to leave protocol behaviour alone (ROADMAP
aim 2: "seeded sim traces stay byte-identical") is checked against the
commit that recorded the digests, not only against itself.

Regenerate when a protocol change is intended:
``PYTHONPATH=src python tests/test_golden_traces.py`` prints the new
table; paste it over ``GOLDEN`` and say why in the commit message.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.apps.factories import app_factory
from repro.apps.replicated_file import ReplicatedFile
from repro.gms.membership import MembershipConfig
from repro.isis import isis_stack_config
from repro.net.faults import Crash, FaultSchedule, Heal, Partition, Recover
from repro.ports import make_cluster
from repro.trace.export import dump_trace
from repro.vsync.stack import StackConfig
from repro.workload.clients import MulticastClient, QueryClient
from repro.workload.generator import RandomFaultGenerator
from repro.workload.openloop import LoadSpec
from repro.workload.runner import run_checked_workload, run_client_load
from repro.workload.scenarios import figure2_scenario


def _digest(trace) -> str:
    out = io.StringIO()
    dump_trace(trace, out)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def figure2_trace():
    """Figure-2 partition/merge under multicast + query clients."""
    cluster = make_cluster("sim", 6, app_factory("db", 6), seed=7)
    report = run_checked_workload(
        cluster,
        figure2_scenario(),
        client_factories=[
            lambda c: MulticastClient(c, interval=20.0),
            lambda c: QueryClient(c, interval=30.0),
        ],
    )
    assert report.ok, report.violations[:5]
    return report.trace


def store_faults_trace():
    """Open-loop store load through a crash/recover and a partition/heal."""
    cluster = make_cluster("sim", 5, app_factory("store", 5), seed=7)
    schedule = FaultSchedule()
    schedule.add(Crash(60.0, 4))
    schedule.add(Recover(160.0, 4))
    schedule.add(Partition(260.0, ((0, 1, 2), (3, 4))))
    schedule.add(Heal(460.0))
    spec = LoadSpec(
        rate=0.4, duration=600.0, clients=4, n_keys=32, read_fraction=0.6, seed=7
    )
    result = run_client_load(cluster, spec, schedule, slo_p99=200.0)
    assert result.ok, result.workload.violations[:5]
    return result.workload.trace


def scale_profile_trace():
    """The scale profile (gossip detection, tree agreement, debounced
    expansion) at n=24: bootstrap, half/half partition, a crash and a
    recovery inside one half, heal."""
    n = 24
    cluster = make_cluster(
        "sim",
        n,
        seed=7,
        stack=StackConfig(
            fd_timeout=45.0,
            membership=MembershipConfig(tree_fanout=4, expand_debounce=6.0),
        ),
        fd_mode="gossip",
        gossip_fanout=3,
    )
    assert cluster.settle()
    cluster.partition([list(range(n // 2)), list(range(n // 2, n))])
    assert cluster.settle()
    cluster.crash(5)
    assert cluster.settle()
    cluster.recover(5)
    assert cluster.settle()
    cluster.heal()
    assert cluster.settle()
    return cluster.gather_trace()


def random_schedule_trace():
    """E1's setup at seed 3: a replicated file at 5 sites under a random
    crash/recover/partition/heal schedule, then 200 more units."""
    votes = {s: 1 for s in range(5)}
    gen = RandomFaultGenerator(n_sites=5, seed=3, duration=350)
    cluster = make_cluster("sim", 5, lambda pid: ReplicatedFile(votes), seed=3)
    run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail)
    cluster.run_for(200)
    return cluster.gather_trace()


def isis_blocking_trace():
    """The Isis baseline with the blocking state-transfer tool: 20-chunk
    transfers at one-member-per-view growth, a minority partition and
    its reabsorption after the heal (the ``ChunkSender`` /
    ``ChunkReceiver`` path, installing state before acknowledging)."""
    votes = {s: 1 for s in range(5)}
    cluster = make_cluster(
        "sim",
        5,
        lambda pid: ReplicatedFile(votes),
        seed=7,
        stack=isis_stack_config(blocking_transfer=True, size_of=lambda app: 20),
    )
    cluster.run_for(900)
    cluster.apps[0].write("ledger", "v1")
    cluster.run_for(40)
    cluster.partition([[0, 1, 2], [3, 4]])
    cluster.run_for(300)
    cluster.apps[0].write("ledger", "v2")
    cluster.run_for(40)
    cluster.heal()
    cluster.run_for(900)
    for site in range(5):
        assert cluster.apps[site].read("ledger") == "v2", site
    return cluster.gather_trace()


SCENARIOS = {
    "figure2": figure2_trace,
    "store_faults": store_faults_trace,
    "scale_profile": scale_profile_trace,
    "isis_blocking": isis_blocking_trace,
    "random_schedule": random_schedule_trace,
}

#: sha256 of ``repro.trace.export.dump_trace`` output.  ``figure2`` and
#: ``store_faults`` were recorded at commit 9bc14ce (the parent of the
#: cluster-core consolidation); ``scale_profile`` at commit 7ca1ce2,
#: before the incremental reachable set, the tree memo and the int-key
#: identifier sorts touched anything under ``src/``; ``isis_blocking``
#: at commit 04b1eb7, before the blocking tool's receiving side moved
#: onto ``ChunkReceiver``; ``random_schedule`` at commit c0846cb, through
#: the sim-only schedule runner that ``run_checked_workload`` replaced.
#: ``store_faults`` was re-recorded when the store began inserting each
#: version by provenance: only audit fields changed.  ``store_state``
#: lists its ``provs`` key by key in chain order (they were sorted) and
#: adds ``keys`` and ``lens``; ``store_apply`` names ``at`` for the 41
#: versions that did not go on the end of their chain.  It was
#: re-recorded again when a process stopped beaconing the view peers its
#: latest multicast had just reached: the times of exactly 10 events
#: (one install at two sites, 291.2705098322484 -> 291.27050983124843
#: and 292.27...) moved by about 1e-9, the FIFO link-clock bumps the
#: skipped beats used to cause on shared links; every other byte is
#: identical.
GOLDEN = {
    "figure2": "cf2dded8ed3c36f4d47ca043073b87052c0289b42fc4c14de50e98fc9475475e",
    "store_faults": "5d1b2ad60195d6cea718031c691df46f9d241ac81c9b53aab2a196cb52916e28",
    "scale_profile": "d40ecf40a39cf124e631e846887840b19497e5f7808370fbf0b9ddf78eeb1f37",
    "isis_blocking": "4d995ee9465806c051c45668833d324cf29f13d82837cf98b46b2ad466e0d9fd",
    "random_schedule": "d81562f955640e5c5759edecad068dae3ff588114dd432e77dcbe9229073ea6d",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_trace_matches_golden_digest(name: str) -> None:
    assert _digest(SCENARIOS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name, build in sorted(SCENARIOS.items()):
        print(f'    "{name}": "{_digest(build())}",')
