"""Cross-commit identity of seeded simulator traces.

``tests/test_determinism.py`` shows that one commit replays a seed
identically; this file pins the *exported bytes* of five seeded runs, so
a refactor that is meant to leave protocol behaviour alone (ROADMAP
aim 2: "seeded sim traces stay byte-identical") is checked against the
commit that recorded the digests, not only against itself.

Beside each digest sits the run's exact cost
(:func:`repro.trace.stats.cost_vector`: sends per payload type,
installs, deliveries, storage writes, settlement bytes, ...).  When a
digest moves, the cost test prints one row per cost, pinned against
actual, which says what the change did to the protocol's work.

Regenerate when a protocol change is intended:
``PYTHONPATH=src python tests/test_golden_traces.py`` prints both new
tables; paste them over ``GOLDEN`` and ``COSTS``, and paste the cost
table of every moved scenario into the change's description.
"""

from __future__ import annotations

import functools
import hashlib
import io
import pprint

import pytest

from repro.apps.factories import app_factory
from repro.apps.replicated_file import ReplicatedFile
from repro.gms.membership import MembershipConfig
from repro.isis import isis_stack_config
from repro.net.faults import Crash, FaultSchedule, Heal, Partition, Recover
from repro.ports import make_cluster
from repro.trace.export import dump_trace
from repro.trace.stats import cost_table, cost_vector
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
    return report.trace, cluster


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
    return result.workload.trace, cluster


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
    return cluster.gather_trace(), cluster


def random_schedule_trace():
    """E1's setup at seed 3: a replicated file at 5 sites under a random
    crash/recover/partition/heal schedule, then 200 more units."""
    votes = {s: 1 for s in range(5)}
    gen = RandomFaultGenerator(n_sites=5, seed=3, duration=350)
    cluster = make_cluster("sim", 5, lambda pid: ReplicatedFile(votes), seed=3)
    run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail)
    cluster.run_for(200)
    return cluster.gather_trace(), cluster


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
    return cluster.gather_trace(), cluster


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
#: identical.  ``scale_profile`` was re-recorded when a process under
#: sparse gossip began holding its proposals while its detector learns
#: the universe (docs/protocol.md §3): no nacked bootstrap rounds and
#: no second, identical view, so fewer gms sends and installs; its cost
#: vector before the hold read VcPrepare 346, VcPropose 232, VcNack 24,
#: VcFlush 17, VcFlushBatch 323, VcInstall 155, StabilityReport 182 and
#: 191 installs, and every GossipDigest send is unchanged.
#: ``store_faults`` was re-recorded when only a writer's ack successors
#: (the next two of five) began acking a put at once and the other
#: replicas at their next beat tick: ``send.DirectPayload`` 303 -> 284,
#: every other cost unchanged.  Three trace lines differ in time by
#: about 1e-9 (FIFO link-clock bumps of the acks no longer sent), one
#: put's ``store_ack`` moves from 79.5 to 82.18 (its writer's successor
#: site 4 had crashed, so a beat-tick ack made the quorum), and one
#: put's ``store_ack`` at 87.0 is gone: with site 4 down its owed acks
#: were still waiting when the view changed, so it aborted and its
#: client's retry was answered from the exactly-once index.
#: ``store_faults`` was re-recorded when the store stopped re-issuing a
#: put that a flush caught and began answering an exactly-once index
#: hit only through its certified commit path.  The 15 copies the
#: parent re-multicast in the next view, with no handle waiting, are
#: gone; the 8 client retries the index used to answer on the strength
#: of those copies now land as fresh multicasts and commit on their
#: quorum; the 3 retries the index still answers (each an earlier
#: view's write) now record ``store_ack``.  So ``store_ack`` events go
#: 78 -> 89, while ``store_apply`` (366), the puts committed (89) and
#: the run's end (t=860) are unchanged; the cost rows that moved are
#: ``multicasts`` 105 -> 98, ``send.Message`` 310 -> 296,
#: ``deliveries`` 408 -> 387, ``storage.writes`` 494 -> 473,
#: ``send.DirectPayload`` 284 -> 279, ``send.Heartbeat`` 3124 -> 3114,
#: ``send.StabilityNotice`` 101 -> 103 and the settlement bytes
#: (``bytes.StateOffer`` 33874 -> 33394, ``bytes.StateAdopt``
#: 22786 -> 22306).
#: ``figure2`` (the db app) was re-recorded when the channel stopped
#: re-issuing a multicast it refused during a view change.  Four sends
#: were refused, at t=180 and t=210: two inserts (``k6`` by p0.0,
#: ``k7`` by p1.0) and two lookup requests (by p1.0 and p2.0).  The
#: parent re-multicast all four when v3 installed (t=212-213); now they
#: are dropped, so the two inserts are never applied and every later
#: seqno of those senders in v3 is one or two lower.  The cost rows
#: that moved are ``multicasts`` 234 -> 230, ``send.Message``
#: 924 -> 912, ``send.DirectPayload`` 95 -> 89 (the lookup replies),
#: ``deliveries`` 1136 -> 1120, ``storage.writes`` 288 -> 272, the
#: settlement bytes (``bytes.StateOffer`` 6603 -> 6535,
#: ``bytes.StateAdopt`` 4279 -> 4211: two records fewer) and
#: ``send.Heartbeat`` 3089 -> 3098; no install or gms row moved.
GOLDEN = {
    "figure2": "652cb8bf32aba5e4cf83d29dfff0df7673da5e9fc1696c71434bde0841bd0cb4",
    "store_faults": "4b3cb879f2d995521c712b1c05f20427a792157c8667e1dadddc545c8494afc4",
    "scale_profile": "e212303e1cfe389964b75fa153775114942a410ac428f83a49b2ed5c06350c8b",
    "isis_blocking": "4d995ee9465806c051c45668833d324cf29f13d82837cf98b46b2ad466e0d9fd",
    "random_schedule": "d81562f955640e5c5759edecad068dae3ff588114dd432e77dcbe9229073ea6d",
}


#: ``cost_vector`` of each scenario's run, pinned beside its digest.
COSTS: dict[str, dict[str, float]] = {
    "figure2": {
        "send.DirectPayload": 89,
        "send.EvChange": 20,
        "send.Heartbeat": 3098,
        "send.Message": 912,
        "send.StabilityNotice": 103,
        "send.StabilityReport": 114,
        "send.VcFlush": 22,
        "send.VcInstall": 14,
        "send.VcNack": 4,
        "send.VcPrepare": 30,
        "send.VcPropose": 21,
        "bytes.StateAdopt": 4211,
        "bytes.StateOffer": 6535,
        "installs": 24,
        "eview_changes": 24,
        "multicasts": 230,
        "deliveries": 1120,
        "settle_sessions": 8,
        "storage.writes": 272,
        "storage.appends": 0,
        "gms.sends_per_install": 3.792,
    },
    "isis_blocking": {
        "send.DirectPayload": 246,
        "send.Heartbeat": 8727,
        "send.Message": 22,
        "send.StabilityNotice": 124,
        "send.StabilityReport": 275,
        "send.VcAbort": 48,
        "send.VcFlush": 77,
        "send.VcInstall": 23,
        "send.VcPrepare": 81,
        "send.VcPropose": 344,
        "bytes.StateAdopt": 2364,
        "bytes.StateOffer": 2364,
        "installs": 36,
        "eview_changes": 0,
        "multicasts": 7,
        "deliveries": 29,
        "settle_sessions": 5,
        "storage.writes": 142,
        "storage.appends": 0,
        "gms.sends_per_install": 14.583,
    },
    "random_schedule": {
        "send.DirectPayload": 16,
        "send.EvChange": 24,
        "send.Heartbeat": 4102,
        "send.Message": 12,
        "send.StabilityNotice": 88,
        "send.StabilityReport": 116,
        "send.VcFlush": 49,
        "send.VcInstall": 34,
        "send.VcNack": 6,
        "send.VcPrepare": 74,
        "send.VcPropose": 100,
        "bytes.StateAdopt": 770,
        "bytes.StateOffer": 2824,
        "installs": 67,
        "eview_changes": 30,
        "multicasts": 3,
        "deliveries": 15,
        "settle_sessions": 3,
        "storage.writes": 164,
        "storage.appends": 0,
        "gms.sends_per_install": 3.925,
    },
    "scale_profile": {
        "send.GossipDigest": 4044,
        "send.StabilityReport": 163,
        "send.VcFlushBatch": 233,
        "send.VcInstall": 123,
        "send.VcNack": 1,
        "send.VcPrepare": 247,
        "send.VcPropose": 142,
        "installs": 156,
        "eview_changes": 0,
        "multicasts": 0,
        "deliveries": 0,
        "settle_sessions": 0,
        "storage.writes": 156,
        "storage.appends": 0,
        "gms.sends_per_install": 4.782,
    },
    "store_faults": {
        "send.DirectPayload": 279,
        "send.EvChange": 24,
        "send.Heartbeat": 3114,
        "send.Message": 296,
        "send.StabilityNotice": 103,
        "send.StabilityReport": 117,
        "send.VcFlush": 34,
        "send.VcInstall": 28,
        "send.VcNack": 3,
        "send.VcPrepare": 41,
        "send.VcPropose": 22,
        "bytes.StateAdopt": 22306,
        "bytes.StateOffer": 33394,
        "installs": 43,
        "eview_changes": 30,
        "multicasts": 98,
        "deliveries": 387,
        "settle_sessions": 9,
        "storage.writes": 473,
        "storage.appends": 445,
        "gms.sends_per_install": 2.977,
    },
}


@functools.cache
def _run(name: str) -> tuple[str, dict[str, float]]:
    """One run of scenario ``name``: its digest and its cost vector."""
    trace, cluster = SCENARIOS[name]()
    return _digest(trace), cost_vector(cluster)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_trace_matches_golden_digest(name: str) -> None:
    assert _run(name)[0] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_cost_vector_matches_pinned(name: str) -> None:
    actual = _run(name)[1]
    assert actual == COSTS[name], f"{name}:\n{cost_table(COSTS[name], actual)}"


if __name__ == "__main__":
    runs = {name: _run(name) for name in sorted(SCENARIOS)}
    for name, (digest, _) in runs.items():
        print(f'    "{name}": "{digest}",')
    pprint.pprint({name: costs for name, (_, costs) in runs.items()}, sort_dicts=False)
