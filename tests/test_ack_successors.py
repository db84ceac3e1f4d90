"""Acks from a majority: a writer's ack successors ack at once.

A quorum-acked write commits once replicas holding a majority of the
tally's votes applied it.  ``QuorumTally.ack_successors`` names, per
writer, the fewest view members after it in ring order whose votes make
that majority with the writer's own; only they ack at once
(``GroupObject.send_ack``), and every other replica sends its newest
owed ack at its next failure-detector beat tick.
"""

from __future__ import annotations

import pytest

from repro.apps.replicated_file import ReplicatedFile
from repro.apps.versioned_store import VersionedStore
from repro.core.versioning import QuorumTally
from repro.net.latency import ConstantLatency
from repro.ports import make_cluster
from repro.trace.checks import run_check
from repro.types import ProcessId


def pids(sites) -> frozenset[ProcessId]:
    return frozenset(ProcessId(site, 0) for site in sites)


def held(tally: QuorumTally, replicas) -> int:
    return sum(tally.votes.get(pid.site, 0) for pid in replicas)


class _Stub:
    """Just enough of a stack for ``GroupObject._plan_acks``."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid


def assert_minimal_quorums(tally: QuorumTally, members: frozenset[ProcessId]) -> None:
    total = sum(tally.votes.values())
    table = tally.ack_successors(members)
    ring = sorted(members)
    assert table.keys() == members
    for i, writer in enumerate(ring):
        successors = table[writer]
        # The members right after the writer, in ring order.
        assert list(successors) == (ring[i + 1:] + ring[:i])[: len(successors)]
        assert 2 * held(tally, (writer, *successors)) > total
        if successors:
            assert 2 * held(tally, (writer, *successors[:-1])) <= total


@pytest.mark.parametrize("k", range(1, 10))
def test_one_vote_each_the_writer_and_half_the_view_are_a_quorum(k):
    members = pids(range(k))
    tally = QuorumTally({pid.site: 1 for pid in members})
    assert_minimal_quorums(tally, members)
    assert {len(s) for s in tally.ack_successors(members).values()} == {k // 2}


@pytest.mark.parametrize(
    "sites", [(0, 1, 2, 3, 4), (0, 2, 4), (2, 3, 4), (0, 4), (4, 2, 1, 0)]
)
def test_weighted_votes_with_sites_outside_the_view(sites):
    # The file's tally counts every site's votes, in the view or not.
    tally = ReplicatedFile({0: 3, 1: 1, 2: 2, 3: 1, 4: 2})._tally
    assert_minimal_quorums(tally, pids(sites))


def test_a_view_below_the_quorum_acks_everything_at_once():
    tally = QuorumTally({site: 1 for site in range(5)})
    members = pids((0, 3))
    table = tally.ack_successors(members)
    assert table == {ProcessId(0, 0): (ProcessId(3, 0),), ProcessId(3, 0): (ProcessId(0, 0),)}
    replica = ReplicatedFile({site: 1 for site in range(5)})
    replica.stack = _Stub(ProcessId(3, 0))
    replica._plan_acks(members)
    assert replica._lazy_writers == frozenset()


def test_a_replica_acks_lazily_exactly_the_writers_it_does_not_succeed():
    members = pids(range(5))
    store = VersionedStore(audit_trace=False)
    store.stack = _Stub(ProcessId(3, 0))
    store._tally = QuorumTally({site: 1 for site in range(5)})
    store._owed_acks = {ProcessId(1, 0): "an ack of the old view"}
    store._plan_acks(members)
    # Writer 1's successors are 2 and 3, writer 2's are 3 and 4.
    assert store._lazy_writers == pids((0, 4))
    assert store._owed_acks == {}


def test_a_put_commits_through_lazy_acks_when_a_successor_crashes():
    interval, latency = 5.0, 1.0
    cluster = make_cluster(
        "sim", 5, app="store", seed=7, latency=ConstantLatency(latency)
    )
    assert cluster.settle()
    cluster.run_for(20.0)
    store = cluster.app_at(0)
    view = store.stack.view.view_id
    successors = store._tally.ack_successors(store.stack.view.members)[store.pid]
    assert [pid.site for pid in successors] == [1, 2]

    commits: list[float] = []
    start = cluster.now
    handle = store.put("k", "v", client="c", client_seq=1,
                       on_done=lambda h: commits.append(cluster.now))
    cluster.crash(1)  # the put is on the wire: site 1 never applies it
    cluster.run_for(interval + 2 * latency)

    assert handle.status == "committed"
    assert ProcessId(1, 0) not in handle.ackers
    assert handle.ackers & pids((3, 4))  # a lazy ack made the quorum
    # Delivered at start + latency; the non-successors' next beat comes
    # within one interval, and their ack takes one more link latency.
    (at,) = commits
    assert at - (start + latency) <= interval + latency
    assert store.stack.view.view_id == view  # before the view change
    cluster.run_for(100.0)
    assert cluster.settle()
    report = run_check("AckedWriteLoss", cluster.gather_trace())
    assert report.checked == 1 and report.ok, report.violations
