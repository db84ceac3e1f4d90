"""Tests for identifier types, error hierarchy, transition analysis and
stack dispatch corners."""

from __future__ import annotations

import random

import pytest

from repro.analysis import FIGURE_1_EDGES, TransitionMatrix, transition_matrix
from repro.apps.replicated_file import ReplicatedFile
from repro.errors import (
    ApplicationError,
    ClassificationError,
    EnrichedViewError,
    MembershipError,
    NetworkError,
    ReproError,
    SimulationError,
    ViewSynchronyError,
)
from repro.gms.tree import AggregationTree, round_tree
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import (
    Message,
    MessageId,
    ProcessId,
    SubviewId,
    SvSetId,
    ViewId,
    min_process,
)

from tests.conftest import settled_cluster


# ---------------------------------------------------------------------------
# Identifier types
# ---------------------------------------------------------------------------


def test_process_id_repr_and_ordering():
    a, b = ProcessId(0, 0), ProcessId(0, 1)
    assert str(a) == "p0.0" and str(b) == "p0.1"
    assert a < b < ProcessId(1, 0)
    assert a.next_incarnation() == b


def test_view_id_repr():
    assert str(ViewId(3, ProcessId(1, 2))) == "v3@p1.2"


def test_message_id_repr_and_message_str():
    mid = MessageId(ProcessId(0), ViewId(1, ProcessId(0)), 7)
    assert "m(" in str(mid)
    assert "eview_seq" in str(Message(mid, "x", 2))


def test_subview_and_svset_id_reprs():
    assert str(SubviewId(1, ProcessId(0), 2)) == "sv(1,p0.0,2)"
    assert str(SvSetId(1, ProcessId(0), 2)) == "ss(1,p0.0,2)"


def test_min_process_rejects_empty():
    with pytest.raises(ValueError):
        min_process(frozenset())


def test_min_process_picks_least():
    pids = {ProcessId(2), ProcessId(0, 1), ProcessId(0, 0)}
    assert min_process(pids) == ProcessId(0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_int_key_order_is_the_dataclass_order(seed):
    """``sorted`` / ``min_process`` order process ids by their two ints,
    ``(site, incarnation)``, incarnation ties of one site included."""
    rng = random.Random(seed)
    pids = {
        ProcessId(rng.randrange(12), rng.randrange(4)) for _ in range(40)
    }
    assert len({p.site for p in pids}) < len(pids)  # ties on site exist
    by_ints = sorted(pids, key=lambda p: (p.site, p.incarnation))
    assert sorted(pids) == by_ints
    assert min_process(pids) == min(pids) == by_ints[0]


@pytest.mark.parametrize("seed", range(5))
def test_memoised_round_tree_equals_a_fresh_one(seed):
    rng = random.Random(seed)
    members = frozenset(
        ProcessId(rng.randrange(200), rng.randrange(3))
        for _ in range(rng.randrange(2, 90))
    )
    root = rng.choice(sorted(members))
    fanout = rng.randrange(1, 9)
    fresh = AggregationTree(members, root, fanout)
    shared = round_tree(members, root, fanout)
    assert round_tree(frozenset(members), root, fanout) is shared
    assert shared.order == fresh.order == (root, *sorted(members - {root}))
    for pid in members:
        assert pid in shared
        assert shared.parent(pid) == fresh.parent(pid)
        assert shared.children(pid) == fresh.children(pid)
        assert shared.subtree_size(pid) == fresh.subtree_size(pid)
    assert shared.subtree_size(root) == len(members)


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    for cls in (
        SimulationError,
        NetworkError,
        MembershipError,
        ViewSynchronyError,
        EnrichedViewError,
        ApplicationError,
            ClassificationError,
    ):
        assert issubclass(cls, ReproError)
        with pytest.raises(ReproError):
            raise cls("boom")


# ---------------------------------------------------------------------------
# Transition analysis
# ---------------------------------------------------------------------------


def test_transition_matrix_conformance_flags():
    matrix = TransitionMatrix()
    matrix.add("Failure", "N", "R")
    assert matrix.conforms
    assert not matrix.complete
    matrix.add("Failure", "R", "N")  # not a Figure-1 edge
    assert not matrix.conforms
    assert ("Failure", "R", "N") in matrix.illegal_edges


def test_transition_matrix_merge_adds_counts():
    a = TransitionMatrix({("Repair", "R", "S"): 2})
    b = TransitionMatrix({("Repair", "R", "S"): 3})
    assert a.merge(b).counts[("Repair", "R", "S")] == 5


def test_live_run_transition_matrix_conforms():
    votes = {s: 1 for s in range(5)}
    cluster = Cluster(
        5, app_factory=lambda pid: ReplicatedFile(votes),
        config=ClusterConfig(seed=0),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    cluster.partition([[0, 1, 2], [3, 4]])
    assert cluster.settle(timeout=500)
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    matrix = transition_matrix(cluster.recorder)
    assert matrix.conforms, matrix.illegal_edges
    assert ("Repair", "R", "S") in matrix.edges
    assert FIGURE_1_EDGES >= matrix.edges


# ---------------------------------------------------------------------------
# Stack dispatch corners
# ---------------------------------------------------------------------------


def test_unknown_payload_goes_to_app_on_direct():
    cluster = settled_cluster(2)
    got = []
    cluster.apps[1].on_direct = lambda src, p: got.append(p)
    # An unwrapped custom object (not a protocol message) via raw send.
    cluster.stack_at(0).send(cluster.stack_at(1).pid, {"raw": True})
    cluster.run_for(10)
    assert got == [{"raw": True}]


def test_send_after_crash_is_noop():
    cluster = settled_cluster(2)
    stack = cluster.stack_at(0)
    cluster.crash(0)
    stack.send_direct(cluster.stack_at(1).pid, "ghost")  # must not raise
    stack.send_site(1, "ghost")
    cluster.run_for(10)


def test_transfer_hook_can_consume_direct_payloads():
    cluster = settled_cluster(2)
    receiver = cluster.stack_at(1)
    seen_by_app = []
    receiver.app.on_direct = lambda src, p: seen_by_app.append(p)

    class Hook:
        def __init__(self):
            self.eaten = []

        def on_direct(self, src, payload):
            if payload == "for-hook":
                self.eaten.append(payload)
                return True
            return False

    hook = Hook()
    receiver.app_transfer_hook = hook
    cluster.stack_at(0).send_direct(receiver.pid, "for-hook")
    cluster.stack_at(0).send_direct(receiver.pid, "for-app")
    cluster.run_for(10)
    assert hook.eaten == ["for-hook"]
    assert seen_by_app == ["for-app"]
