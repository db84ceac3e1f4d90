"""Unit tests for the shared op-log versioning helpers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.apps.factories import app_factory
from repro.client.sim import SimStoreClient
from repro.core.group_object import AppStateOffer
from repro.core.versioning import (
    Provenance,
    QuorumTally,
    VersionEntry,
    merge_chains,
    newest_incarnations,
    provenance_of,
)
from repro.runtime.cluster import Cluster
from repro.types import MessageId, ProcessId, ViewId


def prov(epoch: int, site: int, seq: int, inc: int = 0) -> Provenance:
    return Provenance(epoch, ProcessId(site, inc), seq)


def entry(epoch: int, site: int, seq: int, value: str = "v") -> VersionEntry:
    return VersionEntry(value, prov(epoch, site, seq))


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def test_provenance_orders_by_epoch_then_writer_then_seq() -> None:
    assert prov(1, 5, 9) < prov(2, 0, 0)
    assert prov(2, 1, 9) < prov(2, 2, 0)
    assert prov(2, 2, 1) < prov(2, 2, 2)
    # A recovered incarnation of the same site sorts after the retired one.
    assert prov(2, 2, 1, inc=0) < prov(2, 2, 1, inc=1)


def test_provenance_of_projects_message_id() -> None:
    writer = ProcessId(3, 1)
    coordinator = ProcessId(0, 0)
    msg_id = MessageId(writer, ViewId(7, coordinator), 42)
    p = provenance_of(msg_id)
    assert p == Provenance(7, writer, 42)
    # The coordinator is deliberately dropped: concurrent partitions
    # with equal epochs must order writes identically at every site.
    other = MessageId(writer, ViewId(7, ProcessId(5, 0)), 42)
    assert provenance_of(other) == p


# ---------------------------------------------------------------------------
# merge_chains
# ---------------------------------------------------------------------------


def test_merge_chains_unions_and_orders_by_provenance() -> None:
    a = (entry(1, 0, 1), entry(2, 0, 1))
    b = (entry(1, 0, 1), entry(2, 1, 1))
    merged = merge_chains([a, b])
    assert [e.prov for e in merged] == sorted(
        {entry(1, 0, 1).prov, entry(2, 0, 1).prov, entry(2, 1, 1).prov}
    )
    # Shared entries survive exactly once.
    assert sum(1 for e in merged if e.prov == prov(1, 0, 1)) == 1


def test_merge_chains_deterministic_in_input_order() -> None:
    a = (entry(1, 0, 1), entry(3, 2, 1))
    b = (entry(2, 1, 1),)
    assert merge_chains([a, b]) == merge_chains([b, a])
    assert merge_chains([a, b, a]) == merge_chains([a, b])


def test_merge_chains_idempotent_with_self() -> None:
    a = (entry(1, 0, 1), entry(2, 0, 2))
    assert merge_chains([a, a]) == a


# ---------------------------------------------------------------------------
# newest_incarnations
# ---------------------------------------------------------------------------


def offer(site: int, inc: int, version: int, state: str) -> AppStateOffer:
    return AppStateOffer(
        sender=ProcessId(site, inc), state=state, version=version, last_epoch=0
    )


def test_newest_incarnations_drops_retired_copies() -> None:
    offers = [offer(0, 0, 9, "stale"), offer(0, 1, 2, "live"), offer(1, 0, 5, "b")]
    live = newest_incarnations(offers)
    assert [o.state for o in live] == ["live", "b"]


def test_newest_incarnations_keeps_highest_version_per_incarnation() -> None:
    offers = [offer(0, 0, 1, "old"), offer(0, 0, 4, "new")]
    live = newest_incarnations(offers)
    assert len(live) == 1 and live[0].state == "new"


def test_newest_incarnations_output_sorted_and_stable() -> None:
    offers = [offer(2, 0, 1, "c"), offer(0, 1, 1, "a"), offer(1, 0, 1, "b")]
    live = newest_incarnations(offers)
    assert [o.sender.site for o in live] == [0, 1, 2]
    assert live == newest_incarnations(list(reversed(offers)))


# ---------------------------------------------------------------------------
# QuorumTally
# ---------------------------------------------------------------------------


@dataclass
class Handle:
    status: str = "pending"
    ackers: set = field(default_factory=set)
    acked_votes: int = 0

    @property
    def done(self) -> bool:
        return self.status != "pending"


VIEW = ViewId(1, ProcessId(0, 0))


def mid(site: int, seq: int, view: ViewId = VIEW) -> MessageId:
    return MessageId(ProcessId(site, 0), view, seq)


def assert_one_prefix_per_site(tally: QuorumTally) -> None:
    sites = [replica.site for replica in tally._prefix]
    assert len(sites) == len(set(sites))


def test_tally_commits_on_majority() -> None:
    tally = QuorumTally({0: 1, 1: 1, 2: 1}, VIEW)
    handle = Handle()
    me = ProcessId(0, 0)
    assert tally.ack(mid(0, 1), me) == []  # our synchronous self-apply
    assert tally.open(mid(0, 1), handle) == []
    assert tally.ack(mid(0, 1), ProcessId(1, 0)) == [handle]
    assert handle.status == "committed"
    # A late ack for the committed op is dropped, not re-counted.
    assert tally.ack(mid(0, 1), ProcessId(2, 0)) == []
    assert handle.acked_votes == 2


def test_tally_ignores_duplicate_acks_from_one_replica() -> None:
    tally = QuorumTally({0: 1, 1: 1, 2: 1}, VIEW)
    handle = Handle()
    tally.open(mid(0, 1), handle)
    assert tally.ack(mid(0, 1), ProcessId(1, 0)) == []
    assert tally.ack(mid(0, 1), ProcessId(1, 0)) == []
    assert handle.acked_votes == 1 and handle.status == "pending"


def test_tally_counts_a_self_ack_made_before_open() -> None:
    # Self-delivery is synchronous inside multicast: our own apply raises
    # our prefix before open() registers the handle, and open counts it.
    tally = QuorumTally({0: 1}, VIEW)
    me = ProcessId(0, 0)
    assert tally.ack(mid(0, 1), me) == []
    handle = Handle()
    assert tally.open(mid(0, 1), handle) == [handle]  # single-site quorum
    assert handle.status == "committed" and handle.ackers == {me}


def test_one_cumulative_ack_commits_several_handles() -> None:
    tally = QuorumTally({site: 1 for site in range(5)}, VIEW)
    me = ProcessId(0, 0)
    handles = [Handle() for _ in range(4)]
    for seq, handle in zip((2, 3, 5, 8), handles):  # gaps: other multicasts
        tally.ack(mid(0, seq), me)
        tally.open(mid(0, seq), handle)
    assert tally.ack(mid(0, 5), ProcessId(1, 0)) == []
    # Replica 2 applied everything through seqno 6: the first three
    # puts now hold three of five votes; the fourth still waits.
    assert tally.ack(mid(0, 6), ProcessId(2, 0)) == handles[:3]
    assert [h.status for h in handles] == ["committed"] * 3 + ["pending"]
    assert handles[3].acked_votes == 1 and len(tally) == 1
    assert tally.ack(mid(0, 8), ProcessId(3, 0)) == []
    assert tally.ack(mid(0, 9), ProcessId(4, 0)) == [handles[3]]
    assert handles[3].ackers == {me, ProcessId(3, 0), ProcessId(4, 0)}


def test_late_acks_leave_no_residue() -> None:
    """n=5: three acks commit a put, the other two arrive afterwards.
    They only raise their replicas' prefixes: one entry per site."""
    tally = QuorumTally({site: 1 for site in range(5)}, VIEW)
    me = ProcessId(0, 0)
    for seq in range(1, 201):
        handle = Handle()
        assert tally.ack(mid(0, seq), me) == []  # self-apply before open
        tally.open(mid(0, seq), handle)
        for site in range(1, 5):
            tally.ack(mid(0, seq), ProcessId(site, 0))
        tally.ack(mid(0, seq), me)  # a late duplicate of our own
        assert handle.status == "committed" and len(handle.ackers) == 3
    assert len(tally) == 0
    assert_one_prefix_per_site(tally)
    assert len(tally._prefix) == 5


def test_late_acks_leave_no_residue_in_a_running_store() -> None:
    cluster = Cluster(5, app_factory=app_factory("store", 5))
    assert cluster.settle(timeout=500)
    client = SimStoreClient(cluster, site=0, client_id="c")
    for i in range(200):
        assert client.put(f"k{i % 7}", i).ok
    cluster.run_for(50)
    assert cluster.app_at(0).puts_committed == 200
    for site in range(5):
        tally = cluster.app_at(site)._tally
        assert len(tally) == 0
        assert_one_prefix_per_site(tally)


def test_tally_drops_acks_for_another_view() -> None:
    tally = QuorumTally({0: 1, 1: 1}, VIEW)
    other = ViewId(2, ProcessId(1, 0))
    assert tally.ack(mid(0, 1, other), ProcessId(1, 0)) == []
    assert tally._prefix == {}
    handle = Handle()
    assert tally.open(mid(0, 1), handle) == []
    assert handle.acked_votes == 0


def test_tally_abort_all_flushes_pending_and_parked() -> None:
    tally = QuorumTally({0: 1, 1: 1, 2: 1}, VIEW)
    h1, h2 = Handle(), Handle()
    tally.open(mid(0, 1), h1)
    tally.open(mid(0, 2), h2)
    tally.ack(mid(0, 3), ProcessId(0, 0))  # an ack ahead of any handle
    later = ViewId(2, ProcessId(0, 0))
    aborted = tally.abort_all(later)
    assert set(map(id, aborted)) == {id(h1), id(h2)}
    assert h1.status == h2.status == "aborted"
    assert len(tally) == 0 and tally._prefix == {} and tally.view == later
    # The next view's seqnos start again at 1.
    h3 = Handle()
    tally.ack(mid(0, 1, later), ProcessId(1, 0))
    tally.open(mid(0, 1, later), h3)
    assert h3.acked_votes == 1


# -- differential: the prefix tally against a per-message oracle ------------


class PerMessageOracle:
    """The semantics the prefix tally must reproduce, the slow way: a
    cumulative ack through seqno s is one ack per operation of ours
    through s, each counted separately, in seqno order."""

    def __init__(self, votes: dict[int, int]) -> None:
        self.votes = votes
        self.total = sum(votes.values())
        self.opened: dict[int, Handle] = {}  # seqno -> handle, all ever
        self.prefix: dict[ProcessId, int] = {}

    def _vote(self, seqno: int, replica: ProcessId) -> None:
        handle = self.opened[seqno]
        if handle.status == "pending" and replica not in handle.ackers:
            handle.ackers.add(replica)
            handle.acked_votes += self.votes.get(replica.site, 0)

    def _commits(self) -> list[Handle]:
        done = []
        for seqno in sorted(self.opened):
            handle = self.opened[seqno]
            if handle.status != "pending":
                continue
            if 2 * handle.acked_votes <= self.total:
                break
            handle.status = "committed"
            done.append(handle)
        return done

    def open(self, seqno: int, handle: Handle) -> list[Handle]:
        self.opened[seqno] = handle
        for replica, acked in self.prefix.items():
            if acked >= seqno:
                self._vote(seqno, replica)
        return self._commits()

    def ack(self, seqno: int, replica: ProcessId, same_view: bool) -> list[Handle]:
        if not same_view:
            return []
        old = self.prefix.get(replica, 0)
        self.prefix[replica] = max(old, seqno)
        for s in sorted(self.opened):
            if old < s <= seqno:
                self._vote(s, replica)
        return self._commits()


def twins_of(twins: list[tuple[Handle, Handle]], want: list[Handle]) -> list[int]:
    """The tally-side handles of the oracle's ``want``, by identity."""
    wanted = {id(t) for t in want}
    return [id(h) for h, t in twins if id(t) in wanted]


@pytest.mark.parametrize("n", [3, 5])
def test_prefix_tally_matches_a_per_message_oracle(n: int) -> None:
    rng = random.Random(1000 + n)
    other_view = ViewId(0, ProcessId(1, 0))
    for _trial in range(300):
        votes = {site: rng.randint(0, 3) for site in range(n)}
        if not sum(votes.values()):
            votes[0] = 1
        # Our operations' seqnos, with gaps for other multicasts.
        seqnos, seq = [], 0
        for _ in range(rng.randint(1, 12)):
            seq += rng.randint(1, 3)
            seqnos.append(seq)
        tally = QuorumTally(votes, VIEW)
        oracle = PerMessageOracle(votes)
        twins: list[tuple[Handle, Handle]] = []
        opened = 0
        acked = {ProcessId(site, 0): 0 for site in range(n)}  # FIFO per replica
        steps = 0
        while opened < len(seqnos) or steps < 4 * len(seqnos):
            steps += 1
            roll = rng.random()
            if opened < len(seqnos) and roll < 0.35:
                s = seqnos[opened]
                if rng.random() < 0.8:  # our own apply, synchronous
                    me = ProcessId(0, 0)
                    got = tally.ack(mid(0, s), me)
                    assert [id(h) for h in got] == twins_of(twins, oracle.ack(s, me, True))
                    acked[me] = s
                handle, twin = Handle(), Handle()
                twins.append((handle, twin))
                got = tally.open(mid(0, s), handle)
                want = oracle.open(s, twin)
                assert [id(h) for h in got] == twins_of(twins, want)
                opened += 1
            elif roll < 0.45:
                replica = ProcessId(rng.randrange(n), 0)
                s = rng.randint(1, seq + 2)
                assert tally.ack(mid(0, s, other_view), replica) == []
            elif opened:
                replica = ProcessId(rng.randrange(n), 0)
                top = seqnos[opened - 1]
                if rng.random() < 0.15:
                    s = rng.randint(1, top)  # a stale or reordered ack
                else:
                    s = rng.randint(min(acked[replica] + 1, top), top)
                acked[replica] = max(acked[replica], s)
                got = tally.ack(mid(0, s), replica)
                want = oracle.ack(s, replica, True)
                assert [id(h) for h in got] == twins_of(twins, want)
        for handle, twin in twins:
            assert (handle.status, handle.ackers, handle.acked_votes) == (
                twin.status, twin.ackers, twin.acked_votes
            )
        assert len(tally) == sum(1 for _h, t in twins if t.status == "pending")
        assert_one_prefix_per_site(tally)
