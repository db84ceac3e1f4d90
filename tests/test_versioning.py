"""Unit tests for the shared op-log versioning helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

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


def mid(site: int, seq: int) -> MessageId:
    return MessageId(ProcessId(site, 0), ViewId(1, ProcessId(0, 0)), seq)


def test_tally_commits_on_majority() -> None:
    tally = QuorumTally({0: 1, 1: 1, 2: 1})
    handle = Handle()
    me = ProcessId(0, 0)
    assert tally.open(mid(0, 1), handle, me) is None
    assert tally.ack(mid(0, 1), ProcessId(0, 0), me) is None
    committed = tally.ack(mid(0, 1), ProcessId(1, 0), me)
    assert committed is handle and handle.status == "committed"
    # A late ack for the committed op is dropped, not re-counted.
    assert tally.ack(mid(0, 1), ProcessId(2, 0), me) is None


def test_tally_ignores_duplicate_acks_from_one_replica() -> None:
    tally = QuorumTally({0: 1, 1: 1, 2: 1})
    handle = Handle()
    me = ProcessId(0, 0)
    tally.open(mid(0, 1), handle, me)
    assert tally.ack(mid(0, 1), ProcessId(1, 0), me) is None
    assert tally.ack(mid(0, 1), ProcessId(1, 0), me) is None
    assert handle.acked_votes == 1 and handle.status == "pending"


def test_tally_parks_early_self_acks() -> None:
    # Self-delivery is synchronous inside multicast: the ack can arrive
    # before open() registers the handle.
    tally = QuorumTally({0: 1})
    me = ProcessId(0, 0)
    assert tally.ack(mid(0, 1), me, me) is None  # parked, we sent it
    handle = Handle()
    committed = tally.open(mid(0, 1), handle, me)  # single-site quorum
    assert committed is handle and handle.status == "committed"


def test_late_acks_leave_no_residue() -> None:
    """n=5: three acks commit a put, the other two arrive afterwards.
    They are late, not early — nothing may stay parked behind them."""
    tally = QuorumTally({site: 1 for site in range(5)})
    me = ProcessId(0, 0)
    for seq in range(1, 201):
        handle = Handle()
        assert tally.ack(mid(0, seq), me, me) is None  # early self-ack
        tally.open(mid(0, seq), handle, me)
        for site in range(1, 5):
            tally.ack(mid(0, seq), ProcessId(site, 0), me)
        tally.ack(mid(0, seq), me, me)  # a late duplicate of our own
        assert handle.status == "committed" and len(handle.ackers) == 3
    assert len(tally) == 0
    assert tally._early == {}


def test_late_acks_leave_no_residue_in_a_running_store() -> None:
    cluster = Cluster(5, app_factory=app_factory("store", 5))
    assert cluster.settle(timeout=500)
    client = SimStoreClient(cluster, site=0, client_id="c")
    for i in range(200):
        assert client.put(f"k{i % 7}", i).ok
    cluster.run_for(50)
    assert cluster.app_at(0).puts_committed == 200
    for site in range(5):
        assert cluster.app_at(site)._tally._early == {}


def test_tally_drops_early_acks_for_foreign_messages() -> None:
    tally = QuorumTally({0: 1, 1: 1})
    me = ProcessId(0, 0)
    assert tally.ack(mid(1, 1), ProcessId(1, 0), me) is None
    handle = Handle()
    assert tally.open(mid(1, 1), handle, me) is None  # nothing parked
    assert handle.acked_votes == 0


def test_tally_abort_all_flushes_pending_and_parked() -> None:
    tally = QuorumTally({0: 1, 1: 1, 2: 1})
    me = ProcessId(0, 0)
    h1, h2 = Handle(), Handle()
    tally.open(mid(0, 1), h1, me)
    tally.open(mid(0, 2), h2, me)
    aborted = tally.abort_all()
    assert set(map(id, aborted)) == {id(h1), id(h2)}
    assert h1.status == h2.status == "aborted"
    assert len(tally) == 0
