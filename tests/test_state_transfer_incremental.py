"""Incremental chunked state transfer: the announcement-first protocol
(TOffer -> TResume cursor -> ack-paced TChunks), version-range diffs,
resumable persisted cursors, and mixed-protocol interop.

Edge cases per the scaling issue: the empty diff, a single-chunk
stream, a requester crash mid-transfer that resumes from the persisted
cursor, and clusters mixing chunk-capable and legacy whole-blob peers.
"""

from __future__ import annotations

import random
import zlib
from functools import reduce

from repro.core.group_object import GroupObject
from repro.core.mode_functions import AlwaysFullModeFunction, QuorumModeFunction
from repro.core.modes import Mode
from repro.core.state_transfer import (
    IncrementalReceiver,
    IncrementalSender,
    TAck,
    TChunk,
    TOffer,
    TResume,
    op_digest,
)
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.sim.stable_storage import SiteStorage
from repro.types import MessageId, ProcessId, ViewId


class Obj(GroupObject):
    def __init__(self, fn, chunk_size=None, delta_log_cap=512):
        super().__init__(
            fn, transfer_chunk_size=chunk_size, delta_log_cap=delta_log_cap
        )
        self.data = {}

    def snapshot_state(self):
        return dict(self.data)

    def adopt_state(self, state):
        self.data = dict(state)

    def apply_op(self, sender, op, msg_id):
        self.data[op[0]] = op[1]

    def merge_app_states(self, offers):
        merged = {}
        for offer in sorted(offers, key=lambda o: (o.version, o.sender)):
            merged.update(offer.state)
        return merged


def _chunk_totals(cluster):
    """state_transfer_chunks_total by kind, over the whole run."""
    totals: dict[str, float] = {}
    for sample in cluster.metrics_snapshot().samples:
        if sample.name == "state_transfer_chunks_total":
            kind = sample.label_dict().get("kind", "")
            totals[kind] = totals.get(kind, 0.0) + sample.value
    return totals


def _run_heal_scenario(app_factory, n_ops, seed=3):
    """n=5 quorum: isolate the settlement leader, advance the majority,
    heal — the leader must fetch the missed operations remotely."""
    cluster = Cluster(
        5, app_factory=app_factory, config=ClusterConfig(seed=seed)
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(100)
    cluster.partition([[1, 2, 3, 4], [0]])
    assert cluster.settle(timeout=500)
    cluster.run_for(100)
    writer = cluster.apps[1]
    assert writer.mode is Mode.NORMAL
    for i in range(n_ops):
        writer.submit_op((f"k{i}", i))
        cluster.run_for(10)
    cluster.heal()
    assert cluster.settle(timeout=500)
    cluster.run_for(300)
    states = [cluster.apps[site].data for site in range(5)]
    assert all(a.mode is Mode.NORMAL for a in cluster.apps.values())
    assert all(s == states[0] for s in states)
    assert len(states[0]) == n_ops
    return cluster


def test_empty_diff_streams_zero_chunks():
    """Bootstrap creation: every responder's lineage equals the
    leader's (version 0, digest 0), so each offer is an empty diff —
    the cursor-at-end reply completes without a single TChunk."""
    cluster = Cluster(
        3,
        app_factory=lambda pid: Obj(AlwaysFullModeFunction(), chunk_size=4),
        config=ClusterConfig(seed=1),
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(200)
    assert all(a.mode is Mode.NORMAL for a in cluster.apps.values())
    leader = cluster.apps[0]
    assert leader.settlement.stats.sessions_completed >= 1
    assert _chunk_totals(cluster) == {}


def test_diff_transfer_fits_single_chunk():
    """Two missed operations with chunk size 4: the whole diff rides in
    one chunk, finishing the donor on the very first ack."""
    cluster = _run_heal_scenario(
        lambda pid: Obj(QuorumModeFunction.uniform(range(5)), chunk_size=4),
        n_ops=2,
    )
    totals = _chunk_totals(cluster)
    assert totals.get("diff", 0) >= 1
    assert totals.get("snapshot", 0) == 0


def test_trimmed_delta_log_falls_back_to_snapshot_chunks():
    """A delta log shorter than the version gap cannot prove lineage:
    the donor streams a chunked snapshot instead of a diff."""
    cluster = _run_heal_scenario(
        lambda pid: Obj(
            QuorumModeFunction.uniform(range(5)), chunk_size=2, delta_log_cap=2
        ),
        n_ops=6,
    )
    totals = _chunk_totals(cluster)
    assert totals.get("snapshot", 0) >= 1
    assert totals.get("diff", 0) == 0


def test_legacy_requester_with_chunked_donors_gets_whole_blob():
    """accepts_chunks=False (the old request shape) makes every donor
    answer with the legacy single-message StateOffer."""
    cluster = _run_heal_scenario(
        lambda pid: Obj(
            QuorumModeFunction.uniform(range(5)),
            chunk_size=None if pid.site == 0 else 4,
        ),
        n_ops=3,
    )
    assert _chunk_totals(cluster) == {}


def test_chunked_requester_with_legacy_donors_gets_whole_blob():
    """A chunk-capable requester advertising accepts_chunks to donors
    that predate chunking still converges on the whole-blob path."""
    cluster = _run_heal_scenario(
        lambda pid: Obj(
            QuorumModeFunction.uniform(range(5)),
            chunk_size=4 if pid.site == 0 else None,
        ),
        n_ops=3,
    )
    assert _chunk_totals(cluster) == {}


# -- protocol units: cursor persistence across a receiver crash -------------


class _FakeStack:
    """Just enough stack surface for the transfer endpoints: identity,
    stable storage, direct sends and the (absent) obs hooks."""

    def __init__(self, pid, storage):
        self.pid = pid
        self.storage = storage
        self.obs = None
        self.now = 0.0
        self.sent: list[tuple[ProcessId, object]] = []

    def send_direct(self, dst, payload):
        self.sent.append((dst, payload))


def _pump(donor_stack, sender, receiver, donor_pid, rx_stack):
    """Deliver queued messages between the two fake stacks until idle."""
    moved = True
    while moved:
        moved = False
        while donor_stack.sent:
            _, payload = donor_stack.sent.pop(0)
            moved = True
            if isinstance(payload, TOffer):
                receiver.on_offer(donor_pid, payload)
            elif isinstance(payload, TChunk):
                receiver.on_chunk(donor_pid, payload)
        while rx_stack.sent:
            _, payload = rx_stack.sent.pop(0)
            moved = True
            if isinstance(payload, TResume):
                sender.on_resume(payload)
            elif isinstance(payload, TAck):
                sender.on_ack(payload)


def test_receiver_crash_mid_transfer_resumes_from_persisted_cursor():
    donor_pid, rx_pid = ProcessId(1), ProcessId(0)
    donor = _FakeStack(donor_pid, SiteStorage(1))
    storage = SiteStorage(0)  # survives the simulated crash
    chunks = [("ops", (1,)), ("ops", (2,)), ("ops", (3,))]

    def offer_of(tid):
        return TOffer(
            transfer=tid,
            session=("s", 1),
            kind="snapshot",
            total_chunks=len(chunks),
            base_version=-1,
            target_version=3,
            sender=donor_pid,
            last_epoch=1,
        )

    completed: list[tuple[TOffer, list]] = []
    rx_stack = _FakeStack(rx_pid, storage)
    receiver = IncrementalReceiver(rx_stack, lambda o, p: completed.append((o, p)))
    sender = IncrementalSender(donor, rx_pid, offer_of, chunks)
    sender.start()

    # Walk the stream two chunks in, then "crash" the receiver.
    _, offer = donor.sent.pop(0)
    receiver.on_offer(donor_pid, offer)
    _, resume = rx_stack.sent.pop(0)
    assert resume == TResume(offer.transfer, 0)
    sender.on_resume(resume)
    _, chunk0 = donor.sent.pop(0)
    receiver.on_chunk(donor_pid, chunk0)
    _, ack0 = rx_stack.sent.pop(0)
    sender.on_ack(ack0)  # paces chunk 1 out
    _, chunk1 = donor.sent.pop(0)
    receiver.on_chunk(donor_pid, chunk1)
    rx_stack.sent.pop(0)  # ack of chunk 1, dropped with the crash
    assert storage.read("transfer.partial.1")["next"] == 2
    assert not completed

    # Next incarnation: fresh endpoints over the same stable storage.
    # The donor re-answers the restarted session with an equal stream
    # (same kind / target version / chunk count, a new transfer id).
    donor2 = _FakeStack(donor_pid, SiteStorage(1))
    rx_stack2 = _FakeStack(rx_pid, storage)
    receiver2 = IncrementalReceiver(
        rx_stack2, lambda o, p: completed.append((o, p))
    )
    sender2 = IncrementalSender(donor2, rx_pid, offer_of, chunks)
    sender2.start()
    _, offer2 = donor2.sent[0]
    donor2.sent.clear()
    receiver2.on_offer(donor_pid, offer2)
    _, resume2 = rx_stack2.sent[0]
    assert resume2 == TResume(offer2.transfer, 2)  # persisted cursor
    rx_stack2.sent.clear()
    sender2.on_resume(resume2)
    _pump(donor2, sender2, receiver2, donor_pid, rx_stack2)

    assert len(completed) == 1
    done_offer, payloads = completed[0]
    assert done_offer.transfer == offer2.transfer
    assert payloads == chunks
    assert sender2.done
    assert storage.read("transfer.partial.1") is None  # cursor cleared


def test_mismatched_reoffer_discards_the_partial():
    donor_pid, rx_pid = ProcessId(1), ProcessId(0)
    storage = SiteStorage(0)
    storage.write(
        "transfer.partial.1",
        {
            "kind": "snapshot",
            "target_version": 3,
            "total": 3,
            "next": 2,
            "chunks": {0: ("ops", (1,)), 1: ("ops", (2,))},
        },
    )
    rx_stack = _FakeStack(rx_pid, storage)
    receiver = IncrementalReceiver(rx_stack, lambda o, p: None)
    # The donor moved on: a higher target version must restart at 0.
    offer = TOffer(
        transfer=(donor_pid, 99),
        session=("s", 2),
        kind="snapshot",
        total_chunks=4,
        base_version=-1,
        target_version=4,
        sender=donor_pid,
        last_epoch=1,
    )
    receiver.on_offer(donor_pid, offer)
    _, resume = rx_stack.sent[0]
    assert resume == TResume(offer.transfer, 0)


# ---------------------------------------------------------------------------
# The lineage digest
# ---------------------------------------------------------------------------


def _ids(n: int, seed: int = 11) -> list[MessageId]:
    rng = random.Random(seed)
    return [
        MessageId(
            ProcessId(rng.randrange(16), rng.randrange(3)),
            ViewId(rng.randrange(1, 40), ProcessId(rng.randrange(16), 0)),
            seqno,
        )
        for seqno in range(1, n + 1)
    ]


def test_op_digest_is_crc32_of_repr_fresh_and_remembered():
    """Realnet processes must agree on the value, so it is pinned to its
    definition: on first use of an identifier, on reuse of that object,
    and on an equal identifier built elsewhere (another process's copy)."""
    for msg_id in _ids(50):
        expected = zlib.crc32(repr(msg_id).encode())
        assert op_digest(0, msg_id) == expected  # fresh
        assert op_digest(0, msg_id) == expected  # remembered
        assert op_digest(0xABCD, msg_id) == 0xABCD ^ expected
        twin = MessageId(msg_id.sender, msg_id.view, msg_id.seqno)
        assert op_digest(0, twin) == expected
        assert twin == msg_id and hash(twin) == hash(msg_id)
        assert repr(twin) == repr(msg_id)  # the memo is not a field
    # Anything with a repr folds in, not only MessageId.
    assert op_digest(7, ("legacy", 3)) == 7 ^ zlib.crc32(repr(("legacy", 3)).encode())


def test_op_digest_is_order_independent_and_reversible():
    ids = _ids(40)
    forward = reduce(op_digest, ids, 0)
    shuffled = list(ids)
    random.Random(5).shuffle(shuffled)
    assert reduce(op_digest, shuffled, 0) == forward
    # A donor recovers the digest at an older version by folding its own
    # log tail back out.
    older = reduce(op_digest, ids[:25], 0)
    assert reduce(op_digest, ids[25:], forward) == older
    assert op_digest(op_digest(forward, ids[0]), ids[0]) == forward
