"""Group commit: the puts of one input batch share one multicast.

On the wall clock an input batch is one read of the node socket: the
``cli`` frames of a read open it (``RealNetwork._on_side``), the frame
server's ``on_read_end`` closes it, and the store multicasts the read's
puts then, as one op with one provenance per put.  The first cases
drive a node's receive path over a fake transport, with the store bound
to a one-node stand-in stack; the rest open batches by hand on a
simulated cluster, which the simulator itself never does.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

import repro.apps.versioned_store as vs_mod
from repro.apps.factories import app_factory
from repro.apps.versioned_store import VersionedStore, _StoreAck, prov_tuple
from repro.client.protocol import (
    ClientRequest,
    client_request_frame,
    parse_client_reply,
)
from repro.client.service import StoreService
from repro.core.group_object import _OpMsg
from repro.core.modes import Mode
from repro.core.versioning import Provenance, QuorumTally
from repro.realnet.codec import MAX_FRAME_BYTES
from repro.realnet.codec_bin import BIN_FORMAT, FORMAT_BIN
from repro.realnet.network import RealNetwork
from repro.realnet.transport import FrameServer
from repro.realnet.wallclock import WallClockScheduler
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.sim.process import Process
from repro.sim.stable_storage import SiteStorage
from repro.types import Message, MessageId, ProcessId, ViewId
from tests.scenario_checks import hot_key_chains
from tests.test_frame_server import FakeTransport, hello

FMT = BIN_FORMAT
VIEW = ViewId(3, ProcessId(0, 0))
MEMBERS = frozenset(ProcessId(site, 0) for site in range(5))
#: The writer's ack successors: in a ring of five, sites 1 and 2.  Their
#: acks leave at once and, with the writer's own vote, are the quorum.
SUCCESSORS = list(
    QuorumTally({m.site: 1 for m in MEMBERS}).ack_successors(MEMBERS)[ProcessId(0, 0)]
)


class StoreNode(Process):
    """A registered process standing in for a five-member view's stack:
    its multicasts are recorded and delivered to itself only, and the
    other replicas' acks are handed in by the test."""

    def __init__(self, pid: ProcessId) -> None:
        super().__init__(pid, WallClockScheduler(), SiteStorage(pid.site))
        self.view = SimpleNamespace(view_id=VIEW)
        self.sent: list[Message] = []
        self.store = VersionedStore(audit_trace=False)
        self.store.stack = self
        self.store.automaton.mode = Mode.NORMAL
        self.store.fresh = True
        self.store._tally = QuorumTally({s: 1 for s in range(5)}, VIEW)

    def multicast(self, payload, trace=None) -> MessageId:
        msg = Message(MessageId(self.pid, VIEW, len(self.sent) + 1), payload)
        self.sent.append(msg)
        self.store.on_message(self.pid, payload, msg.msg_id)
        return msg.msg_id

    def ack_from(self, replicas: list[ProcessId], msg_id: MessageId) -> None:
        for replica in replicas:
            self.store.on_app_direct(replica, _StoreAck(msg_id))


def run(scenario) -> None:
    asyncio.run(asyncio.wait_for(scenario(), 5))


def node_behind_a_connection() -> tuple[StoreNode, FakeTransport, object]:
    network = RealNetwork(WallClockScheduler(), 0, {})
    node = StoreNode(ProcessId(0, 0))
    network.register(node)
    network.side_handlers["cli"] = StoreService(node.store).handle_control
    server = FrameServer(
        "", 0, network._on_msg,
        on_side=network._on_side, on_read_end=network._end_input_batch,
    )
    conn = server._connection()
    transport = FakeTransport()
    conn.connection_made(transport)
    conn.data_received(hello())
    transport.writes.clear()  # the welcome
    return node, transport, conn


def put_frame(req_id: int, key, value, client: str = "c", seq: int = 0) -> bytes:
    request = ClientRequest(
        req_id, "put", key=key, value=value, client=client, client_seq=seq or req_id
    )
    return client_request_frame(FMT, request)


def replies(transport: FakeTransport) -> list:
    return [parse_client_reply(FMT, frame[4:]) for frame in transport.writes]


def test_k_puts_in_one_read_are_one_multicast_committed_by_one_ack_per_replica():
    async def scenario():
        node, transport, conn = node_behind_a_connection()
        conn.data_received(b"".join(put_frame(i, f"k{i}", i) for i in range(1, 6)))
        assert not node.input_batch
        (msg,) = node.sent
        kind, skew, puts = msg.payload.op
        assert (kind, skew) == ("puts", 0)
        assert [put[0] for put in puts] == [f"k{i}" for i in range(1, 6)]
        provs = [node.store.chains[f"k{i}"][0].prov for i in range(1, 6)]
        assert provs == [Provenance(3, node.pid, seq) for seq in range(1, 6)]
        assert transport.writes == []  # nothing commits on our vote alone
        # One cumulative ack from each of the two successors is the quorum.
        node.ack_from(SUCCESSORS, msg.msg_id)
        got = replies(transport)
        assert [r.req_id for r in got] == [1, 2, 3, 4, 5]
        assert [r.status for r in got] == ["ok"] * 5
        assert [r.prov for r in got] == [prov_tuple(p) for p in provs]
        assert node.store.put_multicasts == 1
        assert node.store.puts_committed == 5

    run(scenario)


def test_one_put_in_a_read_sends_the_plain_put_op():
    async def scenario():
        node, transport, conn = node_behind_a_connection()
        conn.data_received(put_frame(1, "k", "v", client="c", seq=7))
        (msg,) = node.sent
        plain = Message(msg.msg_id, _OpMsg(("put", "k", "v", "c", 7)))
        assert msg == plain
        assert FMT.encode_payload(msg) == FMT.encode_payload(plain)
        node.ack_from(SUCCESSORS, msg.msg_id)
        (reply,) = replies(transport)
        assert reply.prov == (3, 0, 0, msg.msg_id.seqno)

    run(scenario)


def test_a_read_of_many_large_puts_is_cut_into_several_multicasts():
    assert vs_mod._MULTICAST_BYTES * 8 <= MAX_FRAME_BYTES
    big = "x" * (600 * 1024)  # three fit under the budget, four do not

    async def scenario():
        node, transport, conn = node_behind_a_connection()
        conn.data_received(b"".join(put_frame(i, f"k{i}", big) for i in range(1, 8)))
        assert [len(m.payload.op[2]) for m in node.sent] == [3, 3, 1]
        assert [m.payload.op[1] for m in node.sent] == [0, 2, 4]
        for msg in node.sent:
            frame = FMT.frame_msg((0, 0), 1, 0, FMT.encode_payload(msg))
            assert len(frame) < MAX_FRAME_BYTES // 4
        node.ack_from(SUCCESSORS, node.sent[-1].msg_id)
        got = replies(transport)
        assert [r.status for r in got] == ["ok"] * 7
        tokens = [r.prov for r in got]
        assert len(set(tokens)) == 7
        assert [t[3] for t in tokens] == list(range(1, 8))

    run(scenario)


# ---------------------------------------------------------------------------
# The skew rule and view changes, on a simulated cluster
# ---------------------------------------------------------------------------


def store_cluster(n: int = 5) -> Cluster:
    cluster = Cluster(n, app_factory=app_factory("store", n), config=ClusterConfig(seed=3))
    assert cluster.settle(timeout=500)
    cluster.run_for(50)
    return cluster


def in_one_batch(store, *puts):
    """Hand ``store`` these ``(key, value, client, client_seq)`` puts as
    one input batch, the way one socket read of client requests does."""
    stack = store.stack
    stack.input_batch = True
    handles = [store.put(k, v, client=c, client_seq=s) for k, v, c, s in puts]
    stack.end_input_batch()
    return handles


def record_ops(store) -> list:
    ops: list = []
    submit = store.submit_op

    def recording(op, trace=None):
        ops.append(op)
        return submit(op, trace)

    store.submit_op = recording
    return ops


def test_a_put_after_a_batch_carries_the_skew_and_takes_the_next_seq():
    cluster = store_cluster()
    store = cluster.app_at(0)
    ops = record_ops(store)
    batch = in_one_batch(store, ("a", 1, "c", 1), ("b", 2, "c", 2), ("c", 3, "c", 3))
    single = store.put("d", 4, client="c", client_seq=4)
    cluster.run_for(50)
    assert [op[:2] for op in ops] == [("puts", 0), ("puts", 2)]
    assert single.msg_id.seqno == batch[0].msg_id.seqno + 1
    seqs = [h.token.seq for h in (*batch, single)]
    assert seqs == list(range(seqs[0], seqs[0] + 4))
    assert all(h.status == "committed" for h in (*batch, single))
    assert store.put_multicasts == 2
    assert cluster.metrics.value("store_put_multicasts_total") == 2
    for site in range(5):
        chains = cluster.app_at(site).chains
        assert [chains[k][-1].prov for k in "abcd"] == [h.token for h in (*batch, single)]


def test_a_batch_commits_on_its_successors_acks_and_the_others_owe_theirs():
    cluster = store_cluster()
    store = cluster.app_at(0)
    batch = in_one_batch(store, ("a", 1, "c", 1), ("b", 2, "c", 2), ("c", 3, "c", 3))
    # Just past one link latency out and one back: the successors' acks
    # commit it, wherever the other replicas' beat ticks fall.
    cluster.run_for(2.5)
    assert all(h.status == "committed" for h in batch)
    assert {p.site for p in batch[0].ackers} >= {0, 1, 2}
    lazy = [store.pid in cluster.app_at(site)._lazy_writers for site in range(1, 5)]
    assert lazy == [False, False, True, True]


def test_a_skewed_put_during_a_view_change_aborts_and_its_retry_lands_once():
    cluster = store_cluster()
    skewed, plain = cluster.app_at(0), cluster.app_at(1)
    in_one_batch(skewed, ("a", 1, "c", 1), ("b", 2, "c", 2))
    cluster.run_for(50)
    for store in (skewed, plain):
        store.stack.channels.suspend()
    late = skewed.put("k", "late", client="c", client_seq=3)
    assert late.status == "aborted"
    # A put with no skew follows the same rule: it is dropped.
    dropped = plain.put("p", "plain", client="q", client_seq=1)
    assert dropped.status == "aborted"
    cluster.crash(4)
    assert cluster.settle(timeout=500)
    cluster.run_for(50)
    assert skewed.put_multicasts == 1
    assert all("p" not in cluster.app_at(site).chains for site in range(4))
    # The retries in the next view each land once, fresh.
    (retry,) = in_one_batch(skewed, ("k", "late", "c", 3))
    again = plain.put("p", "plain", client="q", client_seq=1)
    cluster.run_for(50)
    assert retry.status == "committed" and again.status == "committed"
    assert again.msg_id is not None
    for site in range(4):
        chains = cluster.app_at(site).chains
        assert [e.prov for e in chains["k"]] == [retry.token]
        assert [e.prov for e in chains["p"]] == [again.token]
    assert skewed.put("k", "late", client="c", client_seq=3).token == retry.token


@pytest.mark.parametrize("fmt", (FMT,), ids=[FORMAT_BIN])
def test_the_batched_op_round_trips_on_the_wire(fmt):
    msg = Message(
        MessageId(ProcessId(2, 1), VIEW, 9),
        _OpMsg(("puts", 4, (("k", "v", "c", 1), (("t", 1), {"x": 2.5}, "", 0)))),
        eview_seq=3,
    )
    frame = fmt.frame_msg((2, 1), 0, 0, fmt.encode_payload(msg))
    assert fmt.parse_msg(frame[4:]).payload() == msg


def test_burst_writers_leave_one_chain_order_and_distinct_tokens():
    chains, report, tokens = hot_key_chains("sim", burst=3)
    assert len(tokens) == 300 and len(set(tokens)) == 300
    assert all(chain == chains[0] for chain in chains)
    assert chains[0] == sorted(chains[0]) and set(chains[0]) == set(tokens)
    assert report.checked == 1 and report.ok, report.violations
