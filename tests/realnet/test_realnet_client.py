"""Realnet client tier: TCP store clients, frame hardening, load smoke."""

from __future__ import annotations

import asyncio

import pytest

from repro.apps.factories import app_factory
from repro.apps.versioned_store import prov_tuple
from repro.client.client import AsyncStoreClient
from repro.client.protocol import (
    ClientReply,
    ClientRequest,
    client_reply_frame,
    client_request_frame,
    parse_client_reply,
    parse_client_request,
)
from repro.obs.watch import fetch_snapshots
from repro.realnet import transport
from repro.realnet.cluster import RealCluster
from repro.runtime.core import ClusterConfig
from repro.realnet.codec import _LEN, decode_frame_body, encode_frame
from repro.realnet.codec_bin import BIN_FORMAT, WIRE_FORMATS, schema_fingerprint

pytestmark = pytest.mark.realnet

HARD_TIMEOUT = 60.0
SETTLE = 20.0


def run(coro) -> None:
    asyncio.run(asyncio.wait_for(coro, HARD_TIMEOUT))


def store_config(seed: int) -> ClusterConfig:
    return ClusterConfig(seed=seed)


def test_tcp_client_put_get_history_ryw():
    async def scenario():
        factory = app_factory("store", 3)
        async with RealCluster(3, app_factory=factory, config=store_config(11)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            book = dict(cluster.address_book)
            client = AsyncStoreClient(addresses=book, site=0, client_id="alice")
            await client.connect()
            try:
                assert (await client.ping()).status == "ok"
                put = await client.put("k", "v1")
                assert put.status == "ok" and put.prov is not None
                # Read-your-writes from a different replica.
                other = AsyncStoreClient(addresses=book, site=2, client_id="bob")
                await other.connect()
                try:
                    got = await other.get("k", ryw=put.prov)
                    assert got.status == "ok" and got.value == "v1"
                finally:
                    await other.close()
                await client.put("k", "v2")
                hist = await client.history("k")
                assert hist.status == "ok"
                assert [link[0] for link in hist.chain] == ["v1", "v2"]
            finally:
                await client.close()

    run(scenario())


def test_leader_read_follows_redirect():
    async def scenario():
        factory = app_factory("store", 3)
        async with RealCluster(3, app_factory=factory, config=store_config(12)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            client = AsyncStoreClient(
                addresses=dict(cluster.address_book),
                site=2,  # not the leader: least member serves leader reads
                client_id="lr",
                read_mode="leader",
            )
            await client.connect()
            try:
                put = await client.put("k", "v")
                assert put.status == "ok"
                got = await client.get("k")
                assert got.status == "ok" and got.value == "v"
                # The redirect moved the connection to the leader.
                assert client._connected_site == 0
            finally:
                await client.close()

    run(scenario())


def test_garbage_frame_is_dropped_and_link_survives():
    """A malformed body on the node socket must cost one frame, not the
    connection: the server logs, bumps ``bad_frames`` and keeps serving
    the same link."""

    async def scenario():
        factory = app_factory("store", 3)
        async with RealCluster(3, app_factory=factory, config=store_config(13)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            host, port = cluster.address_book[0]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    encode_frame(
                        {
                            "k": "hello",
                            "src": [-1, 0],
                            "codecs": ["bin1"],
                            "schema": schema_fingerprint(),
                        }
                    )
                )
                await writer.drain()
                prefix = await reader.readexactly(_LEN.size)
                welcome = decode_frame_body(
                    await reader.readexactly(_LEN.unpack(prefix)[0])
                )
                fmt = WIRE_FORMATS[welcome["codec"]]
                assert fmt.binary
                # A well-framed msg-kind body with a truncated header:
                # the codec raises, the server drops the frame, the link
                # lives.
                junk = b"\x01\xfe\xfe\xfe"
                writer.write(_LEN.pack(len(junk)) + junk)
                # Same connection, next frame: a valid ping must answer.
                writer.write(client_request_frame(fmt, ClientRequest(7, "ping")))
                await writer.drain()
                prefix = await reader.readexactly(_LEN.size)
                reply = parse_client_reply(
                    fmt, await reader.readexactly(_LEN.unpack(prefix)[0])
                )
                assert reply is not None
                assert reply.req_id == 7 and reply.status == "ok"
            finally:
                writer.close()
                await writer.wait_closed()
            assert cluster.transport_stats()["bad_frames"] >= 1

    run(scenario())


class StubNode:
    """A loopback listener speaking just enough of the node socket.

    Each accepted connection plays the next scripted behaviour (the last
    one repeats): ``"wedged"`` accepts and never writes; ``"garbage"``
    welcomes, then answers every request with an undecodable ``cli``
    frame; ``"ok"`` welcomes and answers every request ``ok``.
    """

    def __init__(self, *script: str) -> None:
        self.script = script
        self.dials = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    @staticmethod
    async def _read(reader: asyncio.StreamReader) -> bytes:
        (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
        return await reader.readexactly(length)

    async def _serve(self, reader, writer) -> None:
        behaviour = self.script[min(self.dials, len(self.script) - 1)]
        self.dials += 1
        try:
            if behaviour == "wedged":
                await reader.read()  # until the dialer gives up
                return
            assert decode_frame_body(await self._read(reader))["k"] == "hello"
            writer.write(encode_frame({"k": "welcome", "codec": "bin1"}))
            while True:
                request = parse_client_request(BIN_FORMAT, await self._read(reader))
                if behaviour == "garbage":
                    writer.write(_LEN.pack(3) + b"\x04\xff\xff")
                else:
                    writer.write(
                        client_reply_frame(BIN_FORMAT, ClientReply(request.req_id, "ok"))
                    )
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


def test_garbled_reply_is_connection_loss_not_an_error():
    """A reply frame that does not decode means nobody can trust this
    socket any more: the operation must redial and resubmit, and the
    client must not be left writing into a connection nobody reads."""

    async def scenario():
        node = StubNode("garbage", "ok")
        client = AsyncStoreClient(
            await node.start(), client_id="c", retry_delay=0.05, reply_timeout=5.0
        )
        try:
            reply = await asyncio.wait_for(client.ping(), 4.0)
            assert reply.status == "ok"
            assert node.dials == 2
            # ... and later calls ride the fresh connection, promptly.
            assert (await asyncio.wait_for(client.ping(), 1.0)).status == "ok"
            assert node.dials == 2
        finally:
            await client.close()
            await node.stop()

    run(scenario())


def test_a_node_that_accepts_but_never_welcomes_is_a_failed_dial(monkeypatch):
    """A wedged process still completes the kernel accept; every outside
    dialer must give the hello up after WELCOME_TIMEOUT: the store
    client moves to the next site, the obs poller skips the node."""
    monkeypatch.setattr(transport, "WELCOME_TIMEOUT", 0.3)

    async def scenario():
        wedged, good = StubNode("wedged"), StubNode("ok")
        book = {0: await wedged.start(), 1: await good.start()}
        client = AsyncStoreClient(addresses=book, site=0, retry_delay=0.1)
        loop = asyncio.get_running_loop()
        try:
            start = loop.time()
            reply = await asyncio.wait_for(client.ping(), 5.0)
            elapsed = loop.time() - start
            assert reply.status == "ok" and client._connected_site == 1
            assert elapsed < 0.3 + 0.1 + 1.0  # WELCOME_TIMEOUT + retry_delay + slack
            skips: list[int] = []
            start = loop.time()
            snapshots = await asyncio.wait_for(
                fetch_snapshots(
                    [book[0]], timeout=30.0, on_skip=lambda: skips.append(1)
                ),
                5.0,
            )
            assert snapshots == [None] and skips == [1]
            assert loop.time() - start < 0.3 + 1.0
        finally:
            await client.close()
            await wedged.stop()
            await good.stop()

    run(scenario())


def test_divergent_partition_writes_survive_merge_realnet():
    """Satellite property on the real wire: writes acked in disjoint
    partitions all survive the heal with their provenance."""

    async def scenario():
        factory = app_factory("store", 5)
        async with RealCluster(5, app_factory=factory, config=store_config(14)) as cluster:
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            book = dict(cluster.address_book)
            cluster.partition([[0, 1, 2], [3, 4]])
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            maj = AsyncStoreClient(addresses=book, site=0, client_id="maj")
            mino = AsyncStoreClient(addresses=book, site=3, client_id="min")
            await maj.connect()
            await mino.connect()
            acked: dict[tuple, tuple[str, str]] = {}
            try:
                for i in range(3):
                    put = await maj.put(f"s{i % 2}", f"maj{i}")
                    if put.status == "ok":
                        acked[put.prov] = (f"s{i % 2}", f"maj{i}")
                    put = await mino.put(f"s{i % 2}", f"min{i}")
                    if put.status == "ok":
                        acked[put.prov] = (f"s{i % 2}", f"min{i}")
            finally:
                await maj.close()
                await mino.close()
            assert acked, "no write acked in either partition"
            cluster.heal()
            assert await cluster.settle(timeout=SETTLE), cluster.views()
            await asyncio.sleep(1.0)  # let the settlement decision fan out
            for site in range(5):
                app = cluster.app_at(site)
                for prov, (key, value) in acked.items():
                    chain = app.chains.get(key, ())
                    match = [e for e in chain if prov_tuple(e.prov) == prov]
                    assert match and match[0].value == value, (
                        f"site {site} lost acked write {prov} on {key!r}"
                    )

    run(scenario())


def test_open_loop_load_with_partition_heal_no_acked_loss():
    """Client-smoke shape: short open-loop load with a mid-run
    partition/heal; zero property violations, parseable SLO metrics."""
    from repro.apps.factories import app_factory as _factory
    from repro.net.faults import FaultSchedule, Heal, Partition
    from repro.ports import make_cluster
    from repro.workload.openloop import LoadSpec
    from repro.workload.runner import run_client_load

    cluster = make_cluster(
        "realnet", 5, app_factory=_factory("store", 5), seed=15
    )
    try:
        scale = cluster.time_scale
        schedule = FaultSchedule()
        schedule.add(Partition(60.0, ((0, 1, 2), (3, 4))))
        schedule.add(Heal(160.0))
        spec = LoadSpec(
            rate=60.0,
            duration=250.0 * scale,
            clients=6,
            n_keys=64,
            read_fraction=0.7,
            seed=15,
        )
        result = run_client_load(cluster, spec, schedule, slo_p99=500.0)
        assert result.load.completed > 0
        assert not result.workload.violations, result.workload.violations
        assert result.verdict.count > 0  # histograms populated
        names = {r.name for r in result.workload.reports}
        assert "AckedWriteLoss" in names
    finally:
        cluster.close()

    assert result.ok


def test_concurrent_writers_leave_one_chain_order_realnet():
    """The store's hot-key reproducer over real sockets: every replica
    ends with one chain order and one head."""
    from tests.scenario_checks import hot_key_chains

    chains, report, _tokens = hot_key_chains("realnet")
    assert chains[0], "no put landed"
    assert all(chain == chains[0] for chain in chains)
    assert chains[0] == sorted(chains[0])
    assert report.checked == 1 and report.ok, report.violations


def test_burst_writers_leave_one_chain_order_and_distinct_tokens_realnet():
    """The hot-key reproducer with each site's puts of a round arriving
    as one input batch, so they leave as one group-commit multicast:
    the replicas still end with one chain order, and no two committed
    puts share a token."""
    from tests.scenario_checks import hot_key_chains

    chains, report, tokens = hot_key_chains("realnet", burst=4)
    assert tokens, "no put committed"
    assert len(set(tokens)) == len(tokens)
    assert all(chain == chains[0] for chain in chains)
    assert chains[0] == sorted(chains[0])
    assert set(tokens) <= set(chains[0])
    assert report.checked == 1 and report.ok, report.violations
