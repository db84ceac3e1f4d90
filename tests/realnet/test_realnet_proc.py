"""Multi-process cluster driver: one OS process per site over real TCP.

These scenarios spawn real ``python -m repro realnet node --supervised``
child processes (the :class:`~repro.realnet.proc_driver.ProcCluster`
adapter) and drive them through the blocking
:class:`~repro.ports.ClusterPort` facade, so they live in
the ``realnet`` lane.  Every blocking step carries its own timeout
(process startup, settle polls, control-channel requests), so a wedged
cluster fails the test instead of hanging CI.

Wall time per scenario is dominated by child interpreter startup
(~0.5s per site); the settle budgets absorb loaded shared runners.
The control-client regression at the end talks to a loopback stub
instead of a real child.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.net.faults import Crash, FaultSchedule, Recover
from repro.ports import ClusterPort, make_cluster
from repro.realnet import proc_driver
from repro.realnet.codec import _LEN, decode_frame_body, encode_frame
from repro.realnet.codec_bin import BIN_FORMAT
from repro.realnet.transport import WELCOME
from repro.trace.checks import check_enriched_views, check_view_synchrony

pytestmark = pytest.mark.realnet

#: Budget for each individual settle inside a scenario.
SETTLE = 25.0


def proc_cluster(n_sites: int, **kwargs) -> ClusterPort:
    return make_cluster("realnet-proc", n_sites, **kwargs)


def assert_no_violations(cluster: ClusterPort) -> None:
    merged = cluster.gather_trace()
    assert len(merged) > 0
    reports = check_view_synchrony(merged) + check_enriched_views(merged)
    for report in reports:
        assert report.ok, f"{report.name}: {report.violations[:5]}"


def test_proc_cluster_boots_to_a_common_view():
    with contextlib.closing(proc_cluster(3, seed=1)) as cluster:
        assert isinstance(cluster, ClusterPort)
        assert cluster.settle(timeout=SETTLE), cluster.views()
        views = set(cluster.views().values())
        assert len(views) == 1
        assert len(cluster.live_pids()) == 3
        # Real frames crossed real sockets between real processes.
        stats = cluster.network_stats()
        assert stats.delivered > 0
        assert_no_violations(cluster)


def test_proc_cluster_fault_cycle_stays_view_synchronous():
    """crash -> recover -> partition -> heal across process boundaries,
    with application traffic in flight; the merged per-process trace
    passes every checker."""
    with contextlib.closing(proc_cluster(4, seed=3)) as cluster:
        assert cluster.settle(timeout=SETTLE), cluster.views()
        accepted = cluster.mcast_many(0, 4, ("client", 0, 0))
        assert accepted == 4

        cluster.crash(2)
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert len(cluster.live_pids()) == 3

        stack = cluster.recover(2)  # blocks until the fresh process rejoined
        assert stack.pid.incarnation == 1
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert stack.pid in cluster.live_pids()

        cluster.partition([(0, 1), (2, 3)])
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert len(set(cluster.views().values())) == 2
        cluster.mcast_many(3, 4, ("client", 3, 0))

        cluster.heal()
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert len(set(cluster.views().values())) == 1

        assert cluster.wait_until(
            lambda c: c.delivered_total() > 0, timeout=SETTLE
        )
        assert_no_violations(cluster)


def test_proc_cluster_armed_schedule_and_metrics():
    """FaultSchedule.arm drives the child processes on the wall clock,
    and metrics_snapshot merges per-process registries."""
    with contextlib.closing(proc_cluster(3, seed=5)) as cluster:
        assert cluster.settle(timeout=SETTLE), cluster.views()
        schedule = FaultSchedule()
        schedule.add(Crash(20.0, 1))
        schedule.add(Recover(120.0, 1))
        cluster.arm(schedule)
        assert cluster.wait_until(
            lambda c: not c.stack_at(1).alive, timeout=SETTLE
        )
        assert cluster.wait_until(
            lambda c: c.stack_at(1).alive, timeout=SETTLE
        )
        assert cluster.settle(timeout=SETTLE), cluster.views()
        cluster.mcast_many(0, 3, ("client", 0, 0))
        assert cluster.wait_until(
            lambda c: c.delivered_total() >= 9, timeout=SETTLE
        )
        snapshot = cluster.metrics_snapshot()
        assert snapshot.total("deliveries_total") >= 9
        assert_no_violations(cluster)


def test_proc_slo_verdict_counts_the_parents_own_latencies():
    """The open-loop generator records ``client_op_latency`` in the
    parent's registry, not in any child's: ``metrics_snapshot`` must
    merge it in or ``slo_verdict`` prices zero operations."""
    from repro.workload.openloop import LoadSpec, OpenLoopLoad, slo_verdict

    with contextlib.closing(proc_cluster(3, seed=6, app="store")) as cluster:
        assert cluster.settle(timeout=SETTLE), cluster.views()
        spec = LoadSpec(rate=40.0, duration=1.0, clients=2, n_keys=16, seed=6)
        report = OpenLoopLoad(cluster, spec).run()
        verdict = slo_verdict(cluster, target_p99=5.0)
        assert verdict.count == report.completed > 0
        # the children's stack metrics are still in the same snapshot
        assert cluster.metrics_snapshot().total("view_changes_total") > 0


def test_proc_cluster_join_grows_the_group():
    with contextlib.closing(proc_cluster(3, seed=2)) as cluster:
        assert cluster.settle(timeout=SETTLE), cluster.views()
        stack = cluster.join(3)
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert stack.pid in cluster.live_pids()
        assert len(cluster.live_pids()) == 4
        assert len(set(cluster.views().values())) == 1
        assert_no_violations(cluster)


def test_checked_workload_runs_over_processes():
    """The acceptance scenario: the figure-2 schedule plus a multicast
    client drives six OS processes through the port and the merged
    trace passes every view-synchrony check."""
    from repro.workload.clients import MulticastClient
    from repro.workload.runner import run_checked_workload
    from repro.workload.scenarios import figure2_scenario

    with contextlib.closing(proc_cluster(6, seed=11)) as cluster:
        report = run_checked_workload(
            cluster,
            figure2_scenario(),
            client_factories=[lambda c: MulticastClient(c, interval=20.0)],
        )
        assert report.settled, cluster.views()
        assert report.violations == [], report.violations[:5]
        assert report.events_checked > 0
        assert all(c.stats.succeeded > 0 for c in report.clients)
        assert cluster.network_stats().delivered > 0


def test_proc_runtime_app_at_is_unavailable():
    from repro.errors import SimulationError

    with contextlib.closing(proc_cluster(3, seed=6)) as cluster:
        assert cluster.settle(timeout=SETTLE)
        with pytest.raises(SimulationError, match="child process"):
            cluster.app_at(0)


def test_proc_cluster_under_the_gossip_failure_detector():
    """Every ClusterConfig knob reaches the children (they receive the
    config as one JSON argument): a 4-site cluster on the gossip plane
    at fanout 2 settles, detects a crash and re-admits the recovery."""
    with contextlib.closing(
        proc_cluster(4, seed=7, fd_mode="gossip", gossip_fanout=2)
    ) as cluster:
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert len(cluster.live_pids()) == 4
        assert cluster.network_stats().by_type.get("GossipDigest", 0) > 0
        assert cluster.network_stats().by_type.get("Heartbeat", 0) == 0

        cluster.crash(1)
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert len(cluster.live_pids()) == 3
        stack = cluster.recover(1)
        assert stack.pid.incarnation == 1
        assert cluster.settle(timeout=SETTLE), cluster.views()
        assert stack.pid in cluster.live_pids()
        assert len(set(cluster.views().values())) == 1
        assert_no_violations(cluster)


@pytest.mark.parametrize("runtime", ["realnet", "realnet-proc"])
def test_wait_until_runs_the_predicate_on_the_callers_thread(runtime):
    """One rule on both wall-clock runtimes (ClusterPort.wait_until):
    the predicate runs on the calling thread, so it may itself make
    blocking port calls — which the loop thread would have to refuse."""
    import threading

    caller = threading.current_thread()
    seen: set[threading.Thread] = set()

    def formed_and_talking(c: ClusterPort) -> bool:
        seen.add(threading.current_thread())
        return (
            c.settle(timeout=0.5)  # blocking
            and c.network_stats().delivered > 0  # blocking on realnet-proc
            and len(c.live_stacks()) == 3
        )

    with contextlib.closing(make_cluster(runtime, 3, seed=8)) as cluster:
        assert cluster.wait_until(formed_and_talking, timeout=SETTLE), cluster.views()
        assert seen == {caller}
        refused: list[Exception] = []
        done = threading.Event()

        def from_the_loop() -> None:
            try:
                cluster.wait_until(lambda c: True, timeout=1.0)
            except Exception as exc:  # noqa: BLE001 - asserted below
                refused.append(exc)
            done.set()

        cluster.after(0.0, from_the_loop)
        assert done.wait(SETTLE)
        assert len(refused) == 1 and "loop thread" in str(refused[0])


class SlowChild:
    """A loopback stand-in for a supervised child's control socket.

    Answers each ``ctl`` request ``(True, "<op>-result")`` in order on
    its connection, after ``delays[op]`` seconds (0 by default); never
    answers an ``obs`` poll.
    """

    def __init__(self, **delays: float) -> None:
        self.delays = delays
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
        self.dials += 1
        try:
            assert decode_frame_body(await self._read(reader))["k"] == "hello"
            writer.write(encode_frame(WELCOME))
            while True:
                body = await self._read(reader)
                kind, value = BIN_FORMAT.parse_side(body, 0, len(body))
                if kind != "ctl":
                    continue
                op = value[0]
                await asyncio.sleep(self.delays.get(op, 0.0))
                writer.write(
                    BIN_FORMAT.frame_side("ctl", (True, f"{op}-result"), reply=True)
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


def test_a_timed_out_control_op_leaves_no_stale_reply(monkeypatch):
    """The child's late answer to a timed-out op must not be taken for
    the answer to the next one: the timeout drops the connection and the
    next op dials afresh.  An obs poll the child never answers is
    bounded like a control op."""
    monkeypatch.setattr(proc_driver, "ACTION_TIMEOUT", 0.3)

    async def scenario():
        child = SlowChild(slow=0.5)
        host, port = await child.start()
        client = proc_driver._CtlClient("stub", host, port)
        try:
            with pytest.raises(asyncio.TimeoutError):
                await client.request("slow", timeout=0.1)
            assert await client.request("fast", timeout=2.0) == "fast-result"
            assert child.dials == 2
            with pytest.raises(asyncio.TimeoutError):
                await client.fetch_metrics()
            assert await client.request("fast", timeout=2.0) == "fast-result"
            assert child.dials == 3
        finally:
            await client.aclose()
            await child.stop()

    asyncio.run(asyncio.wait_for(scenario(), 10.0))


def test_a_proc_childs_registry_exports_the_wire_gauges():
    """Each child serves its own registry, and it carries the ``net_*``
    and ``transport_*`` rows: one garbled msg frame sent to a child
    moves that child's ``transport_bad_frames_total`` by one."""
    from repro.obs.watch import fetch_snapshot
    from repro.realnet.transport import OUTSIDER, handshake, wait_for_condition

    async def garble(host: str, port: int) -> tuple[float, float]:
        before = await fetch_snapshot(host, port)
        assert before.total("net_messages_sent_total") > 0
        bad = before.total("transport_bad_frames_total")
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await handshake(reader, writer, OUTSIDER)
            writer.write(BIN_FORMAT.frame_msg((0, 0), 1, None, b"\x7f"))
            await writer.drain()
            now = [bad]

            async def poll() -> None:
                snap = await fetch_snapshot(host, port)
                now[0] = snap.total("transport_bad_frames_total")

            await wait_for_condition(lambda: now[0] > bad, SETTLE, 0.05, poll)
        finally:
            writer.close()
            await writer.wait_closed()
        return bad, now[0]

    with contextlib.closing(proc_cluster(3, seed=9)) as cluster:
        assert cluster.settle(timeout=SETTLE), cluster.views()
        host, port = cluster.cluster.address_book[1]
        bad, after = asyncio.run(asyncio.wait_for(garble(host, port), 2 * SETTLE))
        assert after == bad + 1
        assert cluster.settle(timeout=SETTLE), cluster.views()
