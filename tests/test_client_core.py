"""One client core: the retry contract table against the sans-I/O core
and the simulator adapter, and the hang a missing reply timeout caused."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.apps.factories import app_factory
from repro.client import core
from repro.client import sim as sim_client
from repro.client.core import ClientCore
from repro.client.protocol import ClientReply
from repro.client.sim import SimStoreClient
from repro.net.faults import Crash, FaultSchedule, Recover
from repro.ports import make_cluster
from repro.sim.scheduler import Scheduler
from repro.workload.openloop import LoadSpec, OpenLoopLoad
from tests.client_contract import (
    BACKOFF,
    CONTRACT,
    LOST,
    NOW,
    SITES,
    answer,
    check_attempts,
)


def _wait(delay: float) -> object:
    if delay == 0:
        return NOW
    return BACKOFF if delay == core.RETRY_DELAY else delay


# -- the contract table ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_contract_on_the_core(name: str) -> None:
    row = CONTRACT[name]
    events = list(row.events)
    client = ClientCore("c", 0, SITES)
    pending, send = client.start("put", "k", "v")
    attempts = []
    while send is not None:
        attempts.append((send.site, _wait(send.delay), send.request))
        req_id = send.request.req_id
        replies = answer(send.request, events)
        if replies is None:
            send = client.on_lost(pending, req_id)
        elif all(r.req_id != req_id for r in replies):
            send = client.on_lost(pending, req_id, "timeout")
        else:
            for reply in replies:
                send = client.on_reply(pending, reply)
                assert reply.req_id == req_id or send is None
    assert not events
    check_attempts(row, attempts, pending.reply)


class _Replica:
    """What the adapter sees of one site: a stack that is up or down."""

    def __init__(self, cluster: "_ScriptedCluster", site: int, alive: bool) -> None:
        self.cluster, self.site = cluster, site
        self.stack = SimpleNamespace(alive=alive)


class _ScriptedService:
    """Stands in for ``StoreService``: answers from the contract row."""

    def __init__(self, app: _Replica, registry: object = None, obs: object = None):
        self.store = app

    def handle_request(self, request, reply_cb) -> None:
        cluster = self.store.cluster
        replies = answer(request, cluster.events)
        timed_out = all(r.req_id != request.req_id for r in replies)
        cluster.attempts.append((self.store.site, cluster.now, request, timed_out))
        for reply in replies:
            reply_cb(reply)


class _ScriptedCluster:
    """Just enough of a sim cluster for ``SimStoreClient``: a real
    scheduler, and replicas whose answers come from a contract row."""

    time_scale = 1.0
    metrics = obs = None

    def __init__(self, events: tuple) -> None:
        self.scheduler = Scheduler()
        self.stacks = dict.fromkeys(SITES)
        self.events = list(events)
        #: (site, time, request or None, timed out) per attempt.
        self.attempts: list[tuple] = []

    @property
    def now(self) -> float:
        return self.scheduler.now

    def after(self, delay: float, callback, *args):
        return self.scheduler.after(delay, callback, *args)

    def run_for(self, duration: float) -> None:
        self.scheduler.run_for(duration)

    def app_at(self, site: int) -> _Replica:
        if self.events[0] == LOST:  # a down replica is a lost connection
            self.events.pop(0)
            self.attempts.append((site, self.now, None, False))
            return _Replica(self, site, alive=False)
        return _Replica(self, site, alive=True)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_contract_on_the_sim_adapter(name: str, monkeypatch) -> None:
    monkeypatch.setattr(sim_client, "StoreService", _ScriptedService)
    row = CONTRACT[name]
    cluster = _ScriptedCluster(row.events)
    client = SimStoreClient(cluster, site=0, client_id="c")
    pending = client.submit("put", "k", "v")
    cluster.run_for(core.MAX_ATTEMPTS * (core.REPLY_TIMEOUT + core.RETRY_DELAY))
    assert not cluster.events
    attempts, ended = [], None
    for site, at, request, timed_out in cluster.attempts:
        wait = NOW if ended is None else _wait(at - ended)
        attempts.append((site, wait, request))
        ended = at + (core.REPLY_TIMEOUT if timed_out else 0.0)
    check_attempts(row, attempts, pending.reply)


# -- where the client goes next --------------------------------------------


def test_failover_and_redirect_move_the_client_for_later_ops() -> None:
    client = ClientCore("c", 0, SITES)
    pending, send = client.start("put", "k", 1)
    send = client.on_lost(pending, send.request.req_id)
    assert (send.site, client.site) == (1, 1)
    assert client.on_reply(pending, ClientReply(send.request.req_id, "ok", prov=(1,))) is None
    assert pending.ok and client.last_token == (1,)
    pending, send = client.start("get", "k", read_mode="leader")
    assert send.site == 1
    send = client.on_reply(
        pending, ClientReply(send.request.req_id, "not_leader", leader_site=2)
    )
    assert (send.site, send.delay, client.site) == (2, 0.0, 2)
    client.on_reply(pending, ClientReply(send.request.req_id, "ok", prov=(9,)))
    assert pending.ok and client.last_token == (1,)  # only puts move the token
    assert pending.retries == ["not_leader"]


def test_ops_lost_together_fail_over_once() -> None:
    """Two operations in flight at a site that dies both move to the
    next site, not one site each."""
    client = ClientCore("c", 0, SITES)
    (p1, s1), (p2, s2) = client.start("put", "a", 1), client.start("put", "b", 2)
    r1 = client.on_lost(p1, s1.request.req_id)
    r2 = client.on_lost(p2, s2.request.req_id, "timeout")
    assert r1.site == r2.site == client.site == 1
    assert r1.request.client_seq == 1 and r2.request.client_seq == 2
    assert (p1.retries, p2.retries) == (["lost"], ["timeout"])
    # The late answer to the first attempt changes nothing.
    assert client.on_reply(p1, ClientReply(s1.request.req_id, "ok")) is None
    assert not p1.done


# -- the hang: a replica that dies with puts in flight ----------------------


def _store_cluster():
    cluster = make_cluster("sim", 5, app_factory("store", 5), seed=7)
    assert cluster.settle(timeout=600)
    return cluster


def test_puts_in_flight_at_a_crashed_site_complete_elsewhere() -> None:
    cluster = _store_cluster()
    client = SimStoreClient(cluster, site=0, client_id="h")
    ops = [client.submit("put", f"k{i}", i) for i in range(5)]
    assert not any(p.done for p in ops)
    cluster.crash(0)
    cluster.run_for(50.0)
    cluster.recover(0)
    cluster.run_for(core.REPLY_TIMEOUT + core.RETRY_DELAY - 50.0)
    assert cluster.settle(timeout=600)
    assert all(p.ok for p in ops), [(p.attempts, p.retries) for p in ops]
    assert all(p.retries == ["timeout"] and p.site == 1 for p in ops)
    reader = SimStoreClient(cluster, site=2, client_id="r")
    for i in range(5):  # resubmitted, yet applied exactly once
        assert [v[0] for v in reader.history(f"k{i}").reply.chain] == [i]


def test_open_loop_counts_every_op_through_a_crash() -> None:
    """A client at the crashed site used to lose its in-flight puts:
    their completions never fired, so the run reported fewer completed
    operations than it offered."""
    cluster = _store_cluster()
    cluster.arm(FaultSchedule([Crash(100.5, 0), Recover(150.5, 0)]))
    spec = LoadSpec(
        rate=0.5, duration=300.0, clients=5, n_keys=16, read_fraction=0.0, seed=3
    )
    report = OpenLoopLoad(cluster, spec).run()
    assert report.completed == report.offered == 150
    assert report.ok == report.offered


def test_open_loop_rate_is_measured_over_the_offer_window() -> None:
    """One op lost with its replica ends only at the reply timeout, far
    past the offer window.  The rate counts the completions inside the
    window over the window, so that straggler does not sink it; how long
    it took is reported as the drain."""
    cluster = _store_cluster()
    cluster.arm(FaultSchedule([Crash(100.5, 0), Recover(150.5, 0)]))
    spec = LoadSpec(
        rate=0.5, duration=300.0, clients=5, n_keys=16, read_fraction=0.0, seed=3
    )
    report = OpenLoopLoad(cluster, spec).run()
    assert report.completed == report.offered
    assert report.duration == spec.duration
    assert report.achieved_rate >= 0.9 * spec.rate
    assert report.drain >= core.REPLY_TIMEOUT - spec.duration
