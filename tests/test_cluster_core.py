"""The cluster core, socket-free: the one settle predicate, the one
config, and the loop-thread helper behind both wall-clock runtimes.

Everything here runs in the default (tier-1) lane — the predicate is a
pure function, the config checks raise before any socket is opened, and
:class:`~repro.realnet.driver.LoopThread` is exercised on a bare event
loop with no cluster behind it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.errors import SimulationError
from repro.net.topology import Topology
from repro.ports import make_cluster
from repro.realnet.driver import LoopThread
from repro.realnet.wallclock import WallClockScheduler
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.runtime.core import UNSUPPORTED, settled
from repro.types import ProcessId, ViewId

from tests.conftest import settled_cluster

# ---------------------------------------------------------------------------
# The settle predicate
# ---------------------------------------------------------------------------

P0, P1, P2, P3 = (ProcessId(site, 0) for site in range(4))
P2B = ProcessId(2, 1)  # site 2 after a crash/recover
V1 = ViewId(1, P0)
V2 = ViewId(2, P0)
V3 = ViewId(3, P2)


def row(pid, view_id, members, flushing=False):
    return (pid, view_id, frozenset(members), flushing)


def split(groups) -> Topology:
    topology = Topology(range(4))
    topology.partition(groups)
    return topology


WHOLE = Topology(range(4))
ALL = (P0, P1, P2, P3)

SETTLE_CASES = [
    ("one agreed full view", WHOLE, [row(p, V1, ALL) for p in ALL], True),
    ("nobody is alive", WHOLE, [], True),
    ("a process without a view", WHOLE,
     [row(P0, V1, ALL), row(P1, V1, ALL), row(P2, V1, ALL), row(P3, None, ())],
     False),
    ("a process mid-flush", WHOLE,
     [row(P0, V1, ALL, flushing=True)] + [row(p, V1, ALL) for p in ALL[1:]],
     False),
    ("view still names a dead member", WHOLE,
     [row(p, V1, ALL) for p in (P0, P1, P2)], False),
    ("dead site ignored once the view shrank", WHOLE,
     [row(p, V2, (P0, P1, P2)) for p in (P0, P1, P2)], True),
    ("view misses a live member of the component", WHOLE,
     [row(p, V2, (P0, P1, P2)) for p in (P0, P1, P2)] + [row(P3, V3, (P3,))],
     False),
    ("same members, different view ids in one component", WHOLE,
     [row(P0, V1, ALL), row(P1, V1, ALL), row(P2, V2, ALL), row(P3, V2, ALL)],
     False),
    ("old incarnation still in the view after a recover", WHOLE,
     [row(p, V1, ALL) for p in (P0, P1, P3)] + [row(P2B, V1, ALL)], False),
    ("two healthy components after a partition", split([(0, 1), (2, 3)]),
     [row(P0, V2, (P0, P1)), row(P1, V2, (P0, P1)),
      row(P2, V3, (P2, P3)), row(P3, V3, (P2, P3))], True),
    ("partitioned, but one side still holds the old full view",
     split([(0, 1), (2, 3)]),
     [row(P0, V2, (P0, P1)), row(P1, V2, (P0, P1)),
      row(P2, V1, ALL), row(P3, V1, ALL)], False),
    ("healed, but the sides have not merged yet", WHOLE,
     [row(P0, V2, (P0, P1)), row(P1, V2, (P0, P1)),
      row(P2, V3, (P2, P3)), row(P3, V3, (P2, P3))], False),
]


@pytest.mark.parametrize(
    "topology, rows, expected",
    [case[1:] for case in SETTLE_CASES],
    ids=[case[0] for case in SETTLE_CASES],
)
def test_settled_predicate(topology, rows, expected):
    assert settled(rows, topology) is expected
    assert settled(reversed(rows), topology) is expected  # order-free


def test_sim_cluster_feeds_the_predicate_from_live_stacks():
    cluster = settled_cluster(4)
    assert cluster.is_settled()
    cluster.partition([(0, 1), (2, 3)])
    assert not cluster.is_settled()  # topology moved, views have not
    assert cluster.settle(timeout=500)
    assert len(set(cluster.views().values())) == 2
    cluster.crash(3)
    assert not cluster.is_settled()
    assert cluster.settle(timeout=500)


def test_run_until_predicate():
    cluster = Cluster(3, config=ClusterConfig(seed=0))
    ok = cluster.run_until(lambda c: c.is_settled(), timeout=400)
    assert ok
    assert cluster.is_settled()


def test_run_until_times_out_on_impossible_predicate():
    cluster = settled_cluster(2)
    before = cluster.now
    assert not cluster.run_until(lambda c: False, timeout=30)
    assert cluster.now == before + 30


# ---------------------------------------------------------------------------
# One config
# ---------------------------------------------------------------------------


def test_cluster_config_is_the_union_of_the_three_former_dataclasses():
    fields = [f.name for f in dataclasses.fields(ClusterConfig)]
    assert len(fields) == 23
    for names in UNSUPPORTED.values():
        assert set(names) <= set(fields)


def test_config_round_trips_through_the_child_json_argument():
    config = ClusterConfig(
        seed=9, scale=1.5, codec="json", app="store", fd_mode="gossip",
        gossip_fanout=2, tracing=True, trace_capacity=128, metrics=False,
    )
    assert ClusterConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize(
    "runtime, knob",
    [
        ("sim", {"codec": "json"}),
        ("sim", {"scale": 2.0}),
        ("realnet", {"fifo_links": False}),
        ("realnet-proc", {"fifo_links": False}),
        ("realnet-proc", {"latency": object()}),
        ("realnet-proc", {"stack": object()}),
        ("sim", {"batch_bytes": 0}),  # the one link knob left
    ],
)
def test_make_cluster_names_the_field_a_runtime_cannot_honour(runtime, knob):
    (field,) = knob
    with pytest.raises(ValueError, match=f"ClusterConfig.{field}"):
        make_cluster(runtime, 3, **knob)  # raises before any socket opens


def test_make_cluster_rejects_an_unknown_field_and_a_proc_closure():
    with pytest.raises(TypeError):
        make_cluster("sim", 3, no_such_knob=1)
    with pytest.raises(ValueError, match="app_factory.*process boundary"):
        make_cluster("realnet-proc", 3, app_factory=lambda pid: object())


def test_app_travels_by_name_on_every_runtime():
    from repro.apps.versioned_store import VersionedStore

    cluster = make_cluster("sim", 2, app="store", fd_mode="gossip", gossip_fanout=1)
    assert isinstance(cluster.app_at(0), VersionedStore)
    assert cluster.stack_at(0).config.fd_mode == "gossip"
    assert cluster.settle(timeout=600)


# ---------------------------------------------------------------------------
# The loop-thread helper
# ---------------------------------------------------------------------------


@pytest.fixture
def loop():
    thread = LoopThread("test-loop").start()
    yield thread
    thread.close()


def test_submit_returns_the_coroutine_result(loop):
    async def answer():
        await asyncio.sleep(0)
        return threading.current_thread().name

    assert loop.submit(answer(), timeout=5.0) == "test-loop"


def test_blocking_call_from_the_loop_thread_is_refused(loop):
    async def nothing():
        return None

    def reenter():
        # Runs on the loop thread; a blocking submit would wait on itself.
        with pytest.raises(SimulationError, match="from the loop thread"):
            loop.submit(nothing(), timeout=1.0)
        return loop.invoke(lambda: "inline")  # invoke runs in place

    assert loop.invoke(reenter) == "inline"


def test_timeout_cancels_the_coroutine(loop):
    cancelled = threading.Event()

    async def hang():
        try:
            await asyncio.sleep(60.0)
        except asyncio.CancelledError:
            cancelled.set()
            raise

    with pytest.raises(SimulationError, match="did not complete within 0.05s"):
        loop.submit(hang(), timeout=0.05)
    assert cancelled.wait(5.0)


def test_invoke_awaits_awaitable_results_off_loop(loop):
    async def later():
        return 42

    def spawn():
        return asyncio.get_running_loop().create_task(later())

    assert loop.invoke(spawn) == 42  # a startup task resolves to its value


def test_after_fires_on_the_loop_and_cancel_hops_from_a_foreign_thread(loop):
    scheduler = loop.invoke(WallClockScheduler)
    fired: list[str] = []
    done = threading.Event()

    def fire(tag):
        fired.append((tag, threading.current_thread().name))
        done.set()

    doomed = loop.after(scheduler, 0.05, fire, "doomed")
    doomed.cancel()  # from this (foreign) thread
    doomed.cancel()  # idempotent
    loop.after(scheduler, 0.1, fire, "kept")
    assert done.wait(5.0)
    loop.submit(asyncio.sleep(0.05), timeout=5.0)
    assert fired == [("kept", "test-loop")]


def test_close_is_idempotent_and_a_closed_loop_refuses_work():
    loop = LoopThread("short-lived").start()
    loop.close()
    loop.close()
    assert not loop.running

    async def nothing():
        return None

    with pytest.raises(SimulationError, match="not running"):
        loop.submit(nothing())
    LoopThread("never-started").close()  # closing an unstarted loop is fine
