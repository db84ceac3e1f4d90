"""Tests for the client service tier: router, sim port, open-loop load."""

from __future__ import annotations

import pytest

from repro.apps.factories import app_factory
from repro.apps.versioned_store import VersionedStore
from repro.client.protocol import ClientReply, ClientRequest
from repro.client.service import StoreService
from repro.client.sim import SimStoreClient
from repro.net.faults import FaultSchedule, Heal, Partition
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.workload.openloop import (
    LoadSpec,
    LoadTarget,
    OpenLoopLoad,
    UniformKeys,
    ZipfianKeys,
    make_key_dist,
    slo_verdict,
)
from repro.workload.runner import run_client_load


def store_cluster(n: int = 4, seed: int = 0) -> Cluster:
    cluster = Cluster(
        n, app_factory=app_factory("store", n), config=ClusterConfig(seed=seed)
    )
    assert cluster.settle(timeout=500)
    cluster.run_for(100)
    return cluster


# ---------------------------------------------------------------------------
# StoreService router
# ---------------------------------------------------------------------------


def collect(service: StoreService, request: ClientRequest) -> list[ClientReply]:
    replies: list[ClientReply] = []
    service.handle_request(request, replies.append)
    return replies


def test_service_routes_ping_and_rejects_unknown_ops() -> None:
    service = StoreService(VersionedStore())
    (pong,) = collect(service, ClientRequest(1, "ping"))
    assert pong.status == "ok" and pong.req_id == 1
    (err,) = collect(service, ClientRequest(2, "drop_table"))
    assert err.status == "error" and "drop_table" in str(err.value)


def test_service_put_reply_is_deferred_until_commit() -> None:
    cluster = store_cluster()
    service = StoreService(cluster.app_at(0))
    replies: list[ClientReply] = []
    service.handle_request(
        ClientRequest(5, "put", key="k", value="v", client="c", client_seq=1),
        replies.append,
    )
    # No reply at dispatch: the put is pending its quorum.
    assert replies == []
    cluster.run_for(100)
    assert len(replies) == 1
    assert replies[0].status == "ok" and replies[0].prov is not None


def test_service_read_paths() -> None:
    cluster = store_cluster()
    service = StoreService(cluster.app_at(1))
    (missing,) = collect(service, ClientRequest(1, "get", key="nope"))
    assert missing.status == "missing"
    client = SimStoreClient(cluster, site=0, client_id="r")
    assert client.put("k", "v").ok
    (got,) = collect(service, ClientRequest(2, "get", key="k"))
    assert got.status == "ok" and got.value == "v"
    (hist,) = collect(service, ClientRequest(3, "history", key="k"))
    assert hist.status == "ok"
    assert [link[0] for link in hist.chain] == ["v"]
    # A read-your-writes token for a write this replica already has.
    (ryw,) = collect(service, ClientRequest(4, "get", key="k", ryw=got.prov))
    assert ryw.status == "ok"


def test_service_leader_mode_redirects_non_leader() -> None:
    cluster = store_cluster()
    service = StoreService(cluster.app_at(2))
    (redirect,) = collect(
        service, ClientRequest(1, "get", key="k", read_mode="leader")
    )
    assert redirect.status == "not_leader" and redirect.leader_site == 0
    leader_service = StoreService(cluster.app_at(0))
    (served,) = collect(
        leader_service, ClientRequest(2, "get", key="k", read_mode="leader")
    )
    assert served.status == "missing"  # served, not redirected


# ---------------------------------------------------------------------------
# Key distributions
# ---------------------------------------------------------------------------


def test_key_dists_are_deterministic_per_seed() -> None:
    a = [ZipfianKeys(1_000_000, seed=3).sample() for _ in range(50)]
    b = [ZipfianKeys(1_000_000, seed=3).sample() for _ in range(50)]
    assert a == b
    assert [UniformKeys(100, seed=1).sample() for _ in range(20)] == [
        UniformKeys(100, seed=1).sample() for _ in range(20)
    ]


def test_zipfian_is_skewed_uniform_is_not() -> None:
    zipf = ZipfianKeys(100_000, seed=0)
    counts: dict[str, int] = {}
    for _ in range(2000):
        k = zipf.sample()
        counts[k] = counts.get(k, 0) + 1
    # YCSB theta=0.99: the hottest key takes a meaningful share.
    assert max(counts.values()) > 50
    uni = UniformKeys(100_000, seed=0)
    ucounts: dict[str, int] = {}
    for _ in range(2000):
        k = uni.sample()
        ucounts[k] = ucounts.get(k, 0) + 1
    assert max(ucounts.values()) <= 5


def test_make_key_dist_names() -> None:
    assert isinstance(make_key_dist("uniform", 10), UniformKeys)
    assert isinstance(make_key_dist("zipfian", 10), ZipfianKeys)
    with pytest.raises(ValueError):
        make_key_dist("pareto", 10)
    with pytest.raises(ValueError):
        make_key_dist("uniform", 0)


def test_load_spec_validation() -> None:
    with pytest.raises(ValueError):
        LoadSpec(rate=0)
    with pytest.raises(ValueError):
        LoadSpec(read_fraction=0.8, history_fraction=0.3)
    assert LoadSpec(rate=10, duration=3).total_ops == 30


def test_load_target_requires_addresses() -> None:
    with pytest.raises(ValueError):
        LoadTarget({})


# ---------------------------------------------------------------------------
# Open-loop load on the simulator
# ---------------------------------------------------------------------------


def test_openloop_sim_run_counts_and_histograms() -> None:
    cluster = store_cluster()
    spec = LoadSpec(
        rate=0.5, duration=400.0, clients=4, n_keys=64, read_fraction=0.7, seed=1
    )
    report = OpenLoopLoad(cluster, spec).run()
    assert report.offered == 200
    assert report.completed == report.offered
    assert report.ok == report.completed  # fault-free: nothing retries out
    verdict = slo_verdict(cluster, target_p99=100.0)
    assert verdict.count == report.completed
    assert verdict.met and verdict.p99 <= 100.0
    assert set(verdict.per_op) <= {"get", "put", "history"}
    snap = cluster.metrics_snapshot()
    assert snap.total("client_ops_total") == report.completed


def test_run_client_load_with_partition_keeps_acked_writes() -> None:
    cluster = store_cluster(n=5, seed=2)
    schedule = FaultSchedule()
    schedule.add(Partition(100.0, ((0, 1, 2), (3, 4))))
    schedule.add(Heal(400.0))
    spec = LoadSpec(
        rate=0.4, duration=600.0, clients=4, n_keys=32, read_fraction=0.6, seed=2
    )
    result = run_client_load(cluster, spec, schedule, slo_p99=200.0)
    assert result.load.completed == spec.total_ops
    assert result.workload.settled
    assert not result.workload.violations, result.workload.violations
    names = {r.name for r in result.workload.reports}
    assert "AckedWriteLoss" in names
    assert result.ok


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_parsers_for_client_tier() -> None:
    from repro.cli import build_parser

    parser = build_parser()
    run = parser.parse_args(
        ["run", "--client-rate", "2", "--no-faults", "--client-read-mode", "leader"]
    )
    assert run.client_rate == 2.0 and run.no_faults
    assert run.client_read_mode == "leader"
    serve = parser.parse_args(["serve", "--sites", "5"])
    assert serve.sites == 5
    load = parser.parse_args(
        ["load", "--book", "0:h:1,1:h:2", "--rate", "50", "--dist", "uniform"]
    )
    assert load.rate == 50.0 and load.dist == "uniform"
    assert load.book == "0:h:1,1:h:2"


def test_cli_run_rejects_client_rate_with_other_app() -> None:
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "--client-rate", "1", "--app", "file"])


def test_cli_run_sim_client_load_smoke(capsys) -> None:
    from repro.cli import main

    rc = main(
        [
            "run",
            "--sites",
            "3",
            "--duration",
            "120",
            "--client-rate",
            "0.2",
            "--client-keys",
            "16",
            "--no-faults",
            "--seed",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "open-loop client load" in out
    assert "SLO" in out
