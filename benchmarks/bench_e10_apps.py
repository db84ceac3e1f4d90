"""E10 — Section 3's example group objects keep their invariants.

The paper states the correctness criteria for its two motivating
objects; Section 6.2 adds the lock manager.  This experiment drives all
three through randomized fault schedules with client traffic and
verifies the stated criteria on the recorded executions:

* **replicated file** — "with respect to write operations, the group
  object should behave exactly as if there were only one copy of the
  file; with respect to read operations, it is allowable to return
  stale data": every committed write is durable (the final converged
  value of a file is never older than its newest committed write), and
  all replicas converge to identical contents;
* **parallel-lookup database** — the division of responsibility is
  exact in every settled view ("some portion of the database not being
  searched at all or being searched multiple times" never happens), and
  completed lookups return exactly the matching records;
* **lock manager** — at most one process holds the write lock at any
  instant, across all partitions.
"""

from __future__ import annotations

from typing import Any

from repro.apps.lock_manager import MajorityLockManager
from repro.apps.replicated_db import ParallelLookupDatabase
from repro.apps.replicated_file import ReplicatedFile
from repro.core.modes import Mode
from repro.ports import make_cluster
from repro.workload import Table, run_checked_workload
from repro.workload.generator import RandomFaultGenerator

N_SITES = 5
SEEDS = range(5)


def file_run(seed: int) -> dict[str, Any]:
    votes = {s: 1 for s in range(N_SITES)}
    gen = RandomFaultGenerator(n_sites=N_SITES, seed=seed, duration=250)
    cluster = make_cluster(
        "sim", N_SITES, lambda pid: ReplicatedFile(votes), seed=seed
    )
    schedule = gen.generate()
    cluster.arm(schedule)
    committed: dict[str, list] = {}
    writes = 0
    deadline = schedule.horizon + gen.settle_tail
    rng_names = ["a", "b", "c"]
    step = 0
    while cluster.now < deadline:
        cluster.run_for(20)
        step += 1
        for site in range(N_SITES):
            stack = cluster.stacks.get(site)
            if stack is None or not stack.alive:
                continue
            app = cluster.apps[site]
            name = rng_names[(site + step) % len(rng_names)]
            handle = app.write(name, f"{seed}-{site}-{step}")
            if handle.msg_id is not None:
                committed.setdefault(name, []).append(handle)
                writes += 1
    cluster.settle(timeout=700)
    cluster.run_for(400)
    cluster.settle(timeout=400)
    live_apps = [
        cluster.apps[s] for s in cluster.apps if cluster.stacks[s].alive
    ]
    listings = [app.listing() for app in live_apps]
    converged = all(listing == listings[0] for listing in listings)
    # Durability of committed writes: per file, the surviving stamp is
    # at least the newest committed stamp.
    durable = True
    reference = live_apps[0]
    for name, handles in committed.items():
        done = [h for h in handles if h.status == "committed"]
        if not done:
            continue
        newest = max(h.msg_id for h in done)
        entry = reference.files.get(name)
        if entry is None or entry[1] < newest:
            durable = False
    committed_count = sum(
        1 for handles in committed.values() for h in handles if h.status == "committed"
    )
    return {
        "writes": writes,
        "committed": committed_count,
        "converged": converged,
        "durable": durable,
    }


def db_run(seed: int) -> dict[str, Any]:
    predicates = {"all": lambda k, v: True}
    gen = RandomFaultGenerator(n_sites=N_SITES, seed=seed + 100, duration=250)
    cluster = make_cluster(
        "sim", N_SITES, lambda pid: ParallelLookupDatabase(predicates), seed=seed
    )
    run_checked_workload(cluster, gen.generate(), tail=gen.settle_tail + 250)
    cluster.run_for(250)
    cluster.settle(timeout=500)
    live = [s for s in cluster.apps if cluster.stacks[s].alive]
    # Insert from everyone, then check partition exactness + lookups.
    for site in live:
        if cluster.apps[site].can_submit(("k", site)):
            cluster.apps[site].insert(f"k{site}", site)
    cluster.run_for(40)
    slices = [
        cluster.apps[s].responsibility()
        for s in live
        if cluster.apps[s].mode is Mode.NORMAL
    ]
    union = set().union(*slices) if slices else set()
    exact = union == set(range(64)) and sum(len(s) for s in slices) == 64
    handle = cluster.apps[live[0]].lookup("all")
    cluster.run_for(60)
    complete = handle.status == "complete"
    expected = {
        (k, v) for k, v in cluster.apps[live[0]].records.items()
    }
    correct = not complete or handle.results == expected
    return {"exact_partition": exact, "lookup_ok": complete and correct}


def lock_run(seed: int) -> dict[str, Any]:
    gen = RandomFaultGenerator(n_sites=N_SITES, seed=seed + 200, duration=250)
    cluster = make_cluster(
        "sim", N_SITES, lambda pid: MajorityLockManager(range(N_SITES)), seed=seed
    )
    schedule = gen.generate()
    cluster.arm(schedule)
    deadline = schedule.horizon + gen.settle_tail
    violations = 0
    grants = 0
    while cluster.now < deadline:
        cluster.run_for(15)
        holders = {
            app.holder
            for site, app in cluster.apps.items()
            if cluster.stacks[site].alive and app.holder is not None
            and app.mode is Mode.NORMAL
        }
        if len(holders) > 1:
            violations += 1
        for site, app in cluster.apps.items():
            stack = cluster.stacks.get(site)
            if stack is None or not stack.alive:
                continue
            if app.mode is Mode.NORMAL:
                if app.i_hold_lock():
                    app.release()
                else:
                    app.acquire()
    grants = sum(
        app.grants for site, app in cluster.apps.items()
        if cluster.stacks[site].alive
    )
    return {"violations": violations, "grants": grants}


def run_experiment() -> dict[str, Any]:
    files = [file_run(seed) for seed in SEEDS]
    dbs = [db_run(seed) for seed in SEEDS]
    locks = [lock_run(seed) for seed in SEEDS]
    return {"file": files, "db": dbs, "lock": locks}


def test_e10_application_invariants(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        f"E10 / example-object invariants under random faults ({len(list(SEEDS))} seeds each)",
        ["object", "criterion", "result"],
    )
    files, dbs, locks = results["file"], results["db"], results["lock"]
    total_writes = sum(r["writes"] for r in files)
    total_committed = sum(r["committed"] for r in files)
    table.add(
        "replicated file",
        "replicas converge to identical contents",
        f"{sum(r['converged'] for r in files)}/{len(files)} runs",
    )
    table.add(
        "replicated file",
        f"committed writes durable ({total_committed}/{total_writes} committed)",
        f"{sum(r['durable'] for r in files)}/{len(files)} runs",
    )
    table.add(
        "parallel-lookup db",
        "responsibility partition exact (no gap/overlap)",
        f"{sum(r['exact_partition'] for r in dbs)}/{len(dbs)} runs",
    )
    table.add(
        "parallel-lookup db",
        "completed lookups return exactly the matches",
        f"{sum(r['lookup_ok'] for r in dbs)}/{len(dbs)} runs",
    )
    total_grants = sum(r["grants"] for r in locks)
    table.add(
        "lock manager",
        f"at most one holder system-wide ({total_grants} grants)",
        f"{sum(r['violations'] == 0 for r in locks)}/{len(locks)} runs",
    )
    table.show()

    assert all(r["converged"] for r in files)
    assert all(r["durable"] for r in files)
    assert total_committed > 50
    assert all(r["exact_partition"] for r in dbs)
    assert all(r["lookup_ok"] for r in dbs)
    assert all(r["violations"] == 0 for r in locks)
    assert total_grants > 30
