"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    The paper's partition/merge walkthrough on ``--runtime sim`` or
    ``realnet``: bootstrap, a minority partition (two concurrent
    e-views), ``SV-SetMerge`` on each side, heal (structure preserved),
    one ``SV-SetMerge`` applied everywhere, then the property checks.
``run``
    Run a seeded random fault schedule over a chosen application and
    print a run summary plus the property reports.  ``--runtime sim``
    (default) runs on the deterministic simulator; ``--runtime
    realnet`` drives the identical schedule over loopback TCP sockets.
``check``
    Sweep many seeds, verifying all six properties on each run; exits
    non-zero if any violation is found (useful as a soak test).  Also
    takes ``--runtime``.
``experiments``
    List the paper experiments and the benchmark files that regenerate
    them.
``serve`` / ``load``
    The client service tier: ``serve`` boots a realnet cluster running
    the versioned record store and keeps serving the client wire
    protocol (``docs/protocol.md`` §8); ``load`` offers open-loop load
    against an already-running cluster over real TCP connections and
    prints throughput plus p50/p99 latency with an SLO verdict.  The
    in-run equivalent is ``run --client-rate`` (works on both
    runtimes, and additionally checks that no acknowledged write was
    lost across the run's faults).
``realnet node``
    One standalone node of a fixed-port multi-process deployment over
    real TCP sockets.
``obs``
    Observability console.  ``obs report`` runs the figure-2 checked
    workload on either runtime and prints the unified metrics report
    (live registry values side by side with trace-derived aggregates);
    ``obs watch`` polls running realnet nodes for metric snapshots over
    their normal listening sockets.
``fuzz``
    Coverage-guided protocol fuzzer (``docs/fuzzing.md``): ``fuzz run``
    mutates fault schedules toward novel protocol coverage and shrinks
    failures to minimal reproducers; ``fuzz replay`` re-runs a corpus
    entry and verifies its verdict; ``fuzz shrink`` minimizes one
    entry; ``fuzz corpus`` summarizes a corpus directory.

A flag several commands take (``--sites``, ``--seed``, ``--scale``, the
address flags, ...) is declared once, in :data:`SHARED_FLAGS`, with one
help text; each command supplies only its default.  Addresses are read
once, after parsing, by :func:`_read_addresses`, and a malformed entry
is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps.factories import APP_NAMES
from repro.ports import RUNTIMES, make_cluster
from repro.trace.checks import CheckReport, check_enriched_views, check_view_synchrony
from repro.workload import Table
from repro.workload.generator import RandomFaultGenerator
from repro.workload.runner import run_checked_workload

EXPERIMENTS = [
    ("E1", "Figure 1: mode-transition diagram", "bench_e1_modes.py"),
    ("E2", "Properties 2.1-2.3 under adversarial runs", "bench_e2_vs_properties.py"),
    ("E3", "Figure 2: structure preservation (6.3)", "bench_e3_structure.py"),
    ("E4", "Figure 3: e-view change ordering (6.1/6.2)", "bench_e4_eview_order.py"),
    ("E5", "Section 5: merge cost, one-at-a-time vs one change", "bench_e5_merge_cost.py"),
    ("E6", "Sections 4/6.2: flat vs enriched classification", "bench_e6_classify.py"),
    ("E7", "Section 4: primary partition excludes merging", "bench_e7_primary.py"),
    ("E8", "Section 5: blocking vs two-piece transfer", "bench_e8_transfer.py"),
    ("E9", "Section 6.2: undisturbed internal operations", "bench_e9_undisturbed.py"),
    ("E10", "Section 3: example-object invariants", "bench_e10_apps.py"),
    ("A1-A3", "ablations of load-bearing mechanisms", "bench_ablations.py"),
]

#: Runtimes whose stacks live in this process.  The demo reads e-views
#: and ``obs report``'s query client reads applications in-process, so
#: they exclude realnet-proc.
IN_PROCESS_RUNTIMES = ("sim", "realnet")

#: The flags several commands share, each declared once: dest ->
#: ``add_argument`` keywords, so a flag has one help text and one type
#: everywhere.  :func:`_shared` adds them.
SHARED_FLAGS: dict[str, dict] = {
    "runtime": dict(default="sim",
                    help="backend: simulator, loopback TCP or one process per site"),
    "sites": dict(type=int, help="number of sites"),
    "seed": dict(type=int, help="random seed: the same seed, the same run"),
    "scale": dict(type=float, default=1.0,
                  help="wall-clock runtimes: stretch every protocol timer "
                       "by this factor"),
    "tracing": dict(action="store_true",
                    help="causal tracing into per-node flight recorders"),
    "app": dict(choices=APP_NAMES, help="application on every site"),
    "loss": dict(type=float, default=0.0, help="message loss probability"),
    "asymmetric": dict(action="store_true",
                       help="generate one-way link cuts too"),
    "host": dict(default="127.0.0.1", help="host of derived or :PORT addresses"),
    "base_port": dict(type=int, default=7400,
                      help="derived addresses: site s listens on base-port + s"),
    "book": dict(metavar="SITE:HOST:PORT,...",
                 help="explicit address book, as 'repro serve' prints it; "
                      "overrides targets and --sites/--base-port"),
    "targets": dict(nargs="*", metavar="HOST:PORT",
                    help="node sockets as [HOST:]PORT, in site order"),
    "metrics": dict(metavar="FILE", help="write metrics as Prometheus text"),
    "metrics_jsonl": dict(metavar="FILE", help="write metrics as JSONL"),
}


def _shared(parser: argparse.ArgumentParser, *names: str,
            runtimes: Sequence[str] = RUNTIMES, **defaults) -> None:
    """Add the :data:`SHARED_FLAGS` ``names`` with the table's defaults,
    and ``defaults`` with the given ones; ``runtimes`` narrows the
    choices of ``--runtime``."""
    for dest in (*names, *defaults):
        kwargs = dict(SHARED_FLAGS[dest])
        if dest in defaults:
            kwargs["default"] = defaults[dest]
        if dest == "runtime":
            kwargs["choices"] = runtimes
        flag = dest if dest == "targets" else "--" + dest.replace("_", "-")
        parser.add_argument(flag, **kwargs)


def _read_addresses(args: argparse.Namespace) -> dict[int, tuple[str, int]]:
    """The one address reader: site -> (host, port) from ``--book``
    (``SITE:HOST:PORT,...``), else from ``[HOST:]PORT`` targets in site
    order, else ``--host`` with ports from ``--base-port``.  A malformed
    entry is a ``ValueError`` naming it."""
    host = getattr(args, "host", SHARED_FLAGS["host"]["default"])
    # (entry as given, site, [HOST:]PORT, host for a bare :PORT or None)
    if getattr(args, "book", None):
        entries = [(e, *e.partition(":")[::2], None) for e in args.book.split(",")]
    elif getattr(args, "targets", None):
        entries = [(t, str(s), t, host) for s, t in enumerate(args.targets)]
    elif "base_port" in args:
        return {site: (host, args.base_port + site) for site in range(args.sites)}
    else:
        return {}
    book = {}
    for entry, site, address, default_host in entries:
        given, _, port = address.rpartition(":")
        if not (site.isdigit() and port.isdigit() and (given or default_host)):
            form = "[HOST:]PORT" if default_host else "SITE:HOST:PORT"
            raise ValueError(f"malformed address {entry!r}: expected {form}")
        book[int(site)] = (given or default_host, int(port))
    return book


def _print_reports(reports: list[CheckReport]) -> int:
    violations = 0
    for report in reports:
        print(f"  {report}")
        violations += len(report.violations)
    return violations


def _cluster(runtime: str, sites: int, **knobs):
    """:func:`make_cluster`, with a knob ``runtime`` cannot honour as an
    error message instead of a traceback."""
    try:
        return make_cluster(runtime, sites, **knobs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_demo(args: argparse.Namespace) -> int:
    """The partition/merge walkthrough on an in-process runtime."""
    from repro.workload.scenarios import partition_merge

    cluster = _cluster(args.runtime, args.sites, seed=args.seed,
                       scale=args.scale)
    try:
        report = partition_merge(cluster, print)
    finally:
        cluster.close()
    return 0 if report.ok else 1


def _print_load_results(load_report, verdict, unit: str) -> None:
    """Load + SLO tables shared by ``run --client-rate`` and ``load``."""
    table = Table("open-loop client load", ["metric", "value"])
    table.add("offered ops", load_report.offered)
    table.add("completed", load_report.completed)
    table.add("acked ok", load_report.ok)
    for status, count in load_report.by_status.items():
        table.add(f"  status={status}", count)
    table.add("late send slots", load_report.late)
    table.add(f"duration ({unit})", round(load_report.duration, 3))
    table.add(f"achieved ops/{unit}", round(load_report.achieved_rate, 1))
    table.show()
    slo = Table(f"client latency ({unit})", ["op", "count", "p50", "p99"])
    for op, row in sorted(verdict.per_op.items()):
        slo.add(op, int(row["count"]), round(row["p50"], 4), round(row["p99"], 4))
    slo.add("overall", verdict.count, round(verdict.p50, 4), round(verdict.p99, 4))
    slo.show()
    print(
        f"SLO p99 target {verdict.target_p99:g}{unit}: "
        f"{'met' if verdict.met else 'MISSED'} (worst p99 {verdict.p99:g}{unit})"
    )


def _run_client_load(args: argparse.Namespace, cluster, schedule, tail) -> int:
    """The ``run --client-rate`` path: open-loop load + faults + checks."""
    from repro.workload.openloop import LoadSpec
    from repro.workload.runner import run_client_load

    scale = cluster.time_scale
    spec = LoadSpec(
        rate=args.client_rate / scale,
        duration=args.duration * scale,
        clients=args.client_count,
        n_keys=args.client_keys,
        key_dist=args.client_dist,
        read_fraction=args.client_reads,
        read_mode=args.client_read_mode,
        seed=args.seed,
    )
    result = run_client_load(
        cluster, spec, schedule, tail=tail, slo_p99=args.client_slo
    )
    unit = "s" if args.runtime != "sim" else "u"
    _print_load_results(result.load, result.verdict, unit)
    violations = _export_and_check(args, result.workload)
    if not result.load.completed:
        print("no client operation completed", file=sys.stderr)
        return 1
    return 1 if violations else 0


def cmd_run(args: argparse.Namespace) -> int:
    generator = RandomFaultGenerator(
        n_sites=args.sites, seed=args.seed, duration=args.duration,
        asymmetric=args.asymmetric,
    )
    schedule = generator.generate()
    if args.no_faults:
        from repro.net.faults import FaultSchedule

        schedule = FaultSchedule()
    if args.client_rate:
        if args.app == "none":
            args.app = "store"  # client load only makes sense over the store
        elif args.app != "store":
            raise SystemExit("--client-rate serves the 'store' app; "
                             f"got --app {args.app}")
    # One knob set for every runtime: the application travels by name
    # and make_cluster rejects what the chosen runtime cannot honour.
    cluster = _cluster(
        args.runtime, args.sites, seed=args.seed, loss_prob=args.loss,
        app=args.app, scale=args.scale,
        fd_mode=args.fd_mode, gossip_fanout=args.gossip_fanout,
        tracing=args.tracing,
    )
    try:
        if args.client_rate:
            return _run_client_load(
                args, cluster, schedule, generator.settle_tail
            )
        report = run_checked_workload(
            cluster, schedule, tail=generator.settle_tail
        )
        from repro.trace.stats import summarize

        stats = summarize(report.trace)
        net = cluster.network_stats()
        title = f"run summary (sites={args.sites} seed={args.seed} app={args.app})"
        if args.runtime != "sim":
            title = f"run summary (runtime={args.runtime} " + title[len("run summary ("):]
        table = Table(title, ["metric", "value"])
        time_label = "virtual time" if args.runtime == "sim" else "wall time (s)"
        table.add(time_label, cluster.now)
        table.add("fault actions", len(schedule.actions))
        table.add("messages sent", net.sent)
        table.add("messages delivered", net.delivered)
        table.add("view installs", stats.view_installs)
        table.add("max concurrent views", stats.max_concurrent_views)
        table.add("app deliveries", stats.deliveries)
        table.add("e-view changes", stats.eview_changes)
        table.add("settlement sessions", stats.settlement_sessions)
        table.add("settled", cluster.is_settled())
        table.show()
        return 1 if _export_and_check(args, report) else 0
    finally:
        cluster.close()


def _export_and_check(args: argparse.Namespace, report) -> int:
    """Write a run's requested trace/metrics files, print its property
    reports and return the violation count."""
    if args.export:
        from repro.trace.export import dump_trace

        with open(args.export, "w", encoding="utf-8") as handle:
            count = dump_trace(report.trace, handle)
        print(f"exported {count} trace events to {args.export}")
    _export_metrics(args, report.metrics)
    print("property checks:")
    return _print_reports(report.reports)


def _export_metrics(args: argparse.Namespace, snapshot, help_texts=None) -> None:
    """Write a MetricsSnapshot to the ``--metrics``/``--metrics-jsonl``
    files, when given."""
    if snapshot is None or (not args.metrics and not args.metrics_jsonl):
        return
    from repro.obs.export import write_jsonl, write_prometheus

    if args.metrics:
        write_prometheus(snapshot, args.metrics, help_texts)
        print(f"exported metrics (Prometheus text) to {args.metrics}")
    if args.metrics_jsonl:
        write_jsonl(snapshot, args.metrics_jsonl)
        print(f"exported metrics (JSONL) to {args.metrics_jsonl}")


def cmd_recheck(args: argparse.Namespace) -> int:
    """Re-verify an exported trace file."""
    from repro.trace.export import load_trace

    with open(args.trace, encoding="utf-8") as handle:
        recorder = load_trace(handle)
    print(f"loaded {len(recorder)} events from {args.trace}")
    if args.timeline:
        from repro.trace.timeline import render_timeline

        print()
        print(render_timeline(recorder))
        print()
    reports = check_view_synchrony(recorder) + check_enriched_views(recorder)
    return 1 if _print_reports(reports) else 0


def cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    for seed in range(args.runs):
        generator = RandomFaultGenerator(
            n_sites=args.sites, seed=seed, duration=args.duration
        )
        cluster = make_cluster(args.runtime, args.sites, seed=seed)
        try:
            report = run_checked_workload(
                cluster, generator.generate(), tail=generator.settle_tail
            )
            settled = cluster.is_settled()
        finally:
            cluster.close()
        bad = [r for r in report.reports if not r.ok]
        status = "ok" if not bad and settled else "FAIL"
        print(f"seed {seed}: {status}")
        for report_ in bad:
            failures += 1
            print(f"    {report_.name}: {report_.violations[:3]}")
    print(f"\n{args.runs - failures}/{args.runs} seeds clean")
    return 1 if failures else 0


def cmd_realnet_node(args: argparse.Namespace) -> int:
    """One standalone node of a fixed-port multi-process deployment."""
    import asyncio

    from repro.realnet.node import run_standalone
    from repro.runtime.core import ClusterConfig

    book = args.addresses
    if args.supervised:
        from repro.realnet import wallclock
        from repro.realnet.procnode import run_supervised

        if not args.book or not args.config:
            raise SystemExit(
                "--supervised requires --book site:host:port,... and --config JSON"
            )
        wallclock.run(
            run_supervised(args.site, book, ClusterConfig.from_json(args.config))
        )
        return 0
    if args.site not in book:
        raise SystemExit(f"--site {args.site} is not in the universe {sorted(book)}")
    host, port = book[args.site]
    print(
        f"site {args.site} listening on {host}:{port} "
        f"(universe: {sorted(book)}); Ctrl-C to leave"
    )
    asyncio.run(
        run_standalone(
            args.site,
            book,
            ClusterConfig(
                seed=args.seed, scale=args.scale,
                tracing=args.tracing, quiet=False,
            ),
            incarnation=args.incarnation,
            on_view=lambda view: print(f"  installed {view}"),
        )
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot a realnet store cluster and serve external clients."""
    cluster = make_cluster(
        "realnet", args.sites, app="store",
        seed=args.seed, scale=args.scale,
    )
    try:
        if not cluster.settle(timeout=args.timeout):
            print(
                f"cluster failed to form a view; views: {cluster.views()}",
                file=sys.stderr,
            )
            return 1
        book = cluster.cluster.address_book
        spec = ",".join(
            f"{site}:{host}:{port}" for site, (host, port) in sorted(book.items())
        )
        print(f"store cluster serving (sites={args.sites})")
        for site, (host, port) in sorted(book.items()):
            print(f"  site {site}: {host}:{port}")
        print(f"\ndrive it with:  repro load --book {spec}")
        if args.duration:
            cluster.run_for(args.duration)
        else:
            print("Ctrl-C to stop")
            try:
                while True:
                    cluster.run_for(3600.0)
            except KeyboardInterrupt:
                print("\nstopping")
        return 0
    finally:
        cluster.close()


def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop load against an already-running store cluster."""
    from repro.workload.openloop import (
        LoadSpec,
        LoadTarget,
        OpenLoopLoad,
        slo_verdict,
    )

    book = args.addresses
    spec = LoadSpec(
        rate=args.rate,
        duration=args.duration,
        clients=args.clients,
        n_keys=args.keys,
        key_dist=args.dist,
        read_fraction=args.reads,
        history_fraction=args.history,
        read_mode=args.read_mode,
        seed=args.seed,
    )
    with LoadTarget(book) as target:
        print(
            f"offering {spec.rate:g} ops/s for {spec.duration:g}s "
            f"({spec.total_ops} ops, {spec.clients} connections, "
            f"{spec.key_dist} keys over {spec.n_keys}) at "
            + ", ".join(f"{h}:{p}" for h, p in book.values())
        )
        report = OpenLoopLoad(target, spec).run()
        verdict = slo_verdict(target, args.slo)
    _print_load_results(report, verdict, "s")
    if not report.completed:
        print("no operation completed: are the servers up?", file=sys.stderr)
        return 1
    return 0 if verdict.met or not args.slo_strict else 1


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Figure-2 checked workload on either runtime + unified metrics report."""
    from repro.obs.report import render_report
    from repro.workload.clients import MulticastClient, QueryClient
    from repro.workload.scenarios import figure2_scenario

    cluster = make_cluster(args.runtime, args.sites, app="db", seed=args.seed)
    try:
        report = run_checked_workload(
            cluster,
            figure2_scenario(),
            client_factories=[
                lambda c: MulticastClient(c, interval=20.0),
                lambda c: QueryClient(c, interval=30.0),
            ],
        )
        help_texts = cluster.metrics.help_texts()
    finally:
        cluster.close()
    title = (
        f"observability report (figure-2 workload, runtime={args.runtime} "
        f"sites={args.sites} seed={args.seed})"
    )
    print(render_report(report.metrics, trace=report.trace, title=title))
    _export_metrics(args, report.metrics, help_texts)
    return 0 if report.ok else 1


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """Live console over running realnet nodes' metric snapshots."""
    from repro.obs.watch import watch

    return watch(
        list(args.addresses.values()), interval=args.interval,
        count=args.count,
    )


def _run_trace_demo(runtime: str, sites: int, seed: int) -> list:
    """One client put + one partition/heal on a traced store cluster.

    The acceptance scenario behind ``obs trace --demo``: boots the
    versioned store with ``tracing=True``, drives a put through the
    client service (the root-span entry point), forces a view change
    with a partition/heal, and returns the flight-recorder dumps — the
    same span taxonomy on either runtime.
    """
    from repro.workload.scenarios import minority_split

    cluster = make_cluster(runtime, sites, app="store", seed=seed, tracing=True)
    try:
        scale = cluster.time_scale
        if not cluster.settle(timeout=600.0 * scale, poll=10.0 * scale):
            raise SystemExit("traced demo cluster failed to settle")
        if runtime == "sim":
            from repro.client.sim import SimStoreClient

            client = SimStoreClient(cluster)
            reply = client.put("k", "v").reply
        else:
            from repro.client.client import DriverStoreClient

            client = DriverStoreClient(cluster)
            reply = client.put("k", "v")
            client.close()
        if reply is None or reply.status != "ok":
            raise SystemExit(f"traced demo put failed: {reply}")
        cluster.partition(minority_split(sites))
        cluster.settle(timeout=600.0 * scale, poll=10.0 * scale)
        cluster.heal()
        cluster.settle(timeout=600.0 * scale, poll=10.0 * scale)
        return [recorder.dump() for recorder in cluster.flight_recorders()]
    finally:
        cluster.close()


def cmd_obs_trace(args: argparse.Namespace) -> int:
    """Merge flight-recorder dumps into causal trees and print them."""
    import asyncio

    from repro.obs.trace_analysis import (
        build_trees,
        render_trees,
        write_perfetto,
    )
    from repro.obs.tracing import load_dump

    dumps: list = []
    if args.demo:
        dumps += _run_trace_demo(args.runtime, args.sites, args.seed)
    for path in args.files or ():
        dumps += [load_dump(path)]
    if args.targets:
        from repro.obs.watch import fetch_traces

        targets = list(args.addresses.values())
        pulled = asyncio.run(fetch_traces(targets))
        for (host, port), dump in zip(targets, pulled):
            if dump is None:
                print(
                    f"note: {host}:{port} answered no trace "
                    "(down, or tracing off)", file=sys.stderr,
                )
        dumps += pulled
    if not args.demo and not args.files and not args.targets:
        raise SystemExit(
            "nothing to analyze: give HOST:PORT targets, --files dumps, "
            "or --demo"
        )
    trees = build_trees(dumps)
    if not trees:
        print("no spans found (is tracing enabled on the cluster?)")
        return 1
    print(render_trees(trees, limit=args.limit))
    if args.perfetto:
        write_perfetto(args.perfetto, trees)
        print(f"\nexported Perfetto trace-event JSON to {args.perfetto}")
    return 0


def _fuzz_config(args: argparse.Namespace, **overrides):
    """FuzzConfig from the shared ``fuzz`` argparse surface."""
    from repro.fuzz.engine import FuzzConfig

    iterations = args.iterations
    if iterations is None:
        # No explicit cap: bounded by the time budget if one was given,
        # else a small default so a bare `repro fuzz run` terminates.
        iterations = None if args.time_budget else 25
    checkers = tuple(args.checkers.split(",")) if args.checkers else None
    kwargs = dict(
        runtime=args.runtime,
        n_sites=args.sites,
        app=args.app,
        seed=args.seed,
        loss_prob=args.loss,
        iterations=iterations,
        time_budget_s=args.time_budget,
        checkers=checkers,
        planted_bug=args.plant,
        asymmetric=args.asymmetric,
        shrink_budget=args.shrink_budget,
        auto_shrink=not args.no_shrink,
    )
    kwargs.update(overrides)
    return FuzzConfig(**kwargs)


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    """Coverage-guided campaign; exits non-zero if any checker fired."""
    from repro.fuzz.corpus import Corpus
    from repro.fuzz.engine import FuzzEngine

    config = _fuzz_config(args)
    engine = FuzzEngine(config, corpus=Corpus(args.corpus), log=print)
    stats = engine.run()
    table = Table(
        f"fuzz campaign (runtime={config.runtime} sites={config.n_sites} "
        f"app={config.app} seed={config.seed})",
        ["metric", "value"],
    )
    table.add("iterations", stats.iterations)
    table.add("wall seconds", f"{stats.wall_s:.1f}")
    table.add("coverage features", stats.features)
    table.add("novel runs", stats.novel)
    table.add("failing runs", stats.failures)
    table.add("shrunk reproducers", len(stats.shrunk))
    table.add("corpus entries", len(engine.corpus.entries))
    table.show()
    if args.corpus:
        print(f"corpus saved under {args.corpus}")
    _export_metrics(args, engine.metrics.snapshot(source="fuzz"))
    if stats.first_failure is not None:
        print("\nfirst failure:")
        for violation in stats.first_failure.violations[:5]:
            print(f"  {violation}")
    return 1 if stats.failures else 0


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Replay a corpus entry; exits 0 iff its verdict reproduces."""
    from repro.fuzz.corpus import CorpusEntry
    from repro.fuzz.engine import FuzzEngine

    entry = CorpusEntry.load(args.entry)
    engine = FuzzEngine(_fuzz_config(args, iterations=0))
    ok, executed = engine.replay(entry)
    expected = ",".join(entry.failing_checkers) or "clean"
    got = ",".join(executed.failing_checkers) or "clean"
    print(f"entry {entry.entry_id}: expected [{expected}] got [{got}]")
    for violation in executed.violations[:5]:
        print(f"  {violation}")
    print("reproduced" if ok else "DID NOT reproduce")
    return 0 if ok else 1


def cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    """Shrink a failing entry to a minimal reproducer."""
    from repro.fuzz.corpus import CorpusEntry
    from repro.fuzz.engine import FuzzEngine

    entry = CorpusEntry.load(args.entry)
    engine = FuzzEngine(_fuzz_config(args, iterations=0))
    if not entry.failing_checkers:
        print("entry records no failing checkers; executing it first...")
        entry = engine.execute_entry(entry)
        if not entry.failing_checkers:
            print("entry does not fail: nothing to shrink")
            return 1
    before = len(entry.schedule.actions)
    shrunk, result = engine.shrink(entry, max_oracle_calls=args.shrink_budget)
    out = args.out or args.entry.replace(".json", "") + ".min.json"
    shrunk.save(out)
    print(
        f"shrunk {before} -> {len(shrunk.schedule.actions)} actions "
        f"in {result.oracle_calls} replays; wrote {out}"
    )
    for action in shrunk.schedule.actions:
        print(f"  {action!r}")
    return 0


def cmd_fuzz_corpus(args: argparse.Namespace) -> int:
    """Show what a corpus directory contains."""
    from repro.fuzz.corpus import Corpus

    corpus = Corpus(args.corpus)
    stats = corpus.stats()
    table = Table(f"fuzz corpus ({args.corpus})", ["metric", "value"])
    table.add("entries", stats["entries"])
    table.add("coverage features", stats["features"])
    table.add("failing entries", stats["failing"])
    for kind, count in sorted(stats["kinds"].items()):
        table.add(f"  kind={kind}", count)
    table.show()
    if corpus.failing:
        print("\nfailing entries:")
        for entry in corpus.failing:
            checkers = ",".join(entry.failing_checkers)
            print(
                f"  {entry.entry_id}: {checkers} "
                f"({len(entry.schedule.actions)} actions"
                + (f", bug={entry.planted_bug}" if entry.planted_bug else "")
                + ")"
            )
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    table = Table("paper experiments (pytest benchmarks/ --benchmark-only)",
                  ["id", "what it reproduces", "benchmark"])
    for exp_id, description, bench in EXPERIMENTS:
        table.add(exp_id, description, bench)
    table.show()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On Programming with View Synchrony' (ICDCS 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo",
        help="partition / SV-SetMerge / heal / SV-SetMerge walkthrough "
             "with property checks",
    )
    _shared(demo, "runtime", "scale", runtimes=IN_PROCESS_RUNTIMES,
            sites=5, seed=0)
    demo.set_defaults(func=cmd_demo)

    run = sub.add_parser("run", help="run a random fault schedule")
    _shared(run, "runtime", "loss", "asymmetric", "scale", "tracing",
            "metrics", "metrics_jsonl", sites=5, seed=0, app="none")
    run.add_argument("--duration", type=float, default=400.0)
    run.add_argument("--no-faults", action="store_true",
                     help="drop the generated fault schedule: a fault-free "
                          "run of --duration units (throughput/latency "
                          "measurement mode, usually with --client-rate)")
    run.add_argument("--fd-mode", choices=("heartbeat", "gossip"), default=None,
                     help="failure-detection plane (default: the stack "
                          "profile's choice, all-to-all heartbeats)")
    run.add_argument("--gossip-fanout", type=int, default=None,
                     help="digest fanout for --fd-mode gossip "
                          "(see docs/scaling.md for the timeout math)")
    run.add_argument("--client-rate", type=float, default=0.0,
                     metavar="OPS_PER_UNIT",
                     help="offer open-loop client load against the store "
                          "app at this rate (store ops per scenario unit; "
                          "~100 units/s of wall time on realnet).  Implies "
                          "--app store and runs the AckedWriteLoss and "
                          "ReplicaDivergence checkers over the merged trace")
    run.add_argument("--client-count", type=int, default=8,
                     help="client connections/identities for --client-rate")
    run.add_argument("--client-keys", type=int, default=1_000_000,
                     help="keyspace size for --client-rate")
    run.add_argument("--client-dist", choices=("zipfian", "uniform"),
                     default="zipfian",
                     help="key popularity distribution for --client-rate")
    run.add_argument("--client-reads", type=float, default=0.9,
                     help="fraction of client ops that are gets "
                          "(the rest are puts)")
    run.add_argument("--client-read-mode", choices=("any", "leader"),
                     default="any",
                     help="serve gets from any replica or the leader only")
    run.add_argument("--client-slo", type=float, default=50.0,
                     help="p99 latency target in scenario units "
                          "(for the SLO verdict line)")
    run.add_argument("--export", metavar="FILE", default=None,
                     help="write the trace as JSON lines to FILE")
    run.set_defaults(func=cmd_run)

    recheck = sub.add_parser("recheck", help="verify an exported trace file")
    recheck.add_argument("trace", help="JSON-lines trace produced by run --export")
    recheck.add_argument("--timeline", action="store_true",
                         help="render the per-process event timeline")
    recheck.set_defaults(func=cmd_recheck)

    check = sub.add_parser("check", help="property soak test over many seeds")
    _shared(check, "runtime", sites=5)
    check.add_argument("--runs", type=int, default=10)
    check.add_argument("--duration", type=float, default=300.0)
    check.set_defaults(func=cmd_check)

    realnet = sub.add_parser(
        "realnet", help="run the stacks over real TCP sockets"
    )
    realnet_sub = realnet.add_subparsers(dest="realnet_command", required=True)
    rnode = realnet_sub.add_parser(
        "node", help="one standalone node of a fixed-port deployment"
    )
    rnode.add_argument("--site", type=int, required=True)
    _shared(rnode, "base_port", "host", "scale", "book", "tracing",
            sites=3, seed=0)
    rnode.add_argument("--incarnation", type=int, default=0,
                       help="bump after a crash so the site rejoins fresh")
    rnode.add_argument("--supervised", action="store_true",
                       help="run under a ProcCluster parent: serve control "
                            "ops and wait for the boot op instead of "
                            "starting the stack immediately (requires "
                            "--book and --config)")
    rnode.add_argument("--config", default=None, metavar="JSON",
                       help="supervised mode: the parent's ClusterConfig "
                            "(replaces --seed/--scale/--tracing)")
    rnode.set_defaults(func=cmd_realnet_node)

    serve = sub.add_parser(
        "serve",
        help="boot a realnet store cluster and serve external clients "
             "(drive it with 'repro load' from another terminal)",
    )
    _shared(serve, "scale", sites=3, seed=0)
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="wall seconds to wait for the initial view")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many wall seconds "
                            "(0 = until Ctrl-C)")
    serve.set_defaults(func=cmd_serve)

    load = sub.add_parser(
        "load",
        help="open-loop client load against a running store cluster "
             "(see 'repro serve')",
    )
    _shared(load, "targets", "book", "host", "base_port", sites=3, seed=0)
    load.add_argument("--rate", type=float, default=200.0,
                      help="offered store ops per wall second")
    load.add_argument("--duration", type=float, default=10.0,
                      help="wall seconds of offered load")
    load.add_argument("--clients", type=int, default=8,
                      help="concurrent client connections/identities")
    load.add_argument("--keys", type=int, default=1_000_000,
                      help="keyspace size")
    load.add_argument("--dist", choices=("zipfian", "uniform"),
                      default="zipfian", help="key popularity distribution")
    load.add_argument("--reads", type=float, default=0.9,
                      help="fraction of ops that are gets")
    load.add_argument("--history", type=float, default=0.0,
                      help="fraction of ops that are history reads")
    load.add_argument("--read-mode", choices=("any", "leader"), default="any",
                      help="serve gets from any replica or the leader only")
    load.add_argument("--slo", type=float, default=1.0,
                      help="p99 latency target in wall seconds")
    load.add_argument("--slo-strict", action="store_true",
                      help="exit non-zero when the p99 target is missed")
    load.set_defaults(func=cmd_load)

    obs = sub.add_parser(
        "obs", help="observability: unified metrics report / live watch"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    oreport = obs_sub.add_parser(
        "report",
        help="run the figure-2 checked workload and print the unified "
             "metrics report (live registry vs trace aggregates)",
    )
    _shared(oreport, "runtime", "metrics", "metrics_jsonl",
            runtimes=IN_PROCESS_RUNTIMES, sites=6, seed=7)
    oreport.set_defaults(func=cmd_obs_report)
    owatch = obs_sub.add_parser(
        "watch",
        help="poll running realnet nodes for live metric snapshots "
             "(over their normal listening sockets)",
    )
    _shared(owatch, "targets", "host", "base_port", sites=3)
    owatch.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls")
    owatch.add_argument("--count", type=int, default=0,
                        help="stop after this many polls (0 = until Ctrl-C)")
    owatch.set_defaults(func=cmd_obs_watch)
    otrace = obs_sub.add_parser(
        "trace",
        help="reconstruct causal trees from flight-recorder dumps "
             "(live node pulls, dump files, or a built-in demo run) "
             "with critical paths and Perfetto export",
    )
    _shared(otrace, "runtime", "targets",
            runtimes=IN_PROCESS_RUNTIMES, sites=3, seed=7)
    otrace.add_argument("--files", nargs="+", metavar="FILE", default=None,
                        help="flight-recorder dump files (repro-flight-v1 "
                             "JSON, as written on checker violations)")
    otrace.add_argument("--demo", action="store_true",
                        help="run the acceptance scenario (one client put "
                             "+ one partition/heal view change) on a traced "
                             "--runtime cluster of --sites and analyze its "
                             "rings")
    otrace.add_argument("--limit", type=int, default=0,
                        help="print only the first N trees (0 = all)")
    otrace.add_argument("--perfetto", metavar="FILE", default=None,
                        help="also export Chrome/Perfetto trace-event JSON")
    otrace.set_defaults(func=cmd_obs_trace)

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided protocol fuzzer (see docs/fuzzing.md)"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    def _fuzz_common(p: argparse.ArgumentParser) -> None:
        _shared(p, "runtime", "loss", "asymmetric", sites=5, app="file", seed=0)
        p.add_argument("--iterations", type=int, default=None,
                       help="iteration budget (default 25, or unbounded "
                            "when --time-budget is given)")
        p.add_argument("--time-budget", type=float, default=None,
                       metavar="SECONDS", help="wall-clock budget")
        p.add_argument("--checkers", default=None, metavar="NAME[,NAME...]",
                       help="pluggable checkers to run (registry names or "
                            "module:attr specs; default: all registered)")
        p.add_argument("--plant", default=None, metavar="BUG",
                       help="arm a planted protocol bug (test-only hook; "
                            "see repro.fuzz.bugs.KNOWN_BUGS)")
        p.add_argument("--shrink-budget", type=int, default=80,
                       help="replay budget per automatic shrink")
        p.add_argument("--no-shrink", action="store_true",
                       help="collect failures without shrinking them")

    frun = fuzz_sub.add_parser(
        "run", help="fuzz until the iteration/time budget is spent"
    )
    _fuzz_common(frun)
    frun.add_argument("--corpus", default=None, metavar="DIR",
                      help="directory to persist/resume the corpus")
    _shared(frun, "metrics", "metrics_jsonl")
    frun.set_defaults(func=cmd_fuzz_run)

    freplay = fuzz_sub.add_parser(
        "replay", help="re-run one corpus entry and verify its verdict"
    )
    freplay.add_argument("entry", help="corpus entry JSON file")
    _fuzz_common(freplay)
    freplay.set_defaults(func=cmd_fuzz_replay)

    fshrink = fuzz_sub.add_parser(
        "shrink", help="minimize a failing entry to a reproducer"
    )
    fshrink.add_argument("entry", help="corpus entry JSON file")
    fshrink.add_argument("-o", "--out", default=None,
                         help="output file (default: <entry>.min.json)")
    _fuzz_common(fshrink)
    fshrink.set_defaults(func=cmd_fuzz_shrink)

    fcorpus = fuzz_sub.add_parser(
        "corpus", help="summarize a corpus directory"
    )
    fcorpus.add_argument("corpus", help="corpus directory")
    fcorpus.set_defaults(func=cmd_fuzz_corpus)

    experiments = sub.add_parser("experiments", help="list paper experiments")
    experiments.set_defaults(func=cmd_experiments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(flag in args for flag in ("book", "targets", "base_port")):
        try:
            args.addresses = _read_addresses(args)
        except ValueError as exc:
            parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
