"""Tests for the gossip failure-detection plane and the flush
aggregation tree — the scale profile's two dissemination structures
(see docs/scaling.md).

The headline property is the degenerate-regime equivalence: at fanout
>= universe-1 the gossip detector is, by construction, the all-to-all
heartbeat plane (same targets, same schedule, direct evidence only), so
a seeded run must produce *identical* installed-view sequences under
either plane.  CI runs that comparison at n=16 over a partition/heal
cycle.
"""

from __future__ import annotations

import random

import pytest

from repro.fd.gossip import GossipDetector, GossipDigest
from repro.fd.heartbeat import DetectorBase
from repro.gms.membership import MembershipConfig
from repro.runtime.cluster import Cluster, ClusterConfig
from repro.types import ProcessId
from repro.vsync.stack import StackConfig

from tests.conftest import assert_all_properties
from tests.test_fd_incremental import OWN, SITES, TIMEOUT, FakeStack


def _partition_heal_run(n: int, seed: int = 7, **knobs) -> Cluster:
    """Settle, cut the cluster in half, heal, settle again."""
    cluster = Cluster(n, config=ClusterConfig(seed=seed, **knobs))
    assert cluster.settle(timeout=500.0), cluster.views()
    half = n // 2
    cluster.partition([list(range(half)), list(range(half, n))])
    assert cluster.settle(timeout=500.0), cluster.views()
    cluster.heal()
    assert cluster.settle(timeout=500.0), cluster.views()
    return cluster


def _install_sequences(cluster: Cluster) -> dict:
    """Per-process ordered list of (view id, membership) installs."""
    seqs: dict = {}
    for event in cluster.gather_trace().view_installs():
        seqs.setdefault(event.pid, []).append((event.view_id, event.members))
    return seqs


def test_gossip_full_fanout_matches_heartbeat_install_sequences():
    """Satellite determinism gate: at fanout >= n-1 the gossip plane
    must be indistinguishable from all-to-all heartbeats — identical
    installed-view sequences at every process on a seeded run."""
    for n in (8, 16):
        heartbeat = _partition_heal_run(n, fd_mode="heartbeat")
        gossip = _partition_heal_run(n, fd_mode="gossip", gossip_fanout=n - 1)
        assert _install_sequences(heartbeat) == _install_sequences(gossip)


def test_gossip_sparse_fanout_settles_and_preserves_properties():
    """Fanout 4 at n=32 (a real epidemic regime: each interval reaches
    ~1/8 of the universe directly) still drives the full membership
    life cycle.  fd_timeout must cover an epidemic round trip —
    T*(log n / log(k+1)+2) ~ 21 at n=32, k=4, T=5 — so the scale
    profile's 45 has a 2x margin."""
    cluster = _partition_heal_run(
        32,
        fd_mode="gossip",
        gossip_fanout=4,
        stack=StackConfig(fd_timeout=45.0),
        trace_level="membership",
    )
    members = {p.site for p in cluster.stack_at(0).view.members}
    assert members == set(range(32))


def test_gossip_sparse_fanout_detects_crash_indirectly():
    """A crash must be detected even by sites the victim never gossiped
    to directly: suspicion spreads through the entries of third-party
    digests (the indirect-evidence path)."""
    cluster = Cluster(
        16,
        config=ClusterConfig(
            seed=3,
            fd_mode="gossip",
            gossip_fanout=3,
            stack=StackConfig(fd_timeout=45.0),
        ),
    )
    assert cluster.settle(timeout=500.0), cluster.views()
    victim = cluster.stack_at(5).pid
    cluster.crash(5)
    cluster.run_for(200.0)
    for stack in cluster.live_stacks():
        assert victim not in stack.fd.reachable()
        assert victim not in stack.view.members


#: Slander naming site 0, as ``(incarnation offset from its live one,
#: suspected?)``, and whether it must be refuted.  Only a suspicion
#: under the live incarnation is; an older incarnation's is stale, and
#: an own row the sender does not suspect is no slander at all.
SLANDER = [((0, True), True), ((-1, True), False), ((0, False), False)]


def _recovered_cluster(n: int, fanout: int) -> Cluster:
    """Settled, with site 0 on its second incarnation, so that an older
    incarnation of it exists to be slandered."""
    cluster = Cluster(
        n, config=ClusterConfig(seed=3, fd_mode="gossip", gossip_fanout=fanout)
    )
    assert cluster.settle(timeout=500.0)
    cluster.crash(0)
    cluster.run_for(50.0)
    cluster.recover(0)
    assert cluster.settle(timeout=500.0)
    assert cluster.stack_at(0).pid.incarnation == 1
    return cluster


def _slander(cluster: Cluster, offset: int, suspect: bool) -> GossipDigest:
    own = cluster.stack_at(0).pid
    return GossipDigest(
        cluster.stack_at(1).pid,
        None,
        rows=((0, (own.incarnation + offset, 1)),),
        suspects=frozenset({0}) if suspect else frozenset(),
    )


def test_gossip_refutation_bumps_counter_once_per_interval():
    """SWIM refutation: seeing ourselves suspected under our live
    incarnation pushes a fresh counter immediately — but at most once
    per interval, so a storm of stale suspicions cannot amplify."""
    for row, refutes in SLANDER:
        cluster = _recovered_cluster(8, fanout=2)
        detector = cluster.stack_at(0).fd
        assert isinstance(detector, GossipDetector)
        src = cluster.stack_at(1).pid
        slander = _slander(cluster, *row)
        before, sent_before = detector._counter, detector.digests_sent
        detector.on_digest(src, slander)
        assert detector._counter == before + refutes
        assert (detector.digests_sent > sent_before) == refutes
        sent_after = detector.digests_sent
        detector.on_digest(src, slander)  # within the same interval: ignored
        assert detector._counter == before + refutes
        assert detector.digests_sent == sent_after


def test_gossip_refutation_suppressed_at_full_fanout():
    """At fanout >= n-1 every peer hears us directly each interval, so
    refutation is suppressed (it would also break the bit-for-bit
    heartbeat equivalence the determinism test relies on)."""
    for row, _ in SLANDER:
        cluster = _recovered_cluster(4, fanout=3)
        detector = cluster.stack_at(0).fd
        src = cluster.stack_at(1).pid
        before = detector._counter
        detector.on_digest(src, _slander(cluster, *row))
        assert detector._counter == before


class _Recorded(GossipDetector):
    """The detector under test, logging what the comparison reads: the
    order of admissions and how often refutation was decided."""

    def __init__(self) -> None:
        stack = FakeStack()
        stack.fd = self
        super().__init__(stack, interval=5.0, timeout=TIMEOUT, fanout=3)
        self.admitted: list[ProcessId] = []
        self.refutations = 0

    def _admit(self, pid: ProcessId) -> None:
        self.admitted.append(pid)
        super()._admit(pid)

    def _refute(self) -> None:
        self.refutations += 1
        super()._refute()


class _PerRowOracle(_Recorded):
    """The receive rule before rows were filtered in bulk: one row at a
    time, each against the table as the loop has left it."""

    def on_digest(self, src: ProcessId, digest: GossipDigest) -> None:
        DetectorBase.on_digest(self, src, digest)
        if self.fanout >= self.stack.universe_size() - 1:
            return
        own = self.stack.pid
        refute = False
        for site, (incarnation, counter) in digest.rows:
            suspect = site in digest.suspects
            if site == own.site:
                if suspect and incarnation == own.incarnation:
                    refute = True
                continue
            key = (incarnation, counter)
            cur = self._counters.get(site)
            if cur is not None and key <= cur:
                continue
            self._counters[site] = key
            if site != src.site and not suspect:
                self._note_indirect(site, incarnation)
        if refute:
            self._refute()


def _row_key(rng: random.Random, cur, incarnation: int) -> tuple[int, int]:
    """A row for a site the table holds at ``cur``: newer, equal, older,
    or from a stale incarnation."""
    roll = rng.random()
    if cur is None or roll < 0.4:
        inc, counter = cur or (incarnation, 0)
        if rng.random() < 0.8:
            return (inc, counter + rng.randint(1, 3))
        return (inc + 1, 0)
    if roll < 0.6:
        return cur
    if roll < 0.8:
        return (cur[0], cur[1] - rng.randint(1, 3))
    return (max(0, incarnation - 1), rng.randrange(40))


def _random_digest(rng: random.Random, table: dict, incarnation: dict):
    """A digest from a random peer: its own row first, then a shuffled
    subset of the other sites (ours included, under our incarnation or
    an older one), one row per site, some of them suspected."""
    sender = rng.choice([s for s in range(SITES) if s != OWN.site])
    src = ProcessId(sender, incarnation[sender])
    rows = [(sender, _row_key(rng, table.get(sender), src.incarnation))]
    others = [s for s in range(SITES) if s != sender]
    rng.shuffle(others)
    for site in others[: rng.randrange(len(others) + 1)]:
        if site == OWN.site:
            rows.append((site, (OWN.incarnation - rng.randrange(2), rng.randrange(40))))
        else:
            rows.append((site, _row_key(rng, table.get(site), incarnation[site])))
    suspects = frozenset(
        site for site, _ in rows if rng.random() < (0.05 if site == sender else 0.3)
    )
    return src, GossipDigest(src, None, rows=tuple(rows), suspects=suspects)


@pytest.mark.parametrize("seed", range(12))
def test_gossip_merge_matches_per_row_rule(seed: int) -> None:
    """Differential test of the receive path: seeded random digests —
    rows newer, equal and older than the table, rows naming the sender,
    suspected rows, incarnations staler than the last one heard, and our
    own row suspected under our incarnation and under an older one —
    go to the detector and to an oracle applying the per-row rule; after
    each step both must agree on the table, the last-heard stamps, the
    reachable set, the order of admissions and the refutations.  Every
    push on either side is checked against its table by the stack."""
    rng = random.Random(seed)
    det, oracle = _Recorded(), _PerRowOracle()
    incarnation = {site: 0 for site in range(SITES)}
    incarnation[OWN.site] = OWN.incarnation
    for _ in range(400):
        roll = rng.random()
        if roll < 0.65:
            src, digest = _random_digest(rng, det._counters, incarnation)
            det.on_digest(src, digest)
            oracle.on_digest(src, digest)
        elif roll < 0.80:
            step = rng.uniform(0.0, TIMEOUT / 3)
            if rng.random() < 0.25:
                step = TIMEOUT * rng.uniform(0.9, 1.5)
            det.stack.scheduler.now += step
            oracle.stack.scheduler.now += step
        elif roll < 0.88:
            det._sweep()
            oracle._sweep()
        elif roll < 0.95:
            det._beat()
            oracle._beat()
        else:  # a peer recovered under a fresh identifier
            site = rng.choice([s for s in range(SITES) if s != OWN.site])
            incarnation[site] += 1
        assert list(det._counters.items()) == list(oracle._counters.items())
        assert det._last_heard == oracle._last_heard
        assert det.reachable() == oracle.reachable()
        assert det.admitted == oracle.admitted
        assert det.refutations == oracle.refutations
        assert det._counter == oracle._counter
    assert det.refutations > 0 and det.admitted
    assert det.stack.pushes == oracle.stack.pushes > 0


def test_scale_profile_partition_heal_preserves_properties():
    """The whole scale profile at once — gossip fanout 4 plus the
    fanout-8 flush aggregation tree — through a partition/heal cycle,
    with the Section 2 and Section 6 checkers on the full trace."""
    cluster = _partition_heal_run(
        24,
        fd_mode="gossip",
        gossip_fanout=4,
        stack=StackConfig(
            fd_timeout=45.0,
            membership=MembershipConfig(tree_fanout=8, flush_stall_timeout=90.0),
        ),
    )
    assert_all_properties(cluster.gather_trace())
    members = {p.site for p in cluster.stack_at(0).view.members}
    assert members == set(range(24))


def test_figure2_checked_workload_with_gossip():
    """The figure-2 schedule plus a multicast client under the gossip
    plane: every view-synchrony and enriched-view check must pass with
    zero violations, exactly as under heartbeats."""
    from repro.ports import make_cluster
    from repro.workload.clients import MulticastClient
    from repro.workload.runner import run_checked_workload
    from repro.workload.scenarios import figure2_scenario

    cluster = make_cluster(
        "sim", 6, seed=10, fd_mode="gossip", gossip_fanout=5
    )
    report = run_checked_workload(
        cluster,
        figure2_scenario(),
        client_factories=[lambda c: MulticastClient(c, interval=20.0)],
    )
    assert report.settled, cluster.views()
    assert report.violations == [], report.violations[:5]
    assert report.events_checked > 0
