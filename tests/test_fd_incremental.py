"""Differential test of the incrementally kept reachable set.

One detector on a fake stack is driven through seeded random sequences
of everything that touches the set — direct and indirect evidence, new
and stale incarnations, clock advances short of and past the timeout,
sweeps, forced expiries — and after every step compared with an oracle
that lives here, not in ``src/``: the rebuild-from-scratch rule the
detector used before it learned to change one element at a time.  A
gossip detector also pushes a digest after every step, and each one is
checked against the table it was cut from.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.fd.gossip import GossipDetector
from repro.fd.heartbeat import DetectorBase
from repro.types import ProcessId

TIMEOUT = 16.0
SITES = 12
OWN = ProcessId(3, 1)


class FakeStack:
    """What a detector reads off its stack here.  ``fd`` is the detector
    it carries, like the real stack's; every gossip digest it is asked
    to send is checked against that detector's table on the spot."""

    def __init__(self) -> None:
        self.pid = OWN
        self.scheduler = SimpleNamespace(now=0.0)
        self.channels = SimpleNamespace(own_seqno=lambda: 0)
        self.evs = SimpleNamespace(applied_seq=0)
        self.obs = None
        self.fd: DetectorBase | None = None
        self.pushes = 0

    @property
    def now(self) -> float:
        return self.scheduler.now

    def current_view_id(self) -> None:
        return None

    def universe_sites(self) -> range:
        return range(SITES)

    def universe_size(self) -> int:
        return SITES

    def send_sites(self, sites, digest) -> None:
        assert_digest_is_table(self.fd, digest)
        self.pushes += 1


def assert_digest_is_table(det: GossipDetector, digest) -> None:
    """A digest is the sender's table at the instant of the push: its own
    row, then ``_counters`` in insertion order with the very key objects
    stored there, and as suspects exactly the sites of that table not
    heard within the timeout (or never heard)."""
    own = det.stack.pid
    assert digest.rows[0] == (own.site, (own.incarnation, det._counter))
    rest = digest.rows[1:]
    assert [site for site, _ in rest] == list(det._counters)
    assert all(key is det._counters[site] for site, key in rest)
    now = det.stack.now
    assert digest.suspects == {
        site
        for site in det._counters
        if site not in det._last_heard or now - det._last_heard[site][0] > det.timeout
    }


def detector(cls, **knobs) -> DetectorBase:
    stack = FakeStack()
    stack.fd = cls(stack, interval=5.0, timeout=TIMEOUT, **knobs)
    return stack.fd


class Oracle:
    """The old algorithm: rebuild the whole set from ``_last_heard``
    whenever evidence arrives for somebody outside it, whenever a sweep
    finds a member expired, and on a forced expiry."""

    def __init__(self, det: DetectorBase) -> None:
        self.det = det
        self.cache = frozenset({OWN})

    def fresh(self) -> frozenset[ProcessId]:
        now = self.det.stack.now
        return frozenset({OWN}) | {
            pid
            for site, (when, pid) in self.det._last_heard.items()
            if site != OWN.site and now - when <= TIMEOUT
        }

    def evidence(self, pid: ProcessId) -> None:
        known = self.det._last_heard.get(pid.site)
        # Accepted (not stale) and not a member yet -> rebuild.
        if known is not None and known[1] == pid and pid not in self.cache:
            self.cache = self.fresh()

    def sweep(self) -> None:
        if not self.cache <= self.fresh():
            self.cache = self.fresh()

    def force_down(self) -> None:
        self.cache = self.fresh()


def _drive(det: DetectorBase, seed: int, steps: int = 600) -> None:
    rng = random.Random(seed)
    stack = det.stack
    oracle = Oracle(det)
    fired = []
    det.on_change = lambda: fired.append(stack.now)
    incarnation = {site: 0 for site in range(SITES)}
    indirect = isinstance(det, GossipDetector)

    def evidence(pid: ProcessId) -> None:
        if indirect and rng.random() < 0.5:
            det._note_indirect(pid.site, pid.incarnation)
        else:
            det.heard(pid)
        oracle.evidence(pid)

    for _ in range(steps):
        before = oracle.cache
        fired.clear()
        roll = rng.random()
        site = rng.randrange(SITES)
        if roll < 0.45:
            evidence(ProcessId(site, incarnation[site]))
        elif roll < 0.53:  # the site recovered under a fresh identifier
            incarnation[site] += 1
            evidence(ProcessId(site, incarnation[site]))
        elif roll < 0.60:  # a straggler from an earlier incarnation
            evidence(ProcessId(site, max(0, incarnation[site] - 1)))
        elif roll < 0.75:  # short of the timeout
            stack.scheduler.now += rng.uniform(0.0, TIMEOUT / 3)
        elif roll < 0.80:  # past it
            stack.scheduler.now += TIMEOUT * rng.uniform(0.9, 1.5)
        elif roll < 0.95:
            det._sweep()
            oracle.sweep()
        else:
            det.force_down(site)
            oracle.force_down()

        if indirect:
            det._push([0])
        assert det.reachable() == oracle.cache
        assert det._reachable_incs == {p.site: p.incarnation for p in oracle.cache}
        assert bool(fired) == (oracle.cache != before)
        assert len(fired) <= 1
        # The shortcut's own invariant: a lower bound on every member's stamp.
        stamps = [
            det._last_heard[p.site][0] for p in det.reachable() if p.site != OWN.site
        ]
        assert all(det._oldest <= stamp for stamp in stamps)
    assert stack.pushes == (steps if indirect else 0)


@pytest.mark.parametrize("seed", range(12))
def test_base_detector_matches_rebuild_from_scratch(seed: int) -> None:
    _drive(detector(DetectorBase), seed)


@pytest.mark.parametrize("seed", range(12))
def test_gossip_detector_matches_rebuild_from_scratch(seed: int) -> None:
    _drive(detector(GossipDetector, fanout=3), seed)


def test_most_arrivals_do_not_rebuild() -> None:
    """The point of the exercise: peers trickling in inside one timeout
    cost one element each, not one rebuild each."""
    det = detector(DetectorBase)
    for site in range(40):
        if site != OWN.site:
            det.stack.scheduler.now += 0.1
            det.heard(ProcessId(site, 0))
    assert len(det.reachable()) == 40
    assert det.full_rebuilds == 0
