"""The bootstrap hold: a process whose detector still learns the universe
epidemically holds its proposals until its reachable set settles
(``ViewAgreement._held``, docs/protocol.md §3).

* At scale the hold is what makes a cold bootstrap one view change per
  site: every site installs its singleton and then exactly one settled
  view, with next to no nacked or forwarded proposals.
* The cap keeps it live: a set that never stops changing holds the first
  proposal no longer than ``fd.timeout`` after its first change.
* Where every peer is heard directly (the heartbeat plane, gossip at full
  fanout) the hold is zero, so those planes run exactly as before.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.gms.membership import MembershipConfig, ViewAgreement
from repro.gms.messages import VcPropose
from repro.gms.view import View
from repro.ports import make_cluster
from repro.sim.stable_storage import SiteStorage
from repro.trace.events import ViewInstallEvent
from repro.types import ProcessId, ViewId
from repro.vsync.stack import StackConfig


def _scale_cluster(n: int):
    """The scale profile at ``n``: gossip at fanout 4, tree agreement at
    fanout 8, debounced expansion, a timeout covering an epidemic round."""
    return make_cluster(
        "sim",
        n,
        seed=7,
        stack=StackConfig(
            fd_timeout=45.0,
            membership=MembershipConfig(tree_fanout=8, expand_debounce=6.0),
        ),
        fd_mode="gossip",
        gossip_fanout=4,
    )


def test_scale_bootstrap_is_one_settled_view_per_site():
    n = 48
    cluster = _scale_cluster(n)
    assert cluster.settle()
    installs = defaultdict(list)
    for event in cluster.gather_trace().of_type(ViewInstallEvent):
        installs[event.pid.site].append(event)
    final = cluster.stacks[0].membership.view
    assert len(final.members) == n
    for site in range(n):
        singleton, *rest = installs[site]
        assert singleton.members == frozenset({singleton.pid}), site
        assert [e.view_id for e in rest] == [final.view_id], site
    # Without the hold this bootstrap sends 456 nacks and 611 proposes
    # (two to three installs per site); with it, a handful each.
    sends = cluster.network_stats().by_type
    assert sends.get("VcNack", 0) <= n // 4
    assert sends.get("VcPropose", 0) <= n // 2


class _FakeDetector:
    """A detector whose reachable set the test sets by hand."""

    def __init__(self, own: ProcessId, settle_hold: float) -> None:
        self.settle_hold = settle_hold
        self.timeout = 45.0
        self.set = frozenset({own})

    def reachable(self) -> frozenset[ProcessId]:
        return self.set

    def view_disagreement(self, since: float = 0.0) -> bool:
        return False


class _FakeStack:
    """Just enough of a ``GroupStack`` for the trigger logic: a clock the
    test advances, one-shot timers, and a record of what was sent."""

    def __init__(self, settle_hold: float) -> None:
        self.pid = ProcessId(3)
        self.now = 0.0
        self.obs = None
        self.storage = SiteStorage(3)
        self.fd = _FakeDetector(self.pid, settle_hold)
        self.sent: list[tuple[float, ProcessId, object]] = []
        self._timers: list[list] = []

    def set_timer(self, delay, callback):
        timer = [self.now + delay, callback]
        self._timers.append(timer)
        return timer

    def send(self, dst, payload) -> None:
        self.sent.append((self.now, dst, payload))

    def advance_to(self, t: float) -> None:
        while True:
            due = [tm for tm in self._timers if tm[0] <= t]
            if not due:
                break
            timer = min(due, key=lambda tm: tm[0])
            self._timers.remove(timer)
            self.now = timer[0]
            timer[1]()
        self.now = t


def _agreement(settle_hold: float) -> tuple[_FakeStack, ViewAgreement]:
    stack = _FakeStack(settle_hold)
    agreement = ViewAgreement(stack)  # type: ignore[arg-type]
    agreement.view = View(ViewId(1, stack.pid), frozenset({stack.pid}))
    return stack, agreement


def _set_reachable(stack, agreement, sites) -> None:
    stack.fd.set = frozenset({stack.pid, *(ProcessId(s) for s in sites)})
    agreement.on_fd_change()


def _first_propose(stack) -> float:
    times = [t for t, _, payload in stack.sent if isinstance(payload, VcPropose)]
    assert times, "no proposal left"
    return times[0]


def test_flapping_detector_cannot_starve_the_first_proposal():
    stack, agreement = _agreement(settle_hold=5.0)
    t = 0.0
    flip = False
    while t <= 80.0:
        stack.advance_to(t)
        # A change every half interval, for the whole run.
        _set_reachable(stack, agreement, (0, 1, 2) if flip else (0, 1))
        flip = not flip
        t += 2.5
    stack.advance_to(80.0)
    first = _first_propose(stack)
    assert first == pytest.approx(stack.fd.timeout)  # the cap, not later
    assert stack.sent[0][1] == ProcessId(0)  # to the least candidate


def test_settled_set_releases_the_proposal_one_hold_after_its_last_change():
    stack, agreement = _agreement(settle_hold=5.0)
    for t, sites in ((0.0, (4,)), (3.0, (4, 5)), (6.0, (0, 4, 5))):
        stack.advance_to(t)
        _set_reachable(stack, agreement, sites)
    stack.advance_to(10.9)
    assert stack.sent == []
    stack.advance_to(30.0)
    assert _first_propose(stack) == pytest.approx(11.0)


def test_a_view_member_not_yet_heard_of_waits_for_the_window_to_close():
    stack, agreement = _agreement(settle_hold=5.0)
    members = frozenset(ProcessId(s) for s in (0, 3, 4, 5))
    agreement.view = View(ViewId(2, ProcessId(0)), members)
    stack.advance_to(1.0)
    _set_reachable(stack, agreement, (0, 4))  # 5 is not heard of yet
    stack.advance_to(40.0)
    assert stack.sent == []
    stack.advance_to(60.0)
    assert _first_propose(stack) == pytest.approx(1.0 + stack.fd.timeout)


def test_zero_hold_proposes_at_once():
    stack, agreement = _agreement(settle_hold=0.0)
    stack.advance_to(2.0)
    _set_reachable(stack, agreement, (0,))
    assert _first_propose(stack) == 2.0


def test_hold_is_one_interval_only_on_sparse_gossip():
    def hold(n: int, **knobs) -> float:
        cluster = make_cluster("sim", n, seed=1, **knobs)
        return cluster.stacks[1].fd.settle_hold

    assert hold(6) == 0.0  # heartbeat plane
    assert hold(6, fd_mode="gossip", gossip_fanout=5) == 0.0  # full fanout
    assert hold(6, fd_mode="gossip", gossip_fanout=2) == 5.0  # one interval
