"""Epidemic (gossip) failure detector.

The all-to-all heartbeat plane costs O(n²) messages per interval — fine
at a dozen sites, prohibitive at hundreds.  This module replaces the
beacon with van Renesse-style gossip: each site keeps a monotonically
increasing *liveness counter* per known site and, every interval, pushes
its whole table — ``(site, (incarnation, counter))`` rows plus the set of
sites it suspects — to ``fanout`` peers sampled from the universe.  Fresh
counters spread epidemically, reaching every site in O(log n / log
fanout) intervals with O(n·fanout) messages per interval total.

Receiving a digest yields two kinds of evidence:

* **direct** — the sender itself is alive (the stack already feeds every
  delivery through :meth:`DetectorBase.heard`); the digest additionally
  carries the sender's view id and traffic positions, so the in-view
  loss-repair piggyback of the heartbeat plane works unchanged;
* **indirect** — a row whose ``(incarnation, counter)`` is *strictly
  newer* than our recorded one proves the named site was alive recently
  enough for its fresh counter to have gossiped here; we refresh its
  last-heard stamp without ever exchanging a message with it.

Suspicion piggybacks SWIM-style: the digest names the sites the sender
currently believes unreachable, and a site seeing itself
suspected under its own incarnation bumps its counter and gossips
immediately (rate-limited to once per interval), so a false suspicion is
refuted in one epidemic round instead of lingering until the suspect
happens to be sampled.

**Determinism at full fanout.**  When ``fanout >= |universe| - 1`` the
detector degenerates, by construction, to the all-to-all plane: digests
go to every other site at exactly the times heartbeats would (same
phase-offset schedule), direct evidence drives ``heard()`` identically,
and indirect evidence never fires — a relayed counter arrives at least
one beat after the origin's own digest delivered it directly, so the
strictly-newer test always fails.  Refutation is suppressed in this
regime (our own direct digests already reach everyone every interval).
Trace-level determinism tests compare installed-view sequences of the
two planes at small n on this property.

The failure timeout must cover a whole epidemic propagation, not one
hop: with interval ``T`` and fanout ``k``, a counter reaches all ``n``
sites in about ``log(n)/log(k+1)`` rounds, so choose ``timeout ≳ T *
(log(n)/log(k+1) + 2)``.  See docs/scaling.md for the worked table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fd.heartbeat import DetectorBase
from repro.types import ProcessId, SiteId, ViewId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack


@dataclass(frozen=True)
class GossipDigest:
    """The periodic liveness push.

    Like :class:`~repro.fd.heartbeat.Heartbeat` it carries the sender's
    view id and traffic positions (``last_seqno`` / ``eview_seq``) so
    the stack's in-view loss repair works identically under either
    plane.  ``rows`` adds its liveness table, ``(site, (incarnation,
    counter))`` with its own row first, and ``suspects`` the sites of
    that table it has not heard within its timeout, or never.
    """

    sender: ProcessId
    view_id: ViewId | None
    last_seqno: int = 0
    eview_seq: int = 0
    rows: tuple[tuple[SiteId, tuple[int, int]], ...] = ()
    suspects: frozenset[SiteId] = frozenset()


class GossipDetector(DetectorBase):
    """Gossip-flavoured failure detector; same surface as the heartbeat
    detector, O(n·fanout) messages per interval instead of O(n²)."""

    def __init__(
        self,
        stack: "GroupStack",
        interval: float = 5.0,
        timeout: float = 16.0,
        fanout: int = 3,
    ) -> None:
        super().__init__(stack, interval=interval, timeout=timeout)
        if fanout < 1:
            raise ValueError(f"gossip fanout must be >= 1, got {fanout}")
        self.fanout = fanout
        # Liveness table: site -> (incarnation, counter).  Own counter
        # advances once per beat; peers' rows advance as digests arrive.
        # Our own site never enters it.
        self._counters: dict[SiteId, tuple[int, int]] = {}
        self._counter = 0
        self._last_refute = -1e18
        # Peer sampling is detector-local and seeded from the process
        # identifier, so a run is reproducible without threading the
        # cluster seed through the stack.
        self._rng = random.Random(
            (stack.pid.site << 20) ^ (stack.pid.incarnation << 4) ^ 0x9E3779B9
        )
        self.digests_sent = 0

    @property
    def settle_hold(self) -> float:  # type: ignore[override]
        """One interval below full fanout, where peers are learnt hop by
        hop and a first estimate is partial; zero at full fanout, where
        the plane is the heartbeat plane (module docstring)."""
        if self.fanout >= self.stack.universe_size() - 1:
            return 0.0
        return self.interval

    # -- sending ----------------------------------------------------------

    def _targets(self) -> list[SiteId]:
        own = self.stack.pid.site
        others = [s for s in self.stack.universe_sites() if s != own]
        if self.fanout >= len(others):
            return others  # degenerate all-to-all regime
        return self._rng.sample(others, self.fanout)

    def _beat(self) -> None:
        self._counter += 1
        self._push(self._targets())
        if self.on_beat is not None:
            self.on_beat()

    def _push(self, targets: list[SiteId]) -> None:
        if not targets:
            return
        own = self.stack.pid
        now = self.stack.now
        if now - self._oldest <= self.timeout:
            # Inside the bound (DetectorBase) every reachable peer is
            # fresh, and a site outside the set was never heard or has
            # not been heard since it expired: the suspects are exactly
            # the table's sites the set lacks.
            suspects = frozenset(self._counters.keys() - self._reachable_incs.keys())
        else:
            last_heard = self._last_heard.get
            suspects = frozenset([
                site for site in self._counters
                if (seen := last_heard(site)) is None or now - seen[0] > self.timeout
            ])
        digest = GossipDigest(
            own,
            self.stack.current_view_id(),
            last_seqno=self.stack.channels.own_seqno(),
            eview_seq=self.stack.evs.applied_seq,
            rows=((own.site, (own.incarnation, self._counter)), *self._counters.items()),
            suspects=suspects,
        )
        self.stack.send_sites(targets, digest)
        self.digests_sent += len(targets)
        obs = self.stack.obs
        if obs is not None:
            obs.gossip_digest_sent(own, len(targets))

    # -- receiving --------------------------------------------------------

    def on_digest(self, src: ProcessId, digest: GossipDigest) -> None:
        super().on_digest(src, digest)
        if self.fanout >= self.stack.universe_size() - 1:
            # Degenerate all-to-all regime: every site hears every other
            # directly each interval, so indirect evidence adds nothing
            # in steady state — and across a partition heal it *would*
            # fire (the far side's counters advanced during the cut),
            # breaking bit-for-bit equivalence with the heartbeat plane.
            # Direct evidence only, exactly like a heartbeat.
            return
        # Only rows strictly newer than the table (against a (-1, -1)
        # sentinel) reach the loop.  Our own site never enters the table,
        # so a row naming it always passes: refutation is decided here.
        known = self._counters.get
        fresh = [row for row in digest.rows if row[1] > known(row[0], (-1, -1))]
        own = self.stack.pid
        suspects = digest.suspects
        refute = False
        for site, key in fresh:
            if site == own.site:
                if key[0] == own.incarnation and site in suspects:
                    refute = True
                continue
            self._counters[site] = key
            if site != src.site and site not in suspects:
                # Indirect evidence: a strictly fresher counter proves
                # the named site beat recently enough for the update to
                # gossip here.  Never fires in the degenerate full-fanout
                # regime — the origin's own digest always lands first.
                self._note_indirect(site, key[0])
        if refute:
            self._refute()

    def _note_indirect(self, site: SiteId, incarnation: int) -> None:
        prev = self._last_heard.get(site)
        if prev is not None and prev[1].incarnation > incarnation:
            return  # stale incarnation; ignore
        if prev is not None and prev[1].incarnation == incarnation:
            pid = prev[1]  # reuse: keeps identity-based fast paths hot
        else:
            pid = ProcessId(site, incarnation)
        self._last_heard[site] = (self.stack.scheduler.now, pid)
        if self._reachable_incs.get(site) != incarnation:
            self._admit(pid)

    def _refute(self) -> None:
        """SWIM refutation: we are being suspected under our live
        incarnation — push a fresh counter immediately so the rumor dies
        in one epidemic round.  Never at full fanout, where every peer
        already hears us directly each interval (and where the extra
        send would break bit-for-bit equivalence with the heartbeat
        plane): :meth:`on_digest` returns before reading a row there."""
        now = self.stack.now
        if now - self._last_refute < self.interval:
            return
        self._last_refute = now
        self._counter += 1
        self._push(self._targets())
