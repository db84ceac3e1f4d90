"""Heartbeat failure detector.

Every process periodically sends a :class:`Heartbeat` to every site in
the universe, except to the view members its latest multicast reached
within the last interval: that message names everything the beat would
(:meth:`HeartbeatDetector._beat`).  The detector considers a site
reachable iff it heard from it (any message counts) recently enough;
the freshest incarnation heard wins, which is how a
recovered process (fresh identifier, same site) replaces its predecessor
in everyone's estimates without any extra mechanism.

Heartbeats carry the sender's current view identifier.  A heartbeat from
a reachable process whose view differs from ours is evidence that the
component disagrees about membership — the detector surfaces it so the
membership service can trigger a reconciling view change (this is the
anti-divergence rule described in DESIGN.md §4.1).

The all-to-all beacon costs O(n²) messages per interval, which is fine
up to a few dozen sites; :class:`~repro.fd.gossip.GossipDetector` (a
subclass of the :class:`DetectorBase` defined here) replaces the beacon
with an epidemic digest push for larger clusters.  Both detectors expose
the same surface, so the rest of the stack never knows which one runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.types import ProcessId, SiteId, ViewId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsync.stack import GroupStack

#: "No reachable peer": the oldest stamp of an empty set.
_NEVER = float("inf")


@dataclass(frozen=True)
class Heartbeat:
    """I-am-alive beacon: sender's identifier and current view.

    ``last_seqno`` (the sender's own multicast count in its current
    view) and ``eview_seq`` (its applied e-view change count) piggyback
    so receivers can detect losses inside a *stable* view — without
    them, a dropped multicast or e-view change would only be repaired
    by the next view change, stalling the victim indefinitely.
    """

    sender: ProcessId
    view_id: ViewId | None
    last_seqno: int = 0
    eview_seq: int = 0


class DetectorBase:
    """State and queries shared by every failure-detector flavour.

    Subclasses implement :meth:`_beat` (what goes on the wire each
    interval).  Everything else — the last-heard table, the reachability
    cache, view-disagreement detection and the expiry sweep — is flavour
    independent.

    The reachable set is kept incrementally.  ``_oldest`` is a lower
    bound on the oldest last-heard stamp among the reachable peers,
    exact after every full rebuild (:meth:`_refresh`) and after every
    sweep that walks the set.  It stays a valid bound in between because
    **stamps only grow**: a site's entry is only ever overwritten with
    the current time (or removed by :meth:`force_down`, which rebuilds).
    While ``now - _oldest <= timeout`` no reachable peer can have
    expired, and a peer outside the set expired at the rebuild that
    dropped it and has not been heard since — so a peer entering changes
    exactly one element (:meth:`_admit`) and a sweep has nothing to do.
    Past the bound, both fall back to the full rebuild, which is also
    what expires whoever timed out when an arrival triggers it.
    """

    #: How long the reachable set must stay unchanged, while this
    #: detector is still learning its peers, before the process proposes
    #: a view (``ViewAgreement._held``).  Zero here: every peer is heard
    #: directly within one interval, so no estimate is partial for long.
    #: Sparse gossip overrides it.
    settle_hold = 0.0

    def __init__(
        self,
        stack: "GroupStack",
        interval: float = 5.0,
        timeout: float = 16.0,
    ) -> None:
        self.stack = stack
        self.interval = interval
        self.timeout = timeout
        self._last_heard: dict[SiteId, tuple[float, ProcessId]] = {}
        # One entry per site — the newest incarnation heard — so the
        # table is bounded by the universe, not by incarnations ever met.
        self._heard_views: dict[SiteId, tuple[float, ProcessId, ViewId | None]] = {}
        self._reachable_cache: frozenset[ProcessId] = frozenset({stack.pid})
        # Int mirror of the cache (site -> incarnation): the per-message
        # "already reachable?" probe must not pay a ProcessId hash.
        self._reachable_incs: dict[SiteId, int] = {
            stack.pid.site: stack.pid.incarnation
        }
        self._oldest = _NEVER
        self.on_change: Callable[[], None] | None = None
        #: Called at the end of every beat tick (the stack wires the
        #: application's :meth:`~repro.vsync.events.GroupApplication.
        #: on_beat` here).
        self.on_beat: Callable[[], None] | None = None
        # Work accounting for the perf regression tests, cumulative:
        # entries examined by the periodic sweep (must stay O(live
        # peers), not O(every site ever heard)) and full rebuilds of the
        # reachable set (must stay O(sweeps + expiries), not O(peers
        # learned)).
        self.sweep_examined = 0
        self.full_rebuilds = 0
        # Heartbeat copies a just-sent multicast stood in for
        # (HeartbeatDetector._beat; the gossip plane never skips one).
        self.beats_skipped = 0

    def start(self) -> None:
        """Arm the beacon and sweep timers.

        The periodic timers are staggered by a deterministic per-process
        phase offset within one interval: without it, every process a
        cluster starts at the same instant beats at the same virtual
        times forever, and each beat tick lands n*(n-1) deliveries on a
        single instant — a pathological same-tick burst the real systems
        being modelled never exhibit.  The offset is a pure function of
        the process identifier, so runs stay reproducible.
        """
        phase = self._phase_offset()
        self.stack.set_timer(phase, self._arm_periodic)
        self._beat()

    def _phase_offset(self) -> float:
        # Golden-ratio hashing spreads consecutive site numbers (and
        # successive incarnations at one site) evenly over the interval.
        pid = self.stack.pid
        frac = (pid.site * 0.6180339887498949 + pid.incarnation * 0.3819660112501051) % 1.0
        return self.interval * frac

    def _arm_periodic(self) -> None:
        self.stack.set_periodic(self.interval, self._beat)
        self.stack.set_periodic(self.interval, self._sweep)
        self._beat()

    # -- sending ----------------------------------------------------------

    def _beat(self) -> None:
        raise NotImplementedError

    # -- receiving --------------------------------------------------------

    def heard(self, src: ProcessId) -> None:
        """Register life evidence for ``src`` (any message counts).

        Fast path: when ``src`` is already in the reachable estimate,
        hearing it again can only refresh its timestamp — no need to
        rebuild the estimate (this runs on *every* message delivery, so
        it must not allocate).  Entries that time out are expired by the
        periodic sweep instead.
        """
        site = src.site
        prev = self._last_heard.get(site)
        if prev is not None and prev[1].incarnation > src.incarnation:
            return  # stale incarnation; ignore
        self._last_heard[site] = (self.stack.scheduler.now, src)
        if self._reachable_incs.get(site) != src.incarnation:
            self._admit(src)

    def _admit(self, pid: ProcessId) -> None:
        """``pid`` was just stamped and is not in the reachable set.

        Inside the bound (see the class docstring) it is the only
        element that changes: it joins, displacing an older incarnation
        of its site.  Past the bound — or for a sibling incarnation of
        our own site, which never counts as a peer — rebuild.
        """
        site = pid.site
        now = self.stack.now
        if now - self._oldest > self.timeout or site == self.stack.pid.site:
            self._refresh()
            return
        cache = self._reachable_cache
        old = self._reachable_incs.get(site)
        if old is not None:
            cache = cache - {ProcessId(site, old)}
        self._reachable_cache = cache | {pid}
        self._reachable_incs[site] = pid.incarnation
        if now < self._oldest:
            self._oldest = now  # the first peer: its stamp is the oldest
        if self.on_change is not None:
            self.on_change()

    def _sweep(self) -> None:
        """Expire timed-out peers.

        Nothing to do inside the bound.  Past it, only the
        currently-reachable peers need examining: a site that is *not*
        in the cache can only enter it through :meth:`heard` (which
        admits it immediately), so its ``_last_heard`` entry is
        irrelevant to the sweep.  This keeps sweep work O(live peers)
        even when the universe holds hundreds of long-dead or
        partitioned sites.  A walk that finds nobody expired leaves the
        bound exact again.
        """
        now = self.stack.now
        if now - self._oldest <= self.timeout:
            return
        own_site = self.stack.pid.site
        last_heard = self._last_heard
        oldest = _NEVER
        expired = False
        examined = 0
        for site in self._reachable_incs:
            if site == own_site:
                continue
            examined += 1
            entry = last_heard.get(site)
            if entry is None or now - entry[0] > self.timeout:
                expired = True
                break
            if entry[0] < oldest:
                oldest = entry[0]
        self.sweep_examined += examined
        if expired:
            self._refresh()
        else:
            self._oldest = oldest

    def beacon(self, src: ProcessId, view_id: ViewId | None) -> None:
        """A multicast of a newer view than ours names ``src``'s view.
        Its sender ``src`` need not be the network source the stack
        heard, so record the view and hear ``src`` too."""
        self.note_view(src, view_id)
        self.heard(src)

    def note_view(self, src: ProcessId, view_id: ViewId | None) -> None:
        """Record the view ``src`` names.  An incarnation :meth:`heard`
        rejects as stale leaves no view behind either."""
        known = self._last_heard.get(src.site)
        if known is None or known[1].incarnation <= src.incarnation:
            self._heard_views[src.site] = (self.stack.now, src, view_id)

    def on_digest(self, src: ProcessId, digest) -> None:
        """A gossip digest arrived from ``src``, which the stack has
        already :meth:`heard` (it hears every network source).  The
        base treatment (used when a heartbeat-plane node shares a
        cluster with gossip-plane nodes) records the view it names; the
        gossip detector overrides this to mine the rows too."""
        self.note_view(src, digest.view_id)

    def force_down(self, site: SiteId) -> None:
        """Expire a site immediately (used for graceful leaves)."""
        self._last_heard.pop(site, None)
        self._refresh()

    def _refresh(self) -> None:
        """Full rebuild: the reachable set from ``_last_heard``, and the
        exact oldest stamp among those who made it."""
        self.full_rebuilds += 1
        now = self.stack.now
        own_site = self.stack.pid.site
        alive = {self.stack.pid}
        oldest = _NEVER
        for site, (when, pid) in self._last_heard.items():
            if site == own_site:
                continue
            if now - when <= self.timeout:
                alive.add(pid)
                if when < oldest:
                    oldest = when
        self._oldest = oldest
        new_cache = frozenset(alive)
        if new_cache != self._reachable_cache:
            self._reachable_cache = new_cache
            self._reachable_incs = dict(new_cache)  # pids are (site, incarnation)
            if self.on_change is not None:
                self.on_change()

    # -- queries ----------------------------------------------------------

    def reachable(self) -> frozenset[ProcessId]:
        """Current estimate of reachable processes (always includes self)."""
        return self._reachable_cache

    def suspects(self, pids: frozenset[ProcessId]) -> frozenset[ProcessId]:
        """The subset of ``pids`` currently *not* believed reachable."""
        return pids - self._reachable_cache

    def heard_view(self, pid: ProcessId) -> ViewId | None:
        """Last view identifier heard from ``pid`` (None if never, or if
        a newer incarnation of its site has been heard since).

        A peer that delivered a multicast to us in our current view has
        installed it, though every beat it sent since may have been
        skipped (:meth:`HeartbeatDetector._beat`): that view counts as
        heard, read off the channel's delivered prefix at query time.
        """
        entry = self._heard_views.get(pid.site)
        heard = None
        if entry is not None:
            if entry[1].incarnation > pid.incarnation:
                return None
            if entry[1].incarnation == pid.incarnation:
                heard = entry[2]
        shown = self.stack.channels.delivered_view(pid)
        if shown is not None and (heard is None or heard < shown):
            return shown
        return heard

    def view_disagreement(self, since: float = 0.0) -> bool:
        """True iff some reachable peer reports a different view id.

        ``since`` filters out heartbeats that predate our own latest
        view installation — a peer's pre-install beacon necessarily
        names an older view and is not evidence of divergence.

        A heard view *older* than ours is also ignored even when fresh:
        the peer may simply not have installed yet, and if it truly
        stalled it is the peer's own trigger (it hears our newer view)
        that reconciles the group.  Only a newer view, or a concurrent
        one with an equal epoch but different coordinator, is evidence
        that we are the ones lagging or diverged.
        """
        mine = self.stack.current_view_id()
        if mine is None:
            return False
        own_site = self.stack.pid.site
        reachable = self._reachable_incs.get
        # A peer's entry counts only under the incarnation the set holds.
        for site, (when, who, theirs) in self._heard_views.items():
            if theirs is mine or theirs is None or when < since or site == own_site:
                continue
            if who.incarnation != reachable(site):
                continue
            if theirs != mine and theirs > mine:
                return True
        return False


class HeartbeatDetector(DetectorBase):
    """The all-to-all beacon flavour: every site, every interval, less
    the view peers a multicast has just reached."""

    # -- sending ----------------------------------------------------------

    def _beat(self) -> None:
        """Beacon every other site, except the view peers our latest
        multicast reached within the last interval.

        That multicast names our incarnation, view, seqno and e-view
        count, which is all a beat says, so those peers lose nothing
        (docs/protocol.md §2).  Only ``Message`` multicasts count: acks
        and other point-to-point traffic carry none of those fields, so
        they suppress no beat.  Sites outside the view are always
        beaconed (merge detection), and nothing is skipped during a
        flush.  The same tick chases the gaps no beat advertises now
        (:meth:`~repro.vsync.channel.ViewChannels.chase_held`) and lets
        the application send what waits for it (:attr:`on_beat`).
        """
        stack = self.stack
        channels = stack.channels
        view_id = stack.current_view_id()
        eview_seq = stack.evs.applied_seq
        own = stack.pid.site
        sites = [site for site in stack.universe_sites() if site != own]
        flushing = stack.is_flushing
        if not flushing:
            covered = channels.covered_sites(
                stack.now - self.interval, view_id, eview_seq
            )
            if covered:
                kept = [site for site in sites if site not in covered]
                self.beats_skipped += len(sites) - len(kept)
                sites = kept
        if sites:
            stack.send_sites(
                sites,
                Heartbeat(
                    stack.pid,
                    view_id,
                    last_seqno=channels.own_seqno(),
                    eview_seq=eview_seq,
                ),
            )
        if not flushing:
            channels.chase_held()
        if self.on_beat is not None:
            self.on_beat()

    # -- receiving --------------------------------------------------------

    def on_heartbeat(self, src: ProcessId, beat: Heartbeat) -> None:
        """A heartbeat from ``src``, already :meth:`heard` by the stack."""
        self.note_view(src, beat.view_id)
