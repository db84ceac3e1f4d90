"""The store client's retry contract as one table (docs/api.md).

Each row is what the servers do with the successive attempts of one put
— the *events* — and what the client must do about them: the site and
the wait of every attempt it sends, and the status it finishes with.
The client starts at site 0 of the sites ``0, 1, 2``.

Events:

* ``("reply", status)`` / ``("reply", "not_leader", site)`` — the
  attempt's server answers it;
* ``LOST`` — the attempt's connection drops (on the simulator: its
  replica is down);
* ``TIMEOUT`` — nobody ever answers the attempt;
* ``STALE`` — the server first sends a reply carrying the *previous*
  attempt's ``req_id`` (status ``missing``), then the next event of the
  same attempt; the client must ignore it.

Waits: ``NOW`` (sent at once) or ``BACKOFF`` (``core.RETRY_DELAY``
after the previous attempt ended — on a timeout, ``core.REPLY_TIMEOUT``
after it was sent).  The same table runs against
:class:`~repro.client.core.ClientCore` and
:class:`~repro.client.sim.SimStoreClient` (``tests/test_client_core.py``)
and against :class:`~repro.client.client.AsyncStoreClient` over real
sockets (``tests/realnet/test_client_contract.py``).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.client import core
from repro.client.protocol import ClientReply, ClientRequest

SITES = (0, 1, 2)
NOW, BACKOFF = "now", "backoff"

OK = ("reply", "ok")
RETRY = ("reply", "retry")
LOST = ("lost",)
TIMEOUT = ("timeout",)
STALE = ("stale",)


def not_leader(site: int) -> tuple:
    return ("reply", "not_leader", site)


class Row(NamedTuple):
    events: tuple
    sends: tuple  # ((site, NOW | BACKOFF), ...)
    final: str


def _rotate(attempts: int) -> tuple:
    return ((0, NOW),) + tuple(
        (SITES[i % len(SITES)], BACKOFF) for i in range(1, attempts)
    )


MAX = core.MAX_ATTEMPTS

CONTRACT: dict[str, Row] = {
    "ok": Row((OK,), ((0, NOW),), "ok"),
    "retry_resubmits_at_the_same_site": Row(
        (RETRY, OK), ((0, NOW), (0, BACKOFF)), "ok"
    ),
    "not_leader_is_followed_at_once": Row(
        (not_leader(2), OK), ((0, NOW), (2, NOW)), "ok"
    ),
    "not_leader_naming_an_unknown_site_is_a_retry": Row(
        (not_leader(9), OK), ((0, NOW), (0, BACKOFF)), "ok"
    ),
    "lost_fails_over_to_the_next_site": Row(
        (LOST, OK), ((0, NOW), (1, BACKOFF)), "ok"
    ),
    "failover_wraps_around_in_sorted_order": Row(
        (LOST, LOST, LOST, OK), _rotate(4), "ok"
    ),
    "timeout_fails_over_like_a_lost_connection": Row(
        (TIMEOUT, OK), ((0, NOW), (1, BACKOFF)), "ok"
    ),
    "stale_reply_is_ignored": Row(
        (TIMEOUT, STALE, OK), ((0, NOW), (1, BACKOFF)), "ok"
    ),
    "gives_up_with_the_last_reply": Row(
        (RETRY,) * MAX, ((0, NOW),) + ((0, BACKOFF),) * (MAX - 1), "retry"
    ),
    "gives_up_after_lost_attempts_with_retry": Row(
        (LOST,) * MAX, _rotate(MAX), "retry"
    ),
}


def answer(request: ClientRequest, events: list) -> list[ClientReply] | None:
    """What a scripted server sends for ``request``, consuming ``events``:
    the replies to write (none for a timeout), or None to drop the
    connection."""
    replies = []
    while True:
        event = events.pop(0)
        if event == STALE:
            replies.append(ClientReply(request.req_id - 1, "missing"))
        elif event == LOST:
            return None
        elif event == TIMEOUT:
            return replies
        else:
            leader = event[2] if len(event) > 2 else -1
            replies.append(ClientReply(request.req_id, event[1], leader_site=leader))
            return replies


def check_attempts(
    row: Row,
    attempts: list[tuple[int, str, Any]],
    final: ClientReply | None,
) -> None:
    """``attempts`` holds ``(site, wait, request-or-None)`` per attempt
    in the order sent (None where the adapter sent nothing a server could
    see); every seen request carries a fresh ``req_id`` and the first
    attempt's ``client_seq``."""
    assert [(site, wait) for site, wait, _ in attempts] == list(row.sends)
    assert final is not None and final.status == row.final
    seen = [r for _, _, r in attempts if r is not None]
    assert len({r.req_id for r in seen}) == len(seen)
    client_seqs = {r.client_seq for r in seen}
    assert len(client_seqs) <= 1 and 0 not in client_seqs
