"""Client wire vocabulary: what a ``cli`` side frame carries.

External clients talk to a serving node over the node's *normal*
listening socket; the framing, the handshake and the kind table are the
side channel's (docs/protocol.md §7).  This module owns the two payload
dataclasses and what their fields mean.

Replies are **asynchronous**: a put is answered only once a quorum of
the current view applied it, so the server keeps the connection's
``reply`` function and answers when the store commits.  ``req_id``
matches replies to pipelined requests on one connection.

Reply statuses (what the client does with each is
:mod:`repro.client.core`'s retry contract):

=============  ==========================================================
``ok``         completed; ``prov`` is the version's provenance (for a
               put, the read-your-writes token)
``missing``    a read of a key with no versions
``retry``      a view change aborted the operation, or a read could not
               be served yet (settling, or an unmet ``ryw`` token)
``not_leader`` a leader-mode read reached a non-leader; ``leader_site``
               names the leader
``error``      the request was malformed or the node has no store
=============  ==========================================================

Provenance travels as the flat tuple ``(view_epoch, writer_site,
writer_incarnation, seq)``; history chains as tuples of ``(value,
prov, client, client_seq)``.  Flat shapes keep the client payloads
independent of the protocol-internal dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "ClientRequest",
    "ClientReply",
    "client_request_frame",
    "client_reply_frame",
    "parse_client_request",
    "parse_client_reply",
]

#: The operations a request may name.
OPS = ("put", "get", "history", "ping")

#: Read routing modes: served by whichever replica was dialed, or only
#: by the current view's leader (least member).
READ_MODES = ("any", "leader")


@dataclass(frozen=True)
class ClientRequest:
    """One client operation as it travels on the wire."""

    req_id: int
    op: str  # one of OPS
    key: Any = None
    value: Any = None
    client: str = ""
    client_seq: int = 0
    read_mode: str = "any"  # one of READ_MODES
    #: Read-your-writes token: the flat provenance of the client's last
    #: acked put, or None for an unconditional read.
    ryw: tuple | None = None
    #: Client-minted causal context; the service adopts it as the root
    #: of the operation's trace (tracing only, zero bytes when off).
    trace: Any = None


@dataclass(frozen=True)
class ClientReply:
    """The server's answer to one :class:`ClientRequest`."""

    req_id: int
    status: str  # ok | missing | retry | not_leader | error
    value: Any = None
    prov: tuple | None = None
    #: For history: ((value, prov, client, client_seq), ...) oldest first.
    chain: tuple = ()
    #: For not_leader: the site to redial (-1 when unknown).
    leader_site: int = -1
    #: The operation's root causal context, echoed back so a client can
    #: correlate its reply with the server-side trace (tracing only).
    trace: Any = None


# -- frames ---------------------------------------------------------------
#
# The ``cli`` row of the side-frame table, spelled per direction; ``fmt``
# is the wire format object, :data:`~repro.realnet.codec_bin.BIN_FORMAT`.


def client_request_frame(fmt: Any, request: ClientRequest) -> bytes:
    """One framed client request."""
    return fmt.frame_side("cli", request)


def client_reply_frame(fmt: Any, reply: ClientReply) -> bytes:
    """One framed client reply."""
    return fmt.frame_side("cli", reply, True)


def _cli_value(parsed: tuple[str, Any] | None) -> Any:
    return parsed[1] if parsed is not None and parsed[0] == "cli" else None


def parse_client_request(fmt: Any, body: bytes) -> ClientRequest | None:
    """The request in one frame body; None for a frame of another kind,
    :class:`~repro.errors.CodecError` for a garbled one."""
    return _cli_value(fmt.parse_side(body, 0, len(body)))


def parse_client_reply(fmt: Any, body: bytes) -> ClientReply | None:
    """The reply in one frame body; None for a frame of another kind."""
    return _cli_value(fmt.parse_side(body, 0, len(body), True))
