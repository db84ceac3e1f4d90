"""The bin1 wire bytes, pinned.

One sha256 over a fixed set of bin1 encodings: every registered wire
class (``tests/wire_samples.py``, in class-name order), one ``msg``
frame per shape of the destination incarnation, and one request and
one reply frame per side kind.  A change that should leave the wire
alone — a refactor of the codec, the transport or the registry — must
leave this digest and the schema fingerprint where they are; a change
to the wire moves them on purpose, and the new values go here together
with the docs/protocol.md §7 note that explains the move.
"""

from __future__ import annotations

import hashlib

from repro.client.protocol import ClientReply, ClientRequest
from repro.obs.snapshot import MetricsSnapshot
from repro.realnet.codec_bin import (
    BIN_FORMAT,
    SIDE_KINDS,
    encode_value_bin,
    schema_fingerprint,
)
from tests.wire_samples import samples

FINGERPRINT = "bc20ce203f1429f2"
DIGEST = "4d5bd88f3c80e225c1bd3c4ce90f6c41bdd845f8cf85043ddad823b673071782"

#: kind -> (a request value, a reply value)
SIDE_VALUES = {
    "obs": ("snapshot", MetricsSnapshot(source="site0", runtime="realnet", time=1.5, samples=())),
    "ctl": (("mcast_many", (32, ("client", 0, 1))), (True, {"site": 3, "alive": True})),
    "cli": (
        ClientRequest(7, "put", "k123456", 4242, client="gen0", client_seq=99),
        ClientReply(7, "ok", prov=(3, 0, 0, 99)),
    ),
}


def wire_bytes() -> bytes:
    """Every pinned encoding, concatenated in a fixed order."""
    out = bytearray()
    for sample in sorted(samples(), key=lambda s: type(s).__name__):
        out += encode_value_bin(sample)
    payload = BIN_FORMAT.encode_payload(("m", 7, 2.5))
    for dst_inc in (None, 0, 3):
        BIN_FORMAT.frame_msg_into(out, (2, 1), 4, dst_inc, payload)
    for kind in sorted(SIDE_KINDS):
        request, reply = SIDE_VALUES[kind]
        out += BIN_FORMAT.frame_side(kind, request)
        out += BIN_FORMAT.frame_side(kind, reply, True)
    return bytes(out)


def test_schema_fingerprint_is_pinned():
    assert schema_fingerprint() == FINGERPRINT


def test_side_values_cover_the_table():
    assert set(SIDE_VALUES) == set(SIDE_KINDS)


def test_bin1_wire_bytes_are_pinned():
    assert hashlib.sha256(wire_bytes()).hexdigest() == DIGEST
