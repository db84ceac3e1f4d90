"""The wire codec, ``bin1``: protocol payloads <-> compact binary bodies.

Every frame on a node socket after the handshake is a 4-byte
big-endian length plus a ``bin1`` body, capped at
:data:`~repro.realnet.codec.MAX_FRAME_BYTES`:

* **Values** are encoded with one tag byte per value: varint (LEB128,
  zigzag for sign) integers, raw 8-byte doubles (so ``inf``/``nan``
  travel natively), length-prefixed UTF-8 strings, count-prefixed
  containers, and registered dataclasses as a *class id plus
  positional fields*, no field names on the wire.  Small ints (0..127,
  the bulk of protocol traffic: sites, seqnos, epochs) are a single
  byte.
* **Field tables** are derived from the shared payload registry in
  :mod:`repro.realnet.codec`: classes are numbered in sorted-name
  order, fields in dataclass declaration order.  Positional encoding
  only works when both ends agree on the layout, so the dialer's
  ``hello`` carries a **schema fingerprint** (hash over every
  registered class's name and field names), and a server whose own
  fingerprint differs refuses the connection instead of mis-decoding.

:data:`BIN_FORMAT` carries the codec's surface (``encode_payload`` /
``frame_msg_into`` / ``parse_msg_at`` for protocol messages,
``frame_side`` / ``parse_side`` for everything else on the socket, see
:data:`SIDE_KINDS`).  See docs/protocol.md §7.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from repro.errors import CodecError
from repro.realnet.codec import MAX_FRAME_BYTES, _LEN, _REGISTRY
from repro.types import ProcessId, ViewId

#: The body format's name in the handshake frames.
FORMAT_BIN = "bin1"

#: What well-framed garbage raises below the codec's own checks: a
#: registered constructor given a field of the wrong type or shape (or an
#: unhashable one, when its hash is precomputed or it is a memo key),
#: undecodable UTF-8, a nesting too deep to walk.  Every decode entry
#: point reports these as :class:`CodecError`, like a truncation.
_DECODE_ERRORS = (TypeError, ValueError, RecursionError)

# -- value tags -----------------------------------------------------------
#
# One byte per value.  Tags >= 0x80 encode the small int (tag & 0x7F)
# inline — sites, incarnations, seqnos and epochs are nearly always in
# that range, so most protocol integers cost a single byte.

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_TUPLE = 0x07
_T_FROZENSET = 0x08
_T_SET = 0x09
_T_DICT = 0x0A
_T_CLASS = 0x0B
_SMALL_INT = 0x80

_F64 = struct.Struct(">d")

#: Frame-kind byte opening a binary ``msg`` body (the side kinds'
#: bytes are in :data:`SIDE_KINDS`).  Unknown kinds are ignored (future
#: compatibility).
MSG_KIND = 0x01


class SideKind(NamedTuple):
    """One row of the side-frame table: how a kind looks on the wire."""

    byte: int  # frame-kind byte (requests and replies alike)
    request_types: tuple[str, ...]  # payload type names a request may carry
    reply_types: tuple[str, ...]


#: Every frame kind on a node socket other than ``msg``, by name: a side
#: frame is its kind byte plus ONE value, sent by an outside dialer and
#: answered with frames of the same kind.  Payload
#: types are named, not imported: the decoders only build builtins and
#: registered classes, whose names are unique.  docs/protocol.md §7.
SIDE_KINDS: dict[str, SideKind] = {
    "obs": SideKind(0x02, ("str",), ("MetricsSnapshot", "TraceDump")),
    "ctl": SideKind(0x03, ("tuple",), ("tuple",)),
    "cli": SideKind(0x04, ("ClientRequest",), ("ClientReply",)),
}

_SIDE_BY_BYTE = {row.byte: kind for kind, row in SIDE_KINDS.items()}


def _side(kind: str, value: Any, reply: bool) -> tuple[str, Any]:
    """A decoded side frame, once its payload type fits its kind."""
    row = SIDE_KINDS[kind]
    if type(value).__name__ not in (row.reply_types if reply else row.request_types):
        raise CodecError(
            f"{kind} {'reply' if reply else 'request'} frame carried "
            f"{type(value).__name__}"
        )
    return kind, value


# -- identifier memo ------------------------------------------------------
#
# A node talks to a small, stable set of processes and views, and their
# identifiers fill every frame (a store put makes about 29 ProcessId and
# 10 ViewId values across the frames a server reads).  The decoder
# builds each such value once and hands the same object out again.
# Both classes are frozen with a precomputed hash, so the shared object
# is indistinguishable from a fresh equal one.  Each memo is keyed by the
# decoded fields and is cleared when full, like the header cache below:
# incarnation churn grows the key space, never the steady-state set.

#: The identifier classes the bin1 decoder interns.
INTERNED: tuple[type, ...] = (ProcessId, ViewId)

#: Entries one memo holds before it is cleared.
MEMO_CAP = 4096

_MEMOS: dict[type, dict[tuple, Any]] = {cls: {} for cls in INTERNED}
_PID_MEMO = _MEMOS[ProcessId]


def _intern_miss(memo: dict[tuple, Any], cls: type, key: tuple) -> Any:
    if len(memo) >= MEMO_CAP:
        memo.clear()
    value = memo[key] = cls(*key)
    return value


def process_id(site: int, incarnation: int) -> ProcessId:
    """The shared :class:`ProcessId` of ``(site, incarnation)``: the
    object the bin1 decoder returns for that value."""
    key = (site, incarnation)
    pid = _PID_MEMO.get(key)
    return pid if pid is not None else _intern_miss(_PID_MEMO, ProcessId, key)


# -- class table ----------------------------------------------------------
#
# Derived from the shared registry; rebuilt whenever a new payload class
# is registered (the registry only grows).  Encode side: class -> (id,
# attrgetter over the field names).  Decode side: id -> (class, arity,
# min_arity, memo), ``memo`` being the class's identifier memo (above)
# or None.
#
# Trailing fields whose dataclass default is ``None`` are *elidable*:
# when their values are all None the encoder writes a reduced field
# count and the decoder lets the constructor defaults fill them in.
# This is what makes optional context fields (tracing) cost zero wire
# bytes while unused, and lets a peer one optional-field generation
# behind still decode.


class _ClassTable:
    __slots__ = ("version", "by_class", "by_id", "fingerprint")

    def __init__(self) -> None:
        names = sorted(_REGISTRY)
        self.version = len(_REGISTRY)
        self.by_class: dict[type, tuple[int, Callable[[Any], Any], int, int]] = {}
        self.by_id: list[tuple[type, int, int, dict | None]] = []
        lines = []
        for class_id, name in enumerate(names):
            cls = _REGISTRY[name]
            class_fields = fields(cls)
            field_names = tuple(f.name for f in class_fields)
            if len(field_names) > 1:
                getter = attrgetter(*field_names)
            elif field_names:
                getter = lambda v, _n=field_names[0]: (getattr(v, _n),)  # noqa: E731
            else:
                getter = lambda v: ()  # noqa: E731
            elidable = 0
            for f in reversed(class_fields):
                if f.default is not None:  # MISSING or a non-None default
                    break
                elidable += 1
            arity = len(field_names)
            self.by_class[cls] = (class_id, getter, arity, elidable)
            self.by_id.append((cls, arity, arity - elidable, _MEMOS.get(cls)))
            lines.append(f"{name}({','.join(field_names)})")
        self.fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


_TABLE: _ClassTable | None = None


def class_table() -> _ClassTable:
    """The current registry's field tables (rebuilt after registrations)."""
    global _TABLE
    table = _TABLE
    if table is None or table.version != len(_REGISTRY):
        table = _TABLE = _ClassTable()
    return table


def schema_fingerprint() -> str:
    """Hash of every registered class's name + field layout.

    Carried by the ``hello`` handshake: the encoding is positional, so
    a server only accepts a dialer whose fingerprint equals its own.
    """
    return class_table().fingerprint


# -- encoder --------------------------------------------------------------
#
# One precomputed **packer table** maps ``type(value)`` straight to a
# packing function: builtins get module-level packers, every registered
# dataclass gets a closure whose tag + class-id + arity header bytes
# were rendered once at table-build time.  The hot path is therefore a
# single dict lookup per value — no isinstance chain, no per-value
# varint rendering for the class header.  Values whose exact type is
# not in the table (bool/int/str subclasses, unregistered classes) take
# the slow fallback, which encodes the scalar subclasses as their base
# type and rejects everything else.


def _enc_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _enc_int(out: bytearray, value: int) -> None:
    if 0 <= value <= 0x7F:
        out.append(_SMALL_INT | value)
        return
    out.append(_T_INT)
    # zigzag, arbitrary precision
    _enc_uvarint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _enc_none(out: bytearray, value: Any) -> None:
    out.append(_T_NONE)


def _enc_bool(out: bytearray, value: Any) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _enc_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out.append(_T_STR)
    _enc_uvarint(out, len(raw))
    out += raw


def _enc_float(out: bytearray, value: float) -> None:
    out.append(_T_FLOAT)
    out += _F64.pack(value)


def _make_container_packer(tag: int) -> Callable[[bytearray, Any], None]:
    def pack(out: bytearray, value: Any) -> None:
        out.append(tag)
        _enc_uvarint(out, len(value))
        for item in value:
            _enc(out, item)

    return pack


def _enc_dict(out: bytearray, value: dict) -> None:
    out.append(_T_DICT)
    _enc_uvarint(out, len(value))
    for k, v in value.items():
        _enc(out, k)
        _enc(out, v)


def _make_class_packer(
    headers: tuple[bytes, ...], getter: Callable[[Any], Any], arity: int
) -> Callable[[bytearray, Any], None]:
    """Packer for one registered class: precomputed tag+id+count bytes.

    ``headers[k]`` is the header announcing ``arity - k`` fields; the
    packer counts the trailing run of None values among the class's
    elidable fields and picks the matching header, so unused optional
    fields cost zero bytes.  Classes without elidable fields keep the
    single-header fast paths.
    """
    elidable = len(headers) - 1
    header = headers[0]
    if elidable == 0:
        if arity == 1:

            def pack1(out: bytearray, value: Any) -> None:
                out += header
                _enc(out, getter(value)[0])

            return pack1

        def pack(out: bytearray, value: Any) -> None:
            out += header
            for item in getter(value):
                _enc(out, item)

        return pack

    if arity == 1:  # one field, and it is optional

        def pack1_opt(out: bytearray, value: Any) -> None:
            item = getter(value)[0]
            if item is None:
                out += headers[1]
            else:
                out += header
                _enc(out, item)

        return pack1_opt

    def pack_opt(out: bytearray, value: Any) -> None:
        items = getter(value)
        skip = 0
        while skip < elidable and items[arity - 1 - skip] is None:
            skip += 1
        out += headers[skip]
        for index in range(arity - skip):
            _enc(out, items[index])

    return pack_opt


def _build_packers(table: _ClassTable) -> dict[type, Callable[[bytearray, Any], None]]:
    packers: dict[type, Callable[[bytearray, Any], None]] = {
        type(None): _enc_none,
        bool: _enc_bool,
        int: _enc_int,
        str: _enc_str,
        float: _enc_float,
        tuple: _make_container_packer(_T_TUPLE),
        list: _make_container_packer(_T_LIST),
        frozenset: _make_container_packer(_T_FROZENSET),
        set: _make_container_packer(_T_SET),
        dict: _enc_dict,
    }
    for cls, (class_id, getter, arity, elidable) in table.by_class.items():
        headers = []
        for skip in range(elidable + 1):
            header = bytearray([_T_CLASS])
            _enc_uvarint(header, class_id)
            _enc_uvarint(header, arity - skip)
            headers.append(bytes(header))
        packers[cls] = _make_class_packer(tuple(headers), getter, arity)
    return packers


_PACKERS: dict[type, Callable[[bytearray, Any], None]] = {}
_PACKERS_VERSION = -1


def packer_table() -> dict[type, Callable[[bytearray, Any], None]]:
    """The current registry's type -> packer dispatch table.

    Entry points call this once per encode; :func:`_enc` then reads the
    module-level table directly (registrations only happen at import
    time, never mid-encode).
    """
    global _PACKERS, _PACKERS_VERSION
    if _PACKERS_VERSION != len(_REGISTRY):
        _PACKERS = _build_packers(class_table())
        _PACKERS_VERSION = len(_REGISTRY)
    return _PACKERS


def _enc_fallback(out: bytearray, value: Any) -> None:
    """Uncommon shapes: subclasses of the scalar builtins, or garbage."""
    if isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if isinstance(value, int):
        _enc_int(out, int(value))
        return
    if isinstance(value, str):
        _enc_str(out, str(value))
        return
    if is_dataclass(value) and not isinstance(value, type):
        raise CodecError(
            f"unregistered dataclass on the wire: "
            f"{type(value).__module__}.{type(value).__name__}"
        )
    raise CodecError(f"cannot encode {type(value).__name__} value for the wire: {value!r}")


def _enc(out: bytearray, value: Any) -> None:
    packer = _PACKERS.get(type(value))
    if packer is not None:
        packer(out, value)
    else:
        _enc_fallback(out, value)


def encode_value_bin(value: Any) -> bytes:
    """Encode one value to ``bin1`` bytes (no framing)."""
    packer_table()
    out = bytearray()
    _enc(out, value)
    return bytes(out)


# -- decoder --------------------------------------------------------------


def _uvarint_at(buf: bytes, pos: int) -> tuple[int, int]:
    """Multi-byte tail of a LEB128 varint (callers inline the 1-byte case)."""
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 128:
            raise CodecError("varint too long")


def _dec_at(buf: bytes, pos: int, by_id: list) -> tuple[Any, int]:
    """Decode one value starting at ``pos``; returns ``(value, next_pos)``.

    Hot path of the receive side: flat positional reads on local
    variables, a single-byte fast path for every varint (counts, class
    ids and small ints are almost always < 0x80), and *implicit* bounds
    checks — an overrun raises ``IndexError``/``struct.error``, which
    the entry points translate to the canonical truncation CodecError,
    as they translate :data:`_DECODE_ERRORS`.  An :data:`INTERNED` class
    comes out of its memo.
    """
    tag = buf[pos]
    pos += 1
    if tag >= _SMALL_INT:
        return tag & 0x7F, pos
    if tag == _T_CLASS:
        class_id = buf[pos]
        pos += 1
        if class_id >= 0x80:
            class_id, pos = _uvarint_at(buf, pos - 1)
        if class_id >= len(by_id):
            raise CodecError(f"unknown wire payload class id: {class_id}")
        cls, arity, min_arity, memo = by_id[class_id]
        n_fields = buf[pos]
        pos += 1
        if n_fields >= 0x80:
            n_fields, pos = _uvarint_at(buf, pos - 1)
        if not min_arity <= n_fields <= arity:
            raise CodecError(
                f"{cls.__name__}: field-layout mismatch "
                f"(peer sent {n_fields} fields, local class has {arity})"
            )
        args = []
        append = args.append
        for _ in range(n_fields):
            head = buf[pos]
            if head >= _SMALL_INT:
                append(head & 0x7F)
                pos += 1
            else:
                value, pos = _dec_at(buf, pos, by_id)
                append(value)
        if memo is None:
            return cls(*args), pos
        key = tuple(args)
        value = memo.get(key)
        if value is None:
            value = _intern_miss(memo, cls, key)
        return value, pos
    if tag == _T_STR:
        n = buf[pos]
        pos += 1
        if n >= 0x80:
            n, pos = _uvarint_at(buf, pos - 1)
        end = pos + n
        if end > len(buf):
            raise CodecError("truncated binary frame")
        return buf[pos:end].decode("utf-8"), end
    if tag == _T_TUPLE or tag == _T_LIST:
        n = buf[pos]
        pos += 1
        if n >= 0x80:
            n, pos = _uvarint_at(buf, pos - 1)
        items = []
        append = items.append
        for _ in range(n):
            # Inline the two scalar shapes that dominate container
            # bodies (seqno vectors, float vectors): one dispatch, no
            # recursive call.
            head = buf[pos]
            if head >= _SMALL_INT:
                append(head & 0x7F)
                pos += 1
            elif head == _T_FLOAT:
                append(_F64.unpack_from(buf, pos + 1)[0])
                pos += 9
            else:
                value, pos = _dec_at(buf, pos, by_id)
                append(value)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_INT:
        raw, pos = _uvarint_at(buf, pos)
        return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos
    if tag == _T_FLOAT:
        value = _F64.unpack_from(buf, pos)[0]
        return value, pos + 8
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FROZENSET or tag == _T_SET:
        n = buf[pos]
        pos += 1
        if n >= 0x80:
            n, pos = _uvarint_at(buf, pos - 1)
        items = []
        append = items.append
        for _ in range(n):
            value, pos = _dec_at(buf, pos, by_id)
            append(value)
        return (frozenset(items) if tag == _T_FROZENSET else set(items)), pos
    if tag == _T_DICT:
        n = buf[pos]
        pos += 1
        if n >= 0x80:
            n, pos = _uvarint_at(buf, pos - 1)
        out: dict = {}
        for _ in range(n):
            key, pos = _dec_at(buf, pos, by_id)
            value, pos = _dec_at(buf, pos, by_id)
            out[key] = value
        return out, pos
    raise CodecError(f"unknown binary value tag: 0x{tag:02x}")


def _garbage(exc: Exception) -> CodecError:
    """The CodecError for one of :data:`_DECODE_ERRORS`."""
    return CodecError(f"undecodable value: {type(exc).__name__}: {exc}")


def decode_value_bin(data: bytes) -> Any:
    """Inverse of :func:`encode_value_bin`; rejects trailing bytes."""
    try:
        value, pos = _dec_at(data, 0, class_table().by_id)
    except (IndexError, struct.error):
        raise CodecError("truncated binary frame") from None
    except _DECODE_ERRORS as exc:
        raise _garbage(exc) from None
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after binary value")
    return value


# -- wire formats ---------------------------------------------------------


class ParsedMsg:
    """One decoded-enough inbound ``msg`` frame.

    Header fields are decoded eagerly (the receiver filters on them);
    the payload decodes lazily via :meth:`payload` so frames destroyed
    by the firewall or addressed to a dead incarnation never pay for
    payload decoding.
    """

    __slots__ = ("src_site", "src_inc", "dst_site", "dst_inc", "_thunk")

    def __init__(self, src_site, src_inc, dst_site, dst_inc, thunk) -> None:
        self.src_site = src_site
        self.src_inc = src_inc
        self.dst_site = dst_site
        self.dst_inc = dst_inc
        self._thunk = thunk

    def payload(self) -> Any:
        """Decode the payload; raises :class:`CodecError` on garbage."""
        return self._thunk()


class BinWireFormat:
    """``bin1``: positional binary bodies.

    Body layout (after the shared 4-byte length prefix)::

        kind:u8 = 0x01 | src_site:varint | src_inc:varint
                | dst_site:varint | dst_inc:(0x00 | 0x01 varint)
                | payload:value

    Sites and incarnations use the zigzag varint (sites are ints by
    contract but nothing forces them non-negative).
    """

    def __init__(self) -> None:
        # (src, dst_site, dst_inc) -> rendered header bytes.  A node
        # talks to a small, stable set of (peer, incarnation) pairs, so
        # the header — kind byte + four varints — is rendered once per
        # pair, not once per frame.  Bounded defensively: incarnation
        # churn grows the key space, never the steady-state set.
        self._head_cache: dict[tuple, bytes] = {}

    def encode_payload(self, payload: Any) -> bytes:
        return encode_value_bin(payload)

    def _header(
        self, src: tuple[int, int], dst_site: int, dst_inc: int | None
    ) -> bytes:
        key = (src, dst_site, dst_inc)
        head = self._head_cache.get(key)
        if head is None:
            out = bytearray((MSG_KIND,))
            _enc_int(out, src[0])
            _enc_int(out, src[1])
            _enc_int(out, dst_site)
            if dst_inc is None:
                out.append(0x00)
            else:
                out.append(0x01)
                _enc_int(out, dst_inc)
            if len(self._head_cache) >= 4096:
                self._head_cache.clear()
            head = self._head_cache[key] = bytes(out)
        return head

    def frame_msg(
        self,
        src: tuple[int, int],
        dst_site: int,
        dst_inc: int | None,
        encoded_payload: bytes,
    ) -> bytes:
        out = bytearray()
        self.frame_msg_into(out, src, dst_site, dst_inc, encoded_payload)
        return bytes(out)

    def frame_msg_into(
        self,
        out: bytearray,
        src: tuple[int, int],
        dst_site: int,
        dst_inc: int | None,
        encoded_payload: bytes,
    ) -> None:
        """Append one framed msg directly to the batch buffer ``out``.

        Writes a 4-byte length placeholder, appends the (cached) header
        and the payload, then patches the length in place with
        ``pack_into`` — no per-frame ``bytes`` object is ever built.  On
        a cap violation the partial frame is rolled back so ``out``
        still holds only whole frames.
        """
        base = len(out)
        out += b"\x00\x00\x00\x00"
        out += self._header(src, dst_site, dst_inc)
        out += encoded_payload
        length = len(out) - base - 4
        if length > MAX_FRAME_BYTES:
            del out[base:]
            raise CodecError(f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}")
        _LEN.pack_into(out, base, length)

    def parse_msg(self, body: bytes) -> ParsedMsg | None:
        return self.parse_msg_at(body, 0, len(body))

    def parse_msg_at(
        self, buf: bytes | bytearray, start: int, end: int
    ) -> ParsedMsg | None:
        """Parse the frame body occupying ``buf[start:end]`` in place.

        The receive path hands frame extents straight out of the read
        buffer — no per-frame body copy.  All decoding is offset-walking
        on ``buf`` itself; only leaf values (strings) copy out.  The
        payload thunk closes over ``(buf, pos, end)``, so it must be
        consumed before the caller compacts or reuses the buffer — the
        receive loop dispatches synchronously, which guarantees that.
        """
        if start >= end:
            raise CodecError("truncated binary frame")
        by_id = class_table().by_id
        try:
            if buf[start] != MSG_KIND:
                return None  # future frame kinds: ignore, don't kill the link
            src_site, pos = _dec_at(buf, start + 1, by_id)
            src_inc, pos = _dec_at(buf, pos, by_id)
            dst_site, pos = _dec_at(buf, pos, by_id)
            if buf[pos]:
                dst_inc, pos = _dec_at(buf, pos + 1, by_id)
            else:
                dst_inc = None
                pos += 1
        except (IndexError, struct.error):
            raise CodecError("truncated binary frame") from None
        except _DECODE_ERRORS as exc:
            raise _garbage(exc) from None
        if pos > end:
            raise CodecError("truncated binary frame")

        def thunk(start: int = pos) -> Any:
            try:
                value, stop = _dec_at(buf, start, by_id)
            except (IndexError, struct.error):
                raise CodecError("truncated binary frame") from None
            except _DECODE_ERRORS as exc:
                raise _garbage(exc) from None
            if stop > end:
                # Ran into bytes beyond this frame (shared buffer): the
                # frame itself was short.
                raise CodecError("truncated binary frame")
            if stop != end:
                raise CodecError(
                    f"{end - stop} trailing bytes after msg payload"
                )
            return value

        return ParsedMsg(src_site, src_inc, dst_site, dst_inc, thunk)

    def frame_side(self, kind: str, value: Any, reply: bool = False) -> bytes:
        """One framed side frame; the kind byte is the same both ways
        (``reply`` is accepted for symmetry with :meth:`parse_side`)."""
        packer_table()
        out = bytearray((0, 0, 0, 0, SIDE_KINDS[kind].byte))
        _enc(out, value)
        length = len(out) - 4
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}")
        _LEN.pack_into(out, 0, length)
        return bytes(out)

    def parse_side(
        self, buf: bytes | bytearray, start: int, end: int, reply: bool = False
    ) -> tuple[str, Any] | None:
        """``(kind, value)`` of the side frame occupying ``buf[start:end]``,
        decoded in place; None for a ``msg`` or unknown kind byte.
        ``reply`` selects which payload type the kind must carry."""
        if start >= end:
            raise CodecError("truncated binary frame")
        kind = _SIDE_BY_BYTE.get(buf[start])
        if kind is None:
            return None
        try:
            value, stop = _dec_at(buf, start + 1, class_table().by_id)
        except (IndexError, struct.error):
            raise CodecError("truncated binary frame") from None
        except _DECODE_ERRORS as exc:
            raise _garbage(exc) from None
        if stop != end:
            raise CodecError(f"{kind} frame payload ends {stop - end:+d} bytes off its frame")
        return _side(kind, value, reply)


BIN_FORMAT = BinWireFormat()
