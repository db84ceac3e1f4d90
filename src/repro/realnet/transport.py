"""Asyncio TCP transport: one listening server plus dial-out peer links.

Connections are **unidirectional** for protocol traffic: a node dials
one outbound link per peer site and only ever writes ``msg`` frames on
it; its server socket only ever reads them.  The single exception is
the handshake (:func:`handshake`) — the dialer opens with a JSON
``hello`` naming the wire formats it speaks (and its payload-schema
fingerprint), the server answers with one JSON ``welcome`` naming the
format it picked (see :func:`~repro.realnet.codec_bin.choose_format`),
and everything after that travels in the negotiated format.  A
JSON-only peer and a binary-capable peer therefore interoperate without
configuration.  Whoever is not a site — store clients, the process
driver, ``repro obs`` — dials the same socket through a
:class:`SideConn` and exchanges *side frames*
(:data:`~repro.realnet.codec_bin.SIDE_KINDS`), which the server decodes
once and hands to its ``on_side`` callback with a reply function.

Each :class:`PeerLink` owns a bounded send queue and flushes it **at
the end of the loop turn that filled it**: the first :meth:`PeerLink.offer`
of a turn schedules one ``loop.call_soon`` callback, and when the loop
reaches it every message the turn produced for that peer — a burst's
multicasts, a read buffer's worth of acks, a protocol round's replies —
is already queued.  The callback packs them all (split at
:data:`BATCH_BYTES`) into one buffer per ``write``, encoding each in
the link's negotiated format (payload bytes are encoded once per
format and shared across a multicast's links via :class:`OutMessage`).
So a turn's traffic shares batches and syscalls, and a lone message
on an idle link leaves as its turn ends: there is no flush timer
because waiting can only add latency — under load the queue is never
empty when the callback runs, and on an idle link there is nothing to
wait for.

Memory is bounded twice over.  The queue holds at most
:data:`SEND_QUEUE_CAP` messages; an offer beyond that is dropped and
counted — the group protocols above are built to tolerate message
loss, so a dead or wedged peer costs bounded memory, never
backpressure into protocol code.  And a flush that finds the socket's
write buffer above the transport's high-water mark writes nothing: the
messages stay queued (in order) and the link's task awaits one
``drain()`` before flushing them, so the socket buffer never holds
more than the high-water mark plus one batch.

The link's background task is otherwise idle while the link is
healthy.  It dials (re-resolving the peer's address each attempt, so a
peer that recovered on a fresh port is found), handshakes, and then
sleeps until the peer goes away or a stalled flush asks for a drain;
connection failures trigger exponential backoff (:data:`BACKOFF_BASE`
doubling to :data:`BACKOFF_CAP`) and a redial, and whatever was queued
meanwhile is flushed right after the next ``welcome``.

The server side accepts any number of connections, each an
:class:`asyncio.Protocol` with no task behind it.  Its
``data_received`` validates the ``hello``, writes the ``welcome``, and
then walks every complete frame of the read in place, handing each
synchronously to the node's receive callback; only a trailing partial
frame waits for the next read.  So the loop runs protocol code straight
from the socket callback, with no stream buffer, future or task step
per read.  A frame with a bad body is counted and dropped; a
connection that talks garbage is logged and closed; the node keeps
serving.

Diagnostics go through the ``repro.realnet.*`` :mod:`logging` loggers
(silent by default; :func:`enable_stderr_logging` restores the old
``quiet=False`` stderr behavior).
"""

from __future__ import annotations

import asyncio
import logging
import random
from collections import deque
from typing import Any, Awaitable, Callable

from repro.errors import CodecError
from repro.realnet.codec import (
    MAX_FRAME_BYTES,
    _LEN,
    decode_frame_body,
    encode_frame,
    read_body,
)
from repro.realnet.codec_bin import (
    FORMAT_JSON,
    ParsedMsg,
    WIRE_FORMATS,
    choose_format,
    schema_fingerprint,
    supported_formats,
)

logger = logging.getLogger("repro.realnet.transport")

#: Reconnect backoff: first retry after BACKOFF_BASE seconds, doubling
#: (with jitter) up to BACKOFF_CAP.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: Outbound messages queued per peer (while (re)connecting, or behind a
#: socket that is not draining); offers beyond it are dropped.
SEND_QUEUE_CAP = 2048

#: Byte bound per write: stop packing when a batch reaches this size
#: (0 = one frame per write).
BATCH_BYTES = 256 * 1024

#: How long a dialer waits for the server's ``welcome`` before giving
#: the dial up as failed.
WELCOME_TIMEOUT = 2.0

#: The hello ``src`` of a dialer that is not a site.
OUTSIDER = (-1, 0)

#: What a :class:`SideConn` raises when its node is down, mid-restart,
#: wedged or talking garbage: to every caller it means "this connection
#: is lost" (redial, next site, skip the node), never "the operation is
#: broken".  IncompleteReadError (a node dying mid-read) is an EOFError,
#: *not* an OSError — its absence here once aborted `repro obs watch`
#: loops on node crashes.
CONN_LOST = (OSError, EOFError, CodecError, asyncio.TimeoutError)

Resolver = Callable[[], "tuple[str, int] | None"]


def enable_stderr_logging(level: int = logging.INFO) -> logging.Logger:
    """Attach one stderr handler to the ``repro.realnet`` logger tree.

    Idempotent.  Called by the CLI and by ``quiet=False`` entry points;
    library use stays silent unless the application configures logging.
    """
    root = logging.getLogger("repro.realnet")
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("[realnet] %(message)s"))
        root.addHandler(handler)
    root.setLevel(level)
    return root


async def handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    src: tuple[int, int],
    offer: tuple[str, ...],
) -> Any:
    """Dialling half of the negotiation: send the ``hello``, return the
    wire format the ``welcome`` names.

    A peer that accepted but does not answer within
    :data:`WELCOME_TIMEOUT` raises :class:`asyncio.TimeoutError`, one
    that answers anything but a usable welcome :class:`CodecError`, one
    that hangs up ``EOFError``: all three are a failed dial.
    """
    writer.write(
        encode_frame(
            {
                "k": "hello",
                "src": [src[0], src[1]],
                "codecs": list(offer),
                "schema": schema_fingerprint(),
            }
        )
    )
    welcome = decode_frame_body(
        await asyncio.wait_for(read_body(reader), WELCOME_TIMEOUT)
    )
    name = welcome.get("codec") if welcome.get("k") == "welcome" else None
    if name not in (*offer, FORMAT_JSON):  # JSON is the server's fallback
        raise CodecError(f"no usable welcome: {welcome!r}")
    return WIRE_FORMATS[name]


class SideConn:
    """One negotiated connection from outside the group to a node socket.

    The dialling side of every side plane: :meth:`send` a request of
    some kind, :meth:`recv` the next reply of that kind.  What a caller
    layers on top — pipelining, a lock, one round trip — is its own.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, fmt: Any
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.fmt = fmt

    @classmethod
    async def open(cls, host: str, port: int, codec: str = "bin") -> "SideConn":
        """Dial and negotiate; a node that accepts but never welcomes
        fails the dial after :data:`WELCOME_TIMEOUT`."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            fmt = await handshake(reader, writer, OUTSIDER, supported_formats(codec))
        except BaseException:
            writer.close()
            raise
        return cls(reader, writer, fmt)

    async def send(self, kind: str, value: Any) -> None:
        self._writer.write(self.fmt.frame_side(kind, value))
        await self._writer.drain()

    async def recv(self, kind: str) -> Any:
        """The value of the next ``kind`` reply; frames of any other
        kind on the shared socket are skipped."""
        while True:
            body = await read_body(self._reader)
            parsed = self.fmt.parse_side(body, 0, len(body), True)
            if parsed is not None and parsed[0] == kind:
                return parsed[1]

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


class OutMessage:
    """One queued outbound protocol message, encoded lazily per format.

    ``cell`` is shared across every :class:`OutMessage` of one
    multicast fan-out: the payload is encoded at most once per wire
    format no matter how many links (or which formats they negotiated)
    carry it.  The sender pre-fills its preferred format's entry so
    encoding errors surface in the caller, like the simulator.
    """

    __slots__ = ("dst_inc", "payload", "cell")

    def __init__(self, dst_inc: int | None, payload: Any, cell: dict[str, Any]) -> None:
        self.dst_inc = dst_inc
        self.payload = payload
        self.cell = cell

    def encoded(self, fmt: Any) -> Any:
        enc = self.cell.get(fmt.name)
        if enc is None:
            enc = self.cell[fmt.name] = fmt.encode_payload(self.payload)
        return enc


class _LinkProtocol(asyncio.StreamReaderProtocol):
    """The stream protocol, plus one callback when the peer goes away
    (EOF or connection loss) so an idle link needs no parked read."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        on_gone: Callable[[], None],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        super().__init__(reader, loop=loop)
        self._on_gone = on_gone

    def eof_received(self) -> bool | None:
        self._on_gone()
        return super().eof_received()

    def connection_lost(self, exc: Exception | None) -> None:
        self._on_gone()
        super().connection_lost(exc)


class PeerLink:
    """Outbound message pipe to one peer site: reconnect, negotiate, batch."""

    def __init__(
        self,
        name: str,
        src: tuple[int, int],
        dst_site: Any,
        resolve: Resolver,
        offer_formats: tuple[str, ...] = (FORMAT_JSON,),
        queue_cap: int = SEND_QUEUE_CAP,
        batch_bytes: int = BATCH_BYTES,
    ) -> None:
        self.name = name
        self._src = src
        self._dst_site = dst_site
        self._resolve = resolve
        self._offer = offer_formats
        self._queue_cap = queue_cap
        self._batch_bytes = batch_bytes
        self._pending: deque[OutMessage] = deque()
        self._task: asyncio.Task | None = None
        # Set between a welcome and the loss of that connection: the
        # only time offers schedule flushes.
        self._writer: asyncio.StreamWriter | None = None
        self._fmt: Any = None
        self._high_water = 0
        self._call_soon: Callable[..., Any] | None = None
        #: A flush callback is pending — or, while ``_stalled``, owed by
        #: the link task once the socket drains.
        self._flush_scheduled = False
        self._stalled = False
        self._peer_gone = False
        self._wake = asyncio.Event()
        self.frames_sent = 0
        self.frames_dropped = 0
        self.encode_errors = 0
        self.connects = 0
        self.flushes = 0
        self.bytes_sent = 0
        self.max_batch = 0
        #: Flushes that found the socket above its high-water mark.
        self.write_stalls = 0

    @property
    def wire_format(self) -> str | None:
        """Wire-format name negotiated on the current connection."""
        fmt = self._fmt
        return fmt.name if fmt is not None else None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"peerlink-{self.name}"
            )

    def rebind_src(self, src: tuple[int, int]) -> None:
        """Stamp subsequent frames with a new local incarnation.

        The in-place recover path boots a fresh stack on an existing
        transport; its cached links must not keep framing messages as
        the dead incarnation (receivers identify senders per *frame*,
        so the connection and its original hello can stay up).
        """
        self._src = src

    def offer(self, msg: OutMessage) -> bool:
        """Enqueue a message for transmission; False (dropped) when full.

        The first offer of a loop turn on a connected link schedules the
        turn's one flush; offers made while the link is down just queue.
        """
        pending = self._pending
        if len(pending) >= self._queue_cap:
            self.frames_dropped += 1
            return False
        pending.append(msg)
        if not self._flush_scheduled and self._fmt is not None:
            self._flush_scheduled = True
            self._call_soon(self._flush)
        return True

    def stats(self) -> dict[str, int]:
        """This link's counters (``queued`` is the current depth)."""
        return {
            "frames_sent": self.frames_sent,
            "frames_dropped": self.frames_dropped,
            "encode_errors": self.encode_errors,
            "connects": self.connects,
            "flushes": self.flushes,
            "bytes_sent": self.bytes_sent,
            "max_batch": self.max_batch,
            "write_stalls": self.write_stalls,
            "queued": len(self._pending),
        }

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def _flush(self) -> None:
        """Write everything queued, one fresh buffer per byte-capped batch.

        Runs as a ``call_soon`` callback (or from the link task after a
        drain).  Harmless when stale: with the link down it leaves the
        queue for the next welcome.
        """
        writer = self._writer
        if writer is None or self._peer_gone or writer.is_closing():
            return
        fmt = self._fmt
        pending = self._pending
        transport = writer.transport
        high_water = self._high_water
        batch_bytes = self._batch_bytes
        frame_into = fmt.frame_msg_into
        dst_site = self._dst_site
        # Re-read per flush: rebind_src may have moved the link to a
        # fresh local incarnation mid-connection.
        src = self._src
        while pending:
            if transport.get_write_buffer_size() > high_water:
                # The peer is not keeping up.  Leave the queue as it is
                # (offers beyond the cap are dropped and counted) and
                # let the link task flush once the socket has drained;
                # _flush_scheduled stays set so offers do not pile up
                # callbacks meanwhile.
                self.write_stalls += 1
                self._stalled = True
                self._wake.set()
                return
            # The buffer must be *fresh* each write: uvloop's transport
            # keeps a reference to the object it was handed, so reusing
            # it would corrupt in-flight data.  Frames are packed in
            # place (length prefix patched via pack_into).
            batch = bytearray()
            frames = 0
            while pending:
                msg = pending.popleft()
                try:
                    frame_into(batch, src, dst_site, msg.dst_inc, msg.encoded(fmt))
                except CodecError as exc:
                    self.encode_errors += 1
                    logger.warning("link %s: cannot encode frame: %s", self.name, exc)
                else:
                    frames += 1
                if len(batch) >= batch_bytes:
                    break
            if frames:
                writer.write(batch)
                self.frames_sent += frames
                self.bytes_sent += len(batch)
                self.flushes += 1
                if frames > self.max_batch:
                    self.max_batch = frames
        self._flush_scheduled = False

    def _link_up(self, writer: asyncio.StreamWriter, fmt: Any) -> None:
        """The welcome arrived: flush whatever queued while dialling."""
        self._writer = writer
        self._fmt = fmt
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        self._call_soon = asyncio.get_running_loop().call_soon
        if self._pending:
            self._flush_scheduled = True
            self._call_soon(self._flush)

    def _link_down(self) -> None:
        self._writer = None
        self._fmt = None
        self._flush_scheduled = False
        self._stalled = False

    def _on_peer_gone(self) -> None:
        self._peer_gone = True
        self._wake.set()

    async def _dial(
        self, host: str, port: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """``asyncio.open_connection`` with a :class:`_LinkProtocol`."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(loop=loop)
        protocol = _LinkProtocol(reader, self._on_peer_gone, loop)
        transport, _ = await loop.create_connection(lambda: protocol, host, port)
        return reader, asyncio.StreamWriter(transport, protocol, reader, loop)

    async def _idle(self, writer: asyncio.StreamWriter) -> None:
        """A healthy link needs no task: sleep until the peer goes away
        (raises) or a stalled flush asks for a drain."""
        wake = self._wake
        while not self._peer_gone:
            if self._stalled:
                await writer.drain()
                self._stalled = False
                self._flush()
            else:
                wake.clear()
                await wake.wait()
        raise ConnectionError("peer closed the connection")

    async def _run(self) -> None:
        rng = random.Random()
        backoff = BACKOFF_BASE
        while True:
            address = self._resolve()
            if address is None:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            self._peer_gone = False
            try:
                reader, writer = await self._dial(*address)
            except OSError:
                await asyncio.sleep(backoff * (0.5 + rng.random()))
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            self.connects += 1
            try:
                fmt = await handshake(reader, writer, self._src, self._offer)
                backoff = BACKOFF_BASE  # handshake done: healthy link
                self._link_up(writer, fmt)
                await self._idle(writer)
            except (CodecError, asyncio.TimeoutError):
                # Accepted, but no usable welcome: a failed dial.
                await asyncio.sleep(backoff * (0.5 + rng.random()))
                backoff = min(backoff * 2, BACKOFF_CAP)
            except (OSError, EOFError):
                logger.info("link %s: peer went away; reconnecting", self.name)
            finally:
                self._link_down()
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass


class FrameServer:
    """Listening side: accepts peer connections and forwards messages.

    Each accepted connection is a :class:`_ServerConnection` protocol
    whose ``data_received`` walks the frames of the read and dispatches
    them before it returns: ``on_msg(parsed)`` is called synchronously
    on the event loop for every inbound
    :class:`~repro.realnet.codec_bin.ParsedMsg`, ``on_side`` for every
    side frame, and ``on_read_end()`` once after the last frame of a
    read that dispatched any msg or side frame, so the receiver can
    treat one read as one batch of input.  Validation beyond frame shape is the
    receiver's business (incarnation and connectivity checks live in
    :class:`~repro.realnet.network.RealNetwork`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_msg: Callable[[ParsedMsg], None],
        accept_formats: tuple[str, ...] = (FORMAT_JSON,),
        on_side: Callable[[str, Any, Callable[[Any], None]], None] | None = None,
        on_read_end: Callable[[], None] | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._on_msg = on_msg
        #: Called once after every read that dispatched a msg or side
        #: frame (even when a handler raised): the receiver's end of an
        #: input batch.
        self._on_read_end = on_read_end
        self._accept = accept_formats
        #: Optional handler for side frames: called with ``(kind, value,
        #: reply)`` where ``reply(value)`` writes one frame of the same
        #: kind back on the originating connection, now or at any later
        #: time (deferred put replies); without it side frames are
        #: ignored like any unknown kind.
        self._on_side = on_side
        self._server: asyncio.base_events.Server | None = None
        #: Transports of the open accepted connections.
        self._transports: set[asyncio.Transport] = set()
        self.frames_received = 0
        self.bytes_received = 0
        #: Reads that carried at least one frame after the hello.
        self.reads = 0
        self.max_frames_per_read = 0
        self.bad_connections = 0
        #: Well-framed bodies that failed to parse, logged and dropped
        #: without killing the connection (frame *lengths* are still
        #: trusted once negotiated; a cap violation closes the link).
        self.bad_frames = 0
        #: Connections by negotiated format name (lifetime counts).
        self.format_counts: dict[str, int] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.get_running_loop().create_server(
            self._connection, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        # Close the accepted connections before waiting: from Python
        # 3.12 on, wait_closed() also waits for every one of them.
        for transport in list(self._transports):
            transport.close()
        await server.wait_closed()

    def _connection(self) -> "_ServerConnection":
        """Protocol factory: one :class:`_ServerConnection` per accept."""
        return _ServerConnection(self)

    def _split_frames(self, buf: bytearray) -> list[bytes]:
        """Carve every complete ``length + body`` frame off ``buf``.

        Retained as the copying reference implementation (and for the
        framing unit tests); the live receive path in
        :meth:`_ServerConnection.data_received` walks frame extents in
        place instead.
        """
        bodies: list[bytes] = []
        pos = 0
        end = len(buf)
        while end - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                raise CodecError(
                    f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                )
            if end - pos - _LEN.size < length:
                break
            start = pos + _LEN.size
            bodies.append(bytes(buf[start : start + length]))
            pos = start + length
        if pos:
            del buf[:pos]
        return bodies


class _ServerConnection(asyncio.Protocol):
    """One accepted connection of a :class:`FrameServer`.

    The first frame must be the JSON ``hello``; the ``welcome`` goes back
    through the transport and names the format of every later frame.
    ``data_received`` then walks the complete frames of each read in
    place and dispatches them synchronously, so every payload thunk is
    consumed before the read is released and the connection never
    buffers more than one partial frame (which is also why it needs no
    read-side flow control).  A bad body costs one frame
    (``bad_frames``); a bad hello, a length over
    :data:`~repro.realnet.codec.MAX_FRAME_BYTES` or EOF in the middle
    of a frame costs the connection (``bad_connections``).
    """

    def __init__(self, server: FrameServer) -> None:
        self._server = server
        self._buf = bytearray()  # at most one partial frame
        self._fmt: Any = None  # negotiated by the hello
        self.transport: Any = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self._server._transports.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._transports.discard(self.transport)

    def eof_received(self) -> None:
        # Returning None lets the transport close itself.
        if self._buf:
            server = self._server
            server.bad_connections += 1
            logger.info("server %s:%s: connection closed mid-frame",
                        server._host, server._port)

    def data_received(self, data: bytes) -> None:
        server = self._server
        server.bytes_received += len(data)
        buf = self._buf
        if buf:
            buf += data
            data = buf
        # Walk complete frames in place: each body is parsed at its
        # (start, end) extent inside the read, no per-frame slice.
        fmt = self._fmt
        on_msg = server._on_msg
        on_side = server._on_side
        end = len(data)
        pos = 0
        walked = 0
        msgs = 0
        sides = 0
        fatal: str | None = None
        try:
            while end - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(data, pos)
                if length > MAX_FRAME_BYTES:
                    fatal = f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                    break
                body_start = pos + _LEN.size
                frame_end = body_start + length
                if frame_end > end:
                    break
                pos = frame_end
                if fmt is None:
                    try:
                        fmt = self._welcome(data, body_start, frame_end)
                    except CodecError as exc:
                        fatal = str(exc)
                        break
                    continue
                walked += 1
                try:
                    parsed = fmt.parse_msg_at(data, body_start, frame_end)
                    if parsed is not None:
                        msgs += 1
                        on_msg(parsed)
                    elif on_side is not None:
                        # Not a msg: decode it once as a side frame (obs
                        # polls, control ops, client requests); unknown
                        # kinds stay ignored so future frames don't kill
                        # the link.
                        side = fmt.parse_side(data, body_start, frame_end)
                        if side is not None:
                            sides += 1
                            on_side(side[0], side[1], self._reply_as(side[0]))
                except CodecError as exc:
                    # The framing is intact (the length prefix was sane),
                    # only this body is garbage: drop the one frame and
                    # keep the link — a single bad payload must not
                    # sever an otherwise healthy peer.
                    server.bad_frames += 1
                    logger.info("server %s:%s: dropped bad frame: %s",
                                server._host, server._port, exc)
        finally:
            if (msgs or sides) and server._on_read_end is not None:
                server._on_read_end()
        if walked:
            server.reads += 1
            server.frames_received += msgs
            if walked > server.max_frames_per_read:
                server.max_frames_per_read = walked
        if fatal is not None:
            server.bad_connections += 1
            logger.info("server %s:%s: bad peer frame: %s",
                        server._host, server._port, fatal)
            buf.clear()
            self.transport.close()
        elif data is buf:
            del buf[:pos]
        elif pos < end:
            buf += memoryview(data)[pos:]

    def _welcome(self, data: Any, start: int, end: int) -> Any:
        """Answer the hello occupying ``data[start:end]``; returns the
        format it negotiated."""
        hello = decode_frame_body(bytes(data[start:end]))
        if hello.get("k") != "hello":
            raise CodecError(f"first frame is not a hello: {hello.get('k')!r}")
        server = self._server
        chosen = choose_format(hello.get("codecs"), hello.get("schema"), server._accept)
        self.transport.write(encode_frame({"k": "welcome", "codec": chosen}))
        server.format_counts[chosen] = server.format_counts.get(chosen, 0) + 1
        self._fmt = fmt = WIRE_FORMATS[chosen]
        return fmt

    def _reply_as(self, kind: str) -> Callable[[Any], None]:
        """The reply channel handed to the side handler: safe to call
        after the dispatching frame (deferred client replies), a no-op
        once the connection is closing."""
        transport = self.transport
        fmt = self._fmt

        def reply(value: Any) -> None:
            if not transport.is_closing():
                transport.write(fmt.frame_side(kind, value, True))

        return reply


async def wait_for_condition(
    predicate: Callable[[], Any],
    timeout: float,
    poll: float = 0.02,
    refresh: Callable[[], Awaitable[None]] | None = None,
) -> bool:
    """Poll ``predicate`` on the wall clock until truthy or ``timeout``.

    The wall-clock analogue of the simulator's ``run_until`` and the one
    poll loop behind every asyncio ``settle`` / ``wait_until``.
    ``refresh`` is awaited before each evaluation — the process-per-site
    adapter re-reads its children's status there.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        if refresh is not None:
            await refresh()
        if predicate():
            return True
        if loop.time() >= deadline:
            return bool(predicate())
        await asyncio.sleep(poll)

