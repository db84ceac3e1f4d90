"""Asyncio TCP transport: one listening server plus dial-out peer links.

Connections are **unidirectional** for protocol traffic: a node dials
one outbound link per peer site and only ever writes ``msg`` frames on
it; its server socket only ever reads them.  The single exception is
the handshake — the dialer opens with a JSON ``hello`` naming the wire
formats it speaks (and its payload-schema fingerprint), the server
answers with one JSON ``welcome`` naming the format it picked (see
:func:`~repro.realnet.codec_bin.choose_format`), and everything after
that travels in the negotiated format.  A JSON-only peer and a
binary-capable peer therefore interoperate without configuration.

Each :class:`PeerLink` owns a bounded send queue and a background task
that dials (re-resolving the peer's address each attempt, so a peer
that recovered on a fresh port is found), handshakes, and drains the
queue in **micro-batches**: after the first queued message it waits at
most :data:`FLUSH_TICK` (sub-millisecond) for stragglers, packs
everything queued — bounded by :data:`BATCH_BYTES` — into one
``writelines`` + ``drain`` flush, and encodes each message in the
link's negotiated format (payload bytes are encoded once per format
and shared across a multicast's links via
:class:`OutMessage`).  Connection failures trigger exponential backoff
(:data:`BACKOFF_BASE` doubling to :data:`BACKOFF_CAP`); messages
offered while the queue is full are dropped — the group protocols
above are built to tolerate message loss, so a dead or wedged peer
costs bounded memory, never backpressure into protocol code.

The server side accepts any number of connections, validates the
``hello``, replies with the ``welcome``, and then splits its read
buffer into frames in batches — one ``reader.read`` can yield dozens
of frames, each handed synchronously to the node's receive callback —
instead of paying two ``readexactly`` awaits per frame.  A connection
that talks garbage is logged and closed; the node keeps serving.

Diagnostics go through the ``repro.realnet.*`` :mod:`logging` loggers
(silent by default; :func:`enable_stderr_logging` restores the old
``quiet=False`` stderr behavior).
"""

from __future__ import annotations

import asyncio
import logging
import random
from typing import Any, Awaitable, Callable

from repro.errors import CodecError
from repro.realnet.codec import (
    MAX_FRAME_BYTES,
    _LEN,
    decode_frame_body,
    encode_frame,
    read_frame,
)
from repro.realnet.codec_bin import (
    FORMAT_JSON,
    ParsedMsg,
    WIRE_FORMATS,
    choose_format,
    schema_fingerprint,
)

logger = logging.getLogger("repro.realnet.transport")

#: Reconnect backoff: first retry after BACKOFF_BASE seconds, doubling
#: (with jitter) up to BACKOFF_CAP.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: Outbound messages buffered per peer while (re)connecting.
SEND_QUEUE_CAP = 2048

#: Micro-batch flush tick: after the first queued message, wait this
#: long (seconds) for more before flushing.  Sub-millisecond — far
#: below every protocol timer — but long enough to coalesce a
#: multicast fan-out or a flush round into one syscall.  0 disables
#: the wait (PR-2 behavior: flush whatever is already queued).
FLUSH_TICK = 0.0005

#: Byte bound per flush: stop packing when a batch reaches this size.
BATCH_BYTES = 256 * 1024

#: How long the dialer waits for the server's ``welcome`` before
#: assuming a pre-negotiation peer and falling back to JSON.
WELCOME_TIMEOUT = 2.0

#: Server-side read size for the batched frame-splitting loop.
READ_CHUNK = 256 * 1024

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
        flush_tick: float = FLUSH_TICK,
        batch_bytes: int = BATCH_BYTES,
    ) -> None:
        self.name = name
        self._src = src
        self._dst_site = dst_site
        self._resolve = resolve
        self._offer = offer_formats
        self._flush_tick = flush_tick
        self._batch_bytes = batch_bytes
        self._queue: asyncio.Queue[OutMessage] = asyncio.Queue(maxsize=queue_cap)
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: Wire-format name negotiated on the current connection.
        self.wire_format: str | None = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.encode_errors = 0
        self.connects = 0
        self.flushes = 0
        self.bytes_sent = 0
        self.max_batch = 0

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
        """Enqueue a message for transmission; False (dropped) when full."""
        try:
            self._queue.put_nowait(msg)
            return True
        except asyncio.QueueFull:
            self.frames_dropped += 1
            return False

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        await self._close_writer()

    async def _close_writer(self) -> None:
        writer, self._writer = self._writer, None
        self.wire_format = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Any:
        """Send hello, read welcome, return the negotiated wire format."""
        writer.write(
            encode_frame(
                {
                    "k": "hello",
                    "src": [self._src[0], self._src[1]],
                    "codecs": list(self._offer),
                    "schema": schema_fingerprint(),
                }
            )
        )
        await writer.drain()
        chosen = FORMAT_JSON
        try:
            welcome = await asyncio.wait_for(read_frame(reader), WELCOME_TIMEOUT)
        except (asyncio.TimeoutError, CodecError):
            logger.debug("link %s: no welcome; assuming JSON peer", self.name)
        else:
            if welcome is None:
                raise ConnectionError("peer closed during handshake")
            name = welcome.get("codec") if welcome.get("k") == "welcome" else None
            if name in self._offer and name in WIRE_FORMATS:
                chosen = name
        self.wire_format = chosen
        return WIRE_FORMATS[chosen]

    async def _drain_queue(self, writer: asyncio.StreamWriter, fmt: Any) -> None:
        queue = self._queue
        flush_tick = self._flush_tick
        batch_bytes = self._batch_bytes
        frame_into = fmt.frame_msg_into
        dst_site = self._dst_site
        while True:
            msg = await queue.get()
            # Re-read per flush: rebind_src may have moved the link to a
            # fresh local incarnation mid-connection.
            src = self._src
            if flush_tick > 0.0 and queue.empty():
                # Sub-millisecond pause: let a fan-out or protocol round
                # land its siblings in the queue, then flush once.
                await asyncio.sleep(flush_tick)
            # One batch buffer per flush, packed in place (length prefix
            # patched via pack_into) and written with a single write().
            # The buffer must be *fresh* each flush: uvloop's transport
            # keeps a reference to the object it was handed, so reusing
            # it would corrupt in-flight data.
            batch = bytearray()
            frames = 0
            while True:
                try:
                    frame_into(batch, src, dst_site, msg.dst_inc, msg.encoded(fmt))
                except CodecError as exc:
                    self.encode_errors += 1
                    logger.warning("link %s: cannot encode frame: %s", self.name, exc)
                else:
                    frames += 1
                if len(batch) >= batch_bytes:
                    break
                try:
                    msg = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if not frames:
                continue
            writer.write(batch)
            await writer.drain()
            self.frames_sent += frames
            self.bytes_sent += len(batch)
            self.flushes += 1
            if frames > self.max_batch:
                self.max_batch = frames

    async def _run(self) -> None:
        rng = random.Random()
        backoff = BACKOFF_BASE
        while True:
            address = self._resolve()
            if address is None:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            try:
                reader, writer = await asyncio.open_connection(*address)
            except OSError:
                await asyncio.sleep(backoff * (0.5 + rng.random()))
                backoff = min(backoff * 2, BACKOFF_CAP)
                continue
            self._writer = writer
            self.connects += 1
            try:
                fmt = await self._handshake(reader, writer)
                backoff = BACKOFF_BASE  # handshake done: healthy link
                await self._drain_queue(writer, fmt)
            except (OSError, ConnectionError):
                logger.info("link %s: peer went away; reconnecting", self.name)
            finally:
                await self._close_writer()


class FrameServer:
    """Listening side: accepts peer connections and forwards messages.

    ``on_msg(parsed)`` is called synchronously on the event loop for
    every inbound :class:`~repro.realnet.codec_bin.ParsedMsg`;
    validation beyond frame shape is the receiver's business
    (incarnation and connectivity checks live in
    :class:`~repro.realnet.network.RealNetwork`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_msg: Callable[[ParsedMsg], None],
        accept_formats: tuple[str, ...] = (FORMAT_JSON,),
        on_control: Callable[[Any, bytes, Callable[[bytes], None]], "bytes | None"]
        | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._on_msg = on_msg
        self._accept = accept_formats
        #: Optional handler for non-``msg`` frame bodies: called with
        #: (negotiated format, body, send) where ``send(data)`` writes
        #: framed bytes back on the originating connection at any later
        #: time (the client service's deferred put replies); a bytes
        #: return is written back immediately (the obs snapshot
        #: service), None ignores the frame as before.
        self._on_control = on_control
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.frames_received = 0
        self.bytes_received = 0
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
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        for task in list(self._conn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._conn_tasks.clear()

    def _split_frames(self, buf: bytearray) -> list[bytes]:
        """Carve every complete ``length + body`` frame off ``buf``.

        Retained as the copying reference implementation (and for the
        framing unit tests); the live receive loop in :meth:`_handle`
        walks frame extents in place instead.
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

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        buf = bytearray()
        fmt: Any = None  # negotiated after the hello
        on_msg = self._on_msg

        def send(data: bytes) -> None:
            # Per-connection reply channel handed to the control hook;
            # safe to call after the dispatching frame (deferred client
            # replies), a no-op once the peer is gone.
            if not writer.is_closing():
                writer.write(data)

        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    if buf:  # EOF mid-frame
                        self.bad_connections += 1
                        logger.info("server %s:%s: connection closed mid-frame",
                                    self._host, self._port)
                    return
                buf += chunk
                self.bytes_received += len(chunk)
                # Walk complete frames in place: each body is parsed at
                # its (start, end) extent inside the read buffer, no
                # per-frame slice.  Dispatch is synchronous, so every
                # payload thunk is consumed before the buffer is
                # compacted below.  Rare paths (hello, control frames)
                # still copy their body out.
                pos = 0
                end = len(buf)
                walked = 0
                msgs = 0
                while end - pos >= _LEN.size:
                    (length,) = _LEN.unpack_from(buf, pos)
                    if length > MAX_FRAME_BYTES:
                        raise CodecError(
                            f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                        )
                    body_start = pos + _LEN.size
                    frame_end = body_start + length
                    if frame_end > end:
                        break
                    if fmt is None:
                        # First frame must be the JSON hello; answer
                        # with a welcome naming the format the rest of
                        # the stream (and any later frames already in
                        # this batch) uses.
                        hello = decode_frame_body(bytes(buf[body_start:frame_end]))
                        if hello.get("k") != "hello":
                            self.bad_connections += 1
                            return
                        chosen = choose_format(
                            hello.get("codecs"), hello.get("schema"), self._accept
                        )
                        writer.write(encode_frame({"k": "welcome", "codec": chosen}))
                        await writer.drain()
                        fmt = WIRE_FORMATS[chosen]
                        self.format_counts[chosen] = (
                            self.format_counts.get(chosen, 0) + 1
                        )
                        pos = frame_end
                        continue
                    walked += 1
                    try:
                        parsed = fmt.parse_msg_at(buf, body_start, frame_end)
                        if parsed is None:
                            # Not a msg frame: offer it to the control
                            # hook (obs polls, client requests); unknown
                            # kinds stay ignored so future frames don't
                            # kill the link.
                            if self._on_control is not None:
                                reply = self._on_control(
                                    fmt, bytes(buf[body_start:frame_end]), send
                                )
                                if reply is not None:
                                    writer.write(reply)
                                    await writer.drain()
                        else:
                            msgs += 1
                            on_msg(parsed)
                    except CodecError as exc:
                        # The framing is intact (the length prefix was
                        # sane), only this body is garbage: drop the one
                        # frame and keep the link — a single bad payload
                        # must not sever an otherwise healthy peer.
                        self.bad_frames += 1
                        logger.info(
                            "server %s:%s: dropped bad frame: %s",
                            self._host, self._port, exc,
                        )
                    pos = frame_end
                if pos:
                    del buf[:pos]
                if walked:
                    self.reads += 1
                    self.frames_received += msgs
                    if walked > self.max_frames_per_read:
                        self.max_frames_per_read = walked
        except CodecError as exc:
            self.bad_connections += 1
            logger.info("server %s:%s: bad peer frame: %s", self._host, self._port, exc)
        except (OSError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels connection tasks; swallowing the
            # cancellation here lets the task finish cleanly instead of
            # tripping asyncio.streams' connection_made callback, which
            # would log a spurious traceback for every open connection.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


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


async def run_with_timeout(coro: Awaitable[Any], timeout: float) -> Any:
    """``asyncio.wait_for`` wrapper: every realnet entry point takes a
    hard wall-clock budget so a wedged cluster can never hang CI."""
    return await asyncio.wait_for(coro, timeout=timeout)
