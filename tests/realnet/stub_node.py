"""A loopback listener speaking just enough of the node socket to
script what a store client sees (``tests/realnet`` helpers)."""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.client.protocol import (
    ClientReply,
    ClientRequest,
    client_reply_frame,
    parse_client_request,
)
from repro.realnet.codec import _LEN, decode_frame_body, encode_frame
from repro.realnet.codec_bin import BIN_FORMAT
from repro.realnet.transport import WELCOME

#: Scripted answer to one request: the replies to write, or None to drop
#: the connection.
Answer = Callable[[ClientRequest], "list[ClientReply] | None"]


class StubNode:
    """A loopback listener speaking just enough of the node socket.

    Each accepted connection plays the next scripted behaviour (the last
    one repeats): ``"wedged"`` accepts and never writes; ``"garbage"``
    welcomes, then answers every request with an undecodable ``cli``
    frame; ``"ok"`` welcomes and answers every request ``ok``;
    ``"scripted"`` welcomes and writes what ``answer(request)`` returns.
    """

    def __init__(self, *script: str, answer: Answer | None = None) -> None:
        self.script = script
        self.answer = answer
        self.dials = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    @staticmethod
    async def _read(reader: asyncio.StreamReader) -> bytes:
        (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
        return await reader.readexactly(length)

    async def _serve(self, reader, writer) -> None:
        behaviour = self.script[min(self.dials, len(self.script) - 1)]
        self.dials += 1
        try:
            if behaviour == "wedged":
                await reader.read()  # until the dialer gives up
                return
            assert decode_frame_body(await self._read(reader))["k"] == "hello"
            writer.write(encode_frame(WELCOME))
            while True:
                request = parse_client_request(BIN_FORMAT, await self._read(reader))
                if behaviour == "garbage":
                    writer.write(_LEN.pack(3) + b"\x04\xff\xff")
                    continue
                if behaviour == "scripted":
                    replies = self.answer(request)
                    if replies is None:
                        return  # drop the connection
                else:
                    replies = [ClientReply(request.req_id, "ok")]
                for reply in replies:
                    writer.write(client_reply_frame(BIN_FORMAT, reply))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
