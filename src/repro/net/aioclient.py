"""Asyncio client with request pipelining for the transaction servers.

:class:`AsyncRemoteConnection` keeps one TCP connection and allows any
number of concurrent requests on it: every request is tagged with a
correlation ``id``, a single reader task matches responses back to their
futures, and callers simply ``await connection.request(...)`` from as
many tasks as they like.  Against the asyncio server responses may
arrive out of order (independent transactions overtake a parked wait);
against the threaded server they arrive in order — either way the ``id``
does the matching, so the same client drives both.

:class:`AsyncRemoteTransaction` mirrors the synchronous
:class:`~repro.net.client.RemoteTransaction` with ``async`` operations.
Many such transactions can share one connection, which is how the
tests drive the asyncio server's out-of-order answers.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.errors import ProtocolError
from repro.net.client import begin_request, begun_transaction, check_response
from repro.net.clock import VirtualClock
from repro.net.protocol import (
    CODECS,
    JSON_CODEC,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    Codec,
    decode_message,
)

__all__ = ["AsyncRemoteConnection", "AsyncRemoteTransaction", "connect"]


class AsyncRemoteTransaction:
    """A live transaction on a remote server (an awaitable session)."""

    _check = check_response

    def __init__(
        self,
        connection: "AsyncRemoteConnection",
        txn_id: int,
        kind: str,
        limit: float = 0.0,
    ):
        self._connection = connection
        self.txn_id = txn_id
        self.kind = kind
        self.limit = limit
        self.finished = False
        #: Inconsistency imported/exported so far, as reported per op.
        self.inconsistency = 0.0

    async def read(self, object_id: int) -> float:
        response = await self._connection.request(
            {"op": "read", "txn": self.txn_id, "object": object_id}
        )
        self._check(response)
        self.inconsistency += float(response.get("inconsistency") or 0.0)
        return float(response["value"])

    async def write(self, object_id: int, value: float) -> None:
        response = await self._connection.request(
            {"op": "write", "txn": self.txn_id, "object": object_id, "value": value}
        )
        self._check(response)
        self.inconsistency += float(response.get("inconsistency") or 0.0)

    async def commit(self) -> None:
        response = await self._connection.request(
            {"op": "commit", "txn": self.txn_id}
        )
        self._check(response)
        self.finished = True

    async def abort(self) -> None:
        if self.finished:
            return
        response = await self._connection.request(
            {"op": "abort", "txn": self.txn_id}
        )
        self._check(response)
        self.finished = True


class AsyncRemoteConnection:
    """One pipelined client connection; build via :func:`connect`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        site: int = 1,
    ):
        self.site = site
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._outbuf: list[bytes] = []
        self._flush_scheduled = False
        self._closed = False
        self._codec: Codec = JSON_CODEC
        # In-flight negotiation: the reader task switches framing the
        # moment it sees the hello response with this id, *before* its
        # next read — binary response bytes may follow immediately.
        self._hello_id: int | None = None
        self._want_codec: Codec | None = None
        #: The codec actually in effect after negotiation.
        self.negotiated_codec = "json"
        self.clock = VirtualClock()
        self._timestamps: TimestampGenerator | None = None
        self._reader_task = asyncio.create_task(self._read_responses())

    # -- plumbing --------------------------------------------------------------

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request; resolves when its tagged response arrives.

        Any number of requests may be outstanding concurrently — this is
        the pipelining primitive.
        """
        if self._closed:
            raise ProtocolError("connection is closed")
        loop = asyncio.get_running_loop()
        self._next_id += 1
        correlation = self._next_id
        future: asyncio.Future = loop.create_future()
        self._pending[correlation] = future
        try:
            # Coalesce writes: buffer the encoded request and flush once
            # per loop tick, so concurrent sessions on this connection
            # share one syscall instead of paying one each.
            self._outbuf.append(
                self._codec.encode_request({**message, "id": correlation})
            )
            if not self._flush_scheduled:
                self._flush_scheduled = True
                loop.call_soon(self._flush)
            return await future
        finally:
            self._pending.pop(correlation, None)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self._closed or not self._outbuf:
            return
        payload = b"".join(self._outbuf)
        self._outbuf.clear()
        self._writer.write(payload)

    async def _read_responses(self) -> None:
        try:
            while True:
                if self._codec is not JSON_CODEC:
                    header = await self._reader.readexactly(4)
                    size = int.from_bytes(header, "little")
                    if size < 1 or size > MAX_FRAME_BYTES:
                        raise ProtocolError(
                            f"binary frame of {size} bytes exceeds "
                            f"{MAX_FRAME_BYTES} bytes"
                        )
                    frame = await self._reader.readexactly(size)
                    response = self._codec.decode(frame)
                else:
                    line = await self._reader.readuntil(b"\n")
                    response = decode_message(line.rstrip(b"\n"))
                rid = response.get("id")
                if self._hello_id is not None and rid == self._hello_id:
                    self._finish_negotiation(response)
                future = self._pending.get(rid)
                if future is not None and not future.done():
                    future.set_result(response)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            OSError,
            ProtocolError,
        ) as exc:
            self._fail_pending(exc)
        except asyncio.CancelledError:
            self._fail_pending(None)
            raise

    def _finish_negotiation(self, response: dict[str, Any]) -> None:
        """Reader-side half of :meth:`negotiate_codec`: apply the switch
        between this response and the next read."""
        want = self._want_codec
        self._hello_id = None
        self._want_codec = None
        if (
            want is not None
            and response.get("ok")
            and response.get("codec") == want.name
        ):
            self._codec = want
            self.negotiated_codec = want.name

    async def negotiate_codec(self, name: str) -> str:
        """Negotiate the wire codec; returns the name actually in effect.

        Must run on a quiet connection (no requests in flight): the
        framing switch applies to every byte after the hello response,
        so an earlier response still travelling as a JSON line would be
        misparsed.  An old server answers ``unknown-op`` and the
        connection simply stays on JSON.
        """
        if name not in CODECS:
            raise ValueError(
                f"unknown codec {name!r}; choose from {sorted(CODECS)}"
            )
        if name == self._codec.name:
            return self.negotiated_codec
        if self._pending:
            raise ProtocolError(
                "codec negotiation requires a quiet connection "
                f"({len(self._pending)} requests in flight)"
            )
        self._want_codec = CODECS[name]
        # request() assigns ids with a synchronous pre-increment, so the
        # hello's id is knowable before the call.
        self._hello_id = self._next_id + 1
        await self.request({"op": "hello", "codecs": [name]})
        return self.negotiated_codec

    def _fail_pending(self, cause: BaseException | None) -> None:
        self._closed = True
        error = ProtocolError("server closed the connection")
        if cause is not None:
            error.__cause__ = cause
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncRemoteConnection":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- clock sync and transactions -------------------------------------------

    async def synchronize_clock(self) -> None:
        sent = time.time()
        response = await self.request({"op": "time"})
        received = time.time()
        if not response.get("ok"):
            raise ProtocolError("server refused the time request")
        self.clock.synchronize(float(response["time"]), sent, received)
        self._timestamps = TimestampGenerator(
            site=self.site, clock=self.clock.now
        )

    async def begin(
        self,
        kind: str,
        bounds: TransactionBounds | EpsilonLevel | float = 0.0,
        group_limits: dict[str, float] | None = None,
        object_limits: dict[int, float] | None = None,
        timestamp: Timestamp | None = None,
    ) -> AsyncRemoteTransaction:
        """Begin a transaction (same semantics as the sync client)."""
        if timestamp is None:
            if self._timestamps is None:
                raise ProtocolError(
                    "clock not synchronized; call synchronize_clock() first "
                    "or pass an explicit timestamp"
                )
            timestamp = self._timestamps.next()
        limit, message = begin_request(
            kind, bounds, timestamp, group_limits, object_limits
        )
        txn_id = begun_transaction(await self.request(message))
        return AsyncRemoteTransaction(self, txn_id, kind, limit=limit)


async def connect(
    host: str,
    port: int,
    site: int = 1,
    timeout: float = 60.0,
    codec: str = "json",
) -> AsyncRemoteConnection:
    """Open a pipelined connection and synchronise its virtual clock.

    ``codec="binary-1"`` negotiates the binary wire codec after clock
    sync; the connection stays on JSON when the server declines.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port, limit=MAX_LINE_BYTES + 1),
        timeout,
    )
    connection = AsyncRemoteConnection(reader, writer, site=site)
    await connection.synchronize_clock()
    if codec != "json":
        await connection.negotiate_codec(codec)
    return connection
