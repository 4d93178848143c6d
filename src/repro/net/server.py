"""The networked transaction server: a threaded TCP host for the engine.

This is the "real" counterpart of the simulator — a multithreaded server
(one thread per client connection, like the paper's thread-per-RPC
prototype) fronting one :class:`~repro.engine.manager.TransactionManager`.
It is kept as the *fidelity baseline*: one request, one response, one
thread per connection.  The high-throughput sibling is
:mod:`repro.net.aioserver`; both speak the identical wire protocol (a
shared conformance suite holds them to it) and both build responses via
:mod:`repro.net.requests`.

Concurrency discipline: the engine is single-threaded by design, so every
manager call happens under one mutex (the scheduler's critical section).
Strict-ordering waits must *not* hold that mutex — a blocked operation
registers a ``threading.Event`` with the wait registry, releases the
mutex, sleeps on the event, and retries once the blocking transaction
completes.  Because waiters only wait on older transactions, this cannot
deadlock; a timeout (the ``wait_timeout`` constructor/CLI parameter)
guards against a client that dies while holding an uncommitted write.

Pipelining note: this server reads one request at a time per connection
and answers before reading the next, so pipelined clients get their
responses strictly in request order.

Codec note: every connection starts in JSON line mode; a ``hello``
request negotiates the wire codec (:func:`repro.net.protocol.
negotiate_hello`) and the connection switches framing immediately after
the (JSON) hello response.  ``codecs=None`` disables negotiation
entirely — the server then behaves byte-for-byte like a pre-negotiation
build (``hello`` falls through to dispatch and earns ``unknown-op``),
which is how the tests emulate an old server.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
from typing import Any

from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.reasons import REASON_CLIENT_DISCONNECTED
from repro.engine.transactions import TransactionState
from repro.errors import ProtocolError
from repro.net.protocol import (
    JSON_CODEC,
    SUPPORTED_CODECS,
    Codec,
    LineTooLong,
    negotiate_hello,
)
from repro.net.requests import (
    NeedsWait,
    abort_on_timeout,
    attach_id,
    retry_operation,
    submit_request,
    try_cached_read,
)

__all__ = ["TransactionServer", "serve_forever", "WAIT_TIMEOUT_SECONDS"]

#: Default upper bound on one strict-ordering wait; transactions normally
#: finish in milliseconds, so hitting this means the blocker's client is
#: gone.  Override per server via the ``wait_timeout`` parameter.
WAIT_TIMEOUT_SECONDS = 30.0


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: a request/response loop."""

    server: "TransactionServer"

    def handle(self) -> None:
        # Small responses must not sit in Nagle's buffer waiting for the
        # client's delayed ACK — a pipelining client would otherwise see
        # ~40ms stalls between back-to-back responses.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        codec: Codec = JSON_CODEC
        reader = codec.make_reader(self.connection)
        # Transactions begun on this connection, so a dropped client's
        # in-flight transaction can be aborted on disconnect.
        sessions: dict[int, TransactionState] = {}
        try:
            while True:
                try:
                    message = reader.read_message()
                except LineTooLong as exc:
                    self._send(
                        codec,
                        {"ok": False, "error": "too_large", "detail": str(exc)},
                    )
                    return
                except ProtocolError as exc:
                    self._send(
                        codec,
                        {"ok": False, "error": "protocol", "detail": str(exc)},
                    )
                    return
                if message is None:
                    return
                if self.server.codecs is not None and message.get("op") == "hello":
                    # Negotiate, answer on the *current* codec, then switch
                    # framing — handing any already-buffered bytes to the
                    # new reader losslessly.
                    codec, reader = self._negotiate(codec, message, reader)
                    continue
                response = self.server.dispatch(message, sessions)
                self._send(codec, attach_id(response, message))
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            self.server.abandon(sessions)

    def _negotiate(self, codec: Codec, message: dict[str, Any], reader):
        chosen, response = negotiate_hello(message, self.server.codecs)
        self._send(codec, attach_id(response, message))
        if chosen is not codec:
            reader = chosen.make_reader(self.connection, reader.buffer)
            codec = chosen
        return codec, reader

    def _send(self, codec: Codec, response: dict[str, Any]) -> None:
        self.connection.sendall(codec.encode_response(response))


class TransactionServer(socketserver.ThreadingTCPServer):
    """A TCP transaction server around one database."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        database: Database,
        address: tuple[str, int] = ("127.0.0.1", 0),
        protocol: str = "esr",
        export_policy: str = "max",
        wait_timeout: float = WAIT_TIMEOUT_SECONDS,
        wait_policy: str = "wait",
        snapshot_cache: bool = False,
        shards: int = 1,
        processes: bool | str = False,
        codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
        record_history: bool = False,
    ):
        # Build (and validate) the engine before binding the socket, so
        # a bad protocol/option combination never leaks a bound port —
        # and, in process mode, so the shard workers fork before any
        # serving thread exists.
        self.manager = create_engine(
            database,
            protocol,
            export_policy=export_policy,
            wait_policy=wait_policy,
            snapshot_cache=snapshot_cache,
            shards=shards,
            processes=processes,
            record_history=record_history,
        )
        super().__init__(address, _Handler)
        #: Upper bound on one strict-ordering wait (see module constant).
        self.wait_timeout = wait_timeout
        #: Codecs offered to ``hello`` negotiation; None disables it
        #: (the connection then behaves like a pre-negotiation server).
        self.codecs = codecs
        # A thread-safe engine (the sharded composite) takes its own
        # per-shard locks, replacing the global engine mutex with
        # fine-grained critical sections; the bare managers still need
        # the single mutex.
        if getattr(self.manager, "thread_safe", False):
            self._mutex: Any = contextlib.nullcontext()
        else:
            self._mutex = threading.Lock()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def server_close(self) -> None:
        """Close the listener, then the engine's worker processes."""
        super().server_close()
        close = getattr(self.manager, "close", None)
        if close is not None:
            close()

    # -- request dispatch ------------------------------------------------------

    def dispatch(
        self, message: dict[str, Any], sessions: dict[int, TransactionState]
    ) -> dict[str, Any]:
        """Execute one request, blocking this thread through any waits."""
        # Snapshot-cache fast path: bounded-staleness reads are answered
        # from immutable published records without taking the mutex at
        # all.  Per-transaction ordering holds because one connection (and
        # therefore one transaction) is served by one handler thread
        # sequentially.  A None falls through to the engine path below.
        cached = try_cached_read(self.manager, message, sessions)
        if cached is not None:
            return cached
        with self._mutex:
            result = submit_request(self.manager, message, sessions)
            waiter = self._register_wait(result)
        while isinstance(result, NeedsWait):
            if not waiter.wait(self.wait_timeout):
                with self._mutex:
                    return abort_on_timeout(self.manager, result)
            with self._mutex:
                result = retry_operation(self.manager, result)
                waiter = self._register_wait(result)
        return result

    def _register_wait(
        self, result: dict[str, Any] | NeedsWait
    ) -> threading.Event | None:
        """Register a wait event while still holding the mutex."""
        if not isinstance(result, NeedsWait):
            return None
        return self.manager.waits.wait_event(
            result.blocking_transaction,
            waiter_transaction=result.txn.transaction_id,
        )

    # -- connection cleanup ----------------------------------------------------

    def abandon(self, sessions: dict[int, TransactionState]) -> None:
        """Abort whatever a disconnected client left active."""
        with self._mutex:
            for txn in sessions.values():
                if txn.is_active:
                    self.manager.abort(txn, REASON_CLIENT_DISCONNECTED)
        sessions.clear()

    def history(self) -> "HistoryLog":
        """The recorded history so far (empty when recording is off)."""
        from repro.engine.history import HistoryLog

        return HistoryLog.from_engine(self.manager)


def serve_forever(
    database: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    protocol: str = "esr",
    export_policy: str = "max",
    wait_timeout: float = WAIT_TIMEOUT_SECONDS,
    wait_policy: str = "wait",
    snapshot_cache: bool = False,
    shards: int = 1,
    processes: bool | str = False,
    codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
    record_history: bool = False,
) -> TransactionServer:
    """Start a server on a background thread; returns it (bound and live)."""
    server = TransactionServer(
        database,
        (host, port),
        protocol=protocol,
        export_policy=export_policy,
        wait_timeout=wait_timeout,
        wait_policy=wait_policy,
        snapshot_cache=snapshot_cache,
        shards=shards,
        processes=processes,
        codecs=codecs,
        record_history=record_history,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
