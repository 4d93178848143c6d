"""The networked transaction server: a threaded TCP host for the engine.

This is the "real" counterpart of the simulator — a multithreaded server
(one thread per client connection, like the paper's thread-per-RPC
prototype) fronting one :class:`~repro.engine.manager.TransactionManager`.
It is kept as the *fidelity baseline*: one request, one response, one
thread per connection.  The high-throughput sibling is
:mod:`repro.net.aioserver`; both are transports around the same
:class:`repro.net.requests.Conversation`, which owns everything about a
connection that is not I/O — framing, size caps, ``hello`` negotiation,
inline snapshot-cache answers, disconnect clean-up — so the wire
contract cannot differ between them (a shared conformance suite checks
that it does not).  What this module adds is how requests *run*: a
blocking ``recv``, one dispatch at a time, a ``sendall`` per response.

Concurrency discipline: the engine is single-threaded by design, so every
manager call happens under one mutex (the scheduler's critical section).
Strict-ordering waits must *not* hold that mutex — a blocked operation
registers a ``threading.Event`` with the wait registry, releases the
mutex, sleeps on the event, and retries once the blocking transaction
completes.  Because waiters only wait on older transactions, this cannot
deadlock; a timeout (the ``wait_timeout`` constructor/CLI parameter)
guards against a client that dies while holding an uncommitted write.

Pipelining note: this server runs one request at a time per connection
and answers it before looking at the next, so pipelined clients get
their responses strictly in request order.

``codecs=None`` disables ``hello`` negotiation entirely — the server then
behaves byte-for-byte like a pre-negotiation build (``hello`` earns
``unknown-op``), which is how the tests emulate an old server.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
from typing import Any

from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.transactions import TransactionState
from repro.net.protocol import SUPPORTED_CODECS
from repro.net.requests import (
    Conversation,
    NeedsWait,
    abort_on_timeout,
    attach_id,
    retry_operation,
    submit_request,
)

__all__ = ["TransactionServer", "serve_forever", "WAIT_TIMEOUT_SECONDS"]

#: Default upper bound on one strict-ordering wait; transactions normally
#: finish in milliseconds, so hitting this means the blocker's client is
#: gone.  Override per server via the ``wait_timeout`` parameter.
WAIT_TIMEOUT_SECONDS = 30.0


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: recv, feed the conversation, act on it."""

    server: "TransactionServer"

    def handle(self) -> None:
        sock = self.connection
        # Small responses must not sit in Nagle's buffer waiting for the
        # client's delayed ACK — a pipelining client would otherwise see
        # ~40ms stalls between back-to-back responses.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server = self.server
        conv = Conversation(server.manager, server.codecs)
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    failure = conv.eof()
                    if failure is not None:
                        self._send(conv, failure.response())
                    return
                # The conversation yields lazily: each request is
                # dispatched and answered before the next frame is even
                # looked at, hence the strict response order.
                for item in conv.feed(data):
                    if type(item) is dict:
                        response = server.dispatch(item, conv.sessions)
                        conv.answered(item)
                        self._send(conv, attach_id(response, item))
                    elif type(item) is bytes:
                        sock.sendall(item)
                    else:  # the final Failure
                        self._send(conv, item.response())
                        return
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            with server._mutex:
                conv.abandon()

    def _send(self, conv: Conversation, response: dict[str, Any]) -> None:
        self.connection.sendall(conv.codec.encode_response(response))


class TransactionServer(socketserver.ThreadingTCPServer):
    """A TCP transaction server around one database.

    Every keyword beyond the server's own (``wait_timeout``, ``codecs``)
    is an engine option for :func:`~repro.engine.api.create_engine`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        database: Database,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        wait_timeout: float = WAIT_TIMEOUT_SECONDS,
        codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
        **engine_options: Any,
    ):
        # Build (and validate) the engine before binding the socket, so
        # a bad protocol/option combination never leaks a bound port —
        # and, in process mode, so the shard workers fork before any
        # serving thread exists.
        self.manager = create_engine(database, **engine_options)
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

    def history(self) -> "HistoryLog":
        """The recorded history so far (empty when recording is off)."""
        from repro.engine.history import HistoryLog

        return HistoryLog.from_engine(self.manager)


def serve_forever(
    database: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    wait_timeout: float = WAIT_TIMEOUT_SECONDS,
    codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
    **engine_options: Any,
) -> TransactionServer:
    """Start a server on a background thread; returns it (bound and live).

    Keywords beyond the server's own are engine options for
    :func:`~repro.engine.api.create_engine`.
    """
    server = TransactionServer(
        database,
        (host, port),
        wait_timeout=wait_timeout,
        codecs=codecs,
        **engine_options,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
