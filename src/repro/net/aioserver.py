"""The high-throughput non-blocking transaction server.

A transport around :class:`repro.net.requests.Conversation`, like the
threaded server (:mod:`repro.net.server`), so the wire contract is the
same.  One ``selectors`` loop thread serves every connection and is the
engine's critical section.  A readable socket gets one ``recv``; every
request in the chunk runs at once and the chunk's responses leave in one
``send``.  Pipelined requests carry an ``id`` the response echoes, and a
parked wait delays only its own response.  A parked operation subscribes
a :class:`_Parked` entry, retried after the event pass once woken and
aborted by a deadline heap on ``wait_timeout``.  Unsent responses wait in
a per-connection backlog; with ``max_inflight`` requests parked, on a
lane or in the backlog, the socket is not read.  A sharded engine locks
per shard, so its calls run on single-thread FIFO executor lanes, one per
connection, which wake the loop through a ``socketpair``.

The module keeps the name ``aioserver`` from when it ran on asyncio: the
benchmark, the chaos harness and the CLI import it by that name.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import selectors
import socket
import threading
import time
from collections import deque
from contextlib import suppress
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro import perf
from repro.engine.api import Engine, create_engine
from repro.engine.database import Database
from repro.net.protocol import SUPPORTED_CODECS
from repro.net.requests import (
    Conversation, Failure, NeedsWait, abort_on_timeout, attach_id,
    retry_operation, submit_batch, submit_request,
)
from repro.net.server import WAIT_TIMEOUT_SECONDS

__all__ = ["AsyncTransactionServer", "AsyncServerThread", "serve_in_thread"]

#: Per-connection cap on requests accepted but not yet answered.
DEFAULT_MAX_INFLIGHT = 128
#: Bytes asked of one ``recv`` — below glibc's mmap threshold, so the
#: buffer comes from the heap rather than freshly mapped pages.
RECV_SIZE = 65536

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
_log = logging.getLogger(__name__)


class _Parked:
    """One parked operation.  The wait registry calls :meth:`set` (from a
    lane thread in sharded mode); :meth:`take` empties it, once."""

    __slots__ = ("server", "conn", "message", "pending")

    def __init__(self, server, conn, message, pending):
        self.server, self.conn, self.message, self.pending = server, conn, message, pending

    def set(self) -> None:
        server = self.server
        server._ready.append(self)
        if server._lanes is not None:
            server._wake()

    def take(self) -> tuple:
        taken = self.conn, self.message, self.pending
        if self.conn is not None:
            self.conn = self.message = self.pending = None
            self.server._parked_live -= 1
        return taken


class _Connection:
    """One client socket, its conversation and what it is still owed."""

    __slots__ = ("sock", "conv", "sessions", "backlog", "pending", "events",
                 "failure", "closing", "closed", "lane")

    def __init__(self, sock: socket.socket, conv: Conversation, lane):
        self.sock = sock
        self.conv = conv
        self.sessions = conv.sessions  # the same map, one hop nearer
        self.backlog: list[bytes] = []  # unsent responses, one entry each
        self.pending = 0  # requests parked on a wait or on the lane
        self.events = 0  # what the selector watches the socket for
        #: The framing Failure, answered once ``pending`` reaches zero.
        self.failure: Failure | None = None
        self.closing = self.closed = False  # closing: read no more, then close
        self.lane: ThreadPoolExecutor | None = lane  # sharded mode only


class AsyncTransactionServer:
    """A non-blocking TCP server around one database: ``start()``, then
    ``serve_forever()`` until ``close()`` from any thread.  Keywords beyond
    the server's own are engine options for ``create_engine``."""

    def __init__(self, database: Database, *, wait_timeout: float = WAIT_TIMEOUT_SECONDS,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 codecs: tuple[str, ...] | None = SUPPORTED_CODECS, **engine_options: Any):
        self.manager: Engine = create_engine(database, **engine_options)
        #: Upper bound on one strict-ordering wait, in seconds.
        self.wait_timeout = wait_timeout
        self.max_inflight = max_inflight
        #: Codecs offered to ``hello`` negotiation; None disables it
        #: (the connection then behaves like a pre-negotiation server).
        self.codecs = codecs
        self._connections: set[_Connection] = set()
        self._selector: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._wake_r = self._wake_w = None
        self._ready: deque[_Parked] = deque()  # woken, to retry
        #: Lane results: (connection, messages, results or None on error).
        self._done: deque[tuple[_Connection, list, list | None]] = deque()
        self._deadlines: list[tuple[float, int, _Parked]] = []
        self._seq = itertools.count()
        self._parked_live = 0  # entries not yet taken
        self._stopping = self._closed = False
        self._serving = threading.Event()
        self._served = threading.Event()
        self._lanes: list[ThreadPoolExecutor] | None = None  # classic mode
        if getattr(self.manager, "thread_safe", False):
            self._lanes = [ThreadPoolExecutor(1, f"aio-shard-{i}")
                           for i in range(self.manager.shards)]
        self._next_lane = itertools.cycle(self._lanes or [None])  # round-robin

    @property
    def port(self) -> int:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[1]

    def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and listen; :meth:`serve_forever` then runs the loop."""
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family, backlog=128)
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.setblocking(False)
        self._selector.register(self._listener, _READ)
        self._selector.register(self._wake_r, _READ)

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until :meth:`close`."""
        self._serving.set()
        try:
            self._loop()
        finally:
            self._served.set()

    def close(self) -> None:
        """Stop and await the loop; close connections, lanes and engine."""
        if self._closed:
            return
        self._closed = self._stopping = True
        if self._serving.is_set():
            self._wake()
            self._served.wait()
        # Joined, so no lane outlives its server; queued work is dropped.
        for lane in self._lanes or ():
            lane.shutdown(wait=True, cancel_futures=True)
        for conn in list(self._connections):
            conn.lane = None  # the lanes are joined: clean up right here
            self._close(conn)
        if self._selector is not None:  # started
            self._selector.close()
            for sock in (self._listener, self._wake_r, self._wake_w):
                sock.close()
        getattr(self.manager, "close", lambda: None)()

    def history(self) -> "HistoryLog":
        """The recorded history so far (empty when recording is off)."""
        from repro.engine.history import HistoryLog
        return HistoryLog.from_engine(self.manager)

    def _loop(self) -> None:
        select = self._selector.select
        listener = self._listener
        ready, done, deadlines = self._ready, self._done, self._deadlines
        while not self._stopping:
            timeout = None
            if ready or done or deadlines:
                timeout = 0.0 if ready or done else max(deadlines[0][0] - time.monotonic(), 0)
            for key, mask in select(timeout):
                conn = key.data
                if conn is None:
                    if key.fileobj is listener:
                        self._accept()
                    else:  # the wake-up pipe
                        with suppress(OSError):
                            self._wake_r.recv(4096)
                    continue
                try:
                    if mask & _WRITE and conn.backlog:
                        backlog, conn.backlog = conn.backlog, []
                        self._write(conn, backlog)
                        self._flush(conn, [])
                    if mask & _READ and not conn.closed:
                        self._read(conn)
                except Exception:
                    self._crash(conn)
            while done:
                conn, messages, results = done.popleft()
                if conn.closed:
                    continue
                if results is None:
                    self._close(conn)  # the lane has logged why
                    continue
                try:
                    self._complete(conn, messages, results)
                except Exception:
                    self._crash(conn)
            while ready:
                self._resume(ready.popleft(), retry_operation)
            if deadlines:
                now = time.monotonic()
                while deadlines and deadlines[0][0] <= now:
                    self._resume(heapq.heappop(deadlines)[2], abort_on_timeout)

    def _accept(self) -> None:
        try:  # a peer may reset before the options are set
            sock, _address = self._listener.accept()
            sock.setblocking(False)
            # Small responses must not wait for the peer's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            return
        conn = _Connection(sock, Conversation(self.manager, self.codecs), next(self._next_lane))
        self._connections.add(conn)
        self._flush(conn, [])

    def _read(self, conn: _Connection) -> None:
        """One ``recv``; every request in it dispatched; one ``send``."""
        try:
            data = conn.sock.recv(RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        conv = conn.conv
        items: Any = conv.feed(data) if data else [conv.eof()]
        if not data and items[0] is None:  # end of stream: send what is
            conn.closing = True  # buffered, then close
            self._flush(conn, [])
            return
        out: list[bytes] = []
        group: list[dict[str, Any]] = []
        lanes, manager, sessions = self._lanes, self.manager, conn.sessions
        dispatched = 0
        for item in items:
            kind = type(item)
            if kind is dict:
                dispatched += 1
                if lanes is not None:
                    group.append(item)
                    continue
                result = submit_request(manager, item, sessions)
                if type(result) is NeedsWait:
                    conn.pending += 1
                    self._park(conn, item, result)
                    continue
                conv.answered(item)
                if "id" in item:
                    result["id"] = item["id"]
                out.append(conv.codec.encode_response(result))
            elif kind is bytes:  # answered by the conversation
                out.append(item)
            else:  # the final Failure: answered after all before it
                conn.failure, conn.closing = item, True
        if dispatched:
            perf.counters.net_batches_drained += 1
            perf.counters.net_requests_batched += dispatched
        if group:
            conn.pending += len(group)
            self._run(conn, group, lambda: submit_batch(manager, group, sessions))
        self._flush(conn, out)

    def _complete(self, conn: _Connection, messages: list, results: list) -> None:
        """Answer, or park again, requests that left the read path."""
        conv = conn.conv
        out = []
        for message, result in zip(messages, results):
            if type(result) is NeedsWait:
                self._park(conn, message, result)
                continue
            conn.pending -= 1
            conv.answered(message)
            out.append(conv.codec.encode_response(attach_id(result, message)))
        self._flush(conn, out)

    def _flush(self, conn: _Connection, out: list[bytes]) -> None:
        """Send ``out`` behind the backlog; then watch, or close, the socket."""
        if conn.failure is not None and not conn.pending:
            out.append(conn.conv.codec.encode_response(conn.failure.response()))
            conn.failure = None
        if conn.backlog:
            conn.backlog.extend(out)
        elif out:
            self._write(conn, out)
        if conn.closed:
            return
        if conn.closing and conn.failure is None and not conn.backlog:
            self._close(conn)
            return
        want = 0
        if not conn.closing:
            if conn.pending + len(conn.backlog) < self.max_inflight:
                want = _READ
            elif conn.events & _READ:
                # In-flight window full: stop reading until it drains.
                perf.counters.net_backpressure_stalls += 1
        if conn.backlog:
            want |= _WRITE
        if want != conn.events:
            if not conn.events:
                self._selector.register(conn.sock, want, conn)
            elif not want:
                self._selector.unregister(conn.sock)
            else:
                self._selector.modify(conn.sock, want, conn)
            conn.events = want

    def _write(self, conn: _Connection, chunks: list[bytes]) -> None:
        """One ``send``; what the kernel leaves goes to the backlog."""
        if len(chunks) > 1:
            perf.counters.net_flushes_coalesced += 1
        payload = b"".join(chunks) if len(chunks) > 1 else chunks[0]
        try:
            sent = conn.sock.send(payload)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent < len(payload):
            for chunk in chunks:
                if sent >= len(chunk):
                    sent -= len(chunk)
                else:
                    conn.backlog.append(chunk[sent:])
                    sent = 0

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._connections.discard(conn)
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        conn.sock.close()
        if conn.lane is None:
            conn.conv.abandon()
        else:  # behind the requests still on the lane
            self._run(conn, [], conn.conv.abandon)

    def _crash(self, conn: _Connection) -> None:
        _log.exception("request handling failed; closing the connection")
        self._close(conn)

    def _park(self, conn: _Connection, message: dict, pending: NeedsWait) -> None:
        parked = _Parked(self, conn, message, pending)
        self._parked_live += 1
        heap = self._deadlines
        if len(heap) > 64 and len(heap) > 2 * self._parked_live:
            # Mostly shells of woken entries: drop them in one pass.
            heap[:] = [entry for entry in heap if entry[2].conn is not None]
            heapq.heapify(heap)
        deadline = time.monotonic() + self.wait_timeout
        heapq.heappush(heap, (deadline, next(self._seq), parked))
        self.manager.waits.subscribe(pending.blocking_transaction, parked.set,
                                     waiter_transaction=pending.txn.transaction_id)

    def _resume(self, parked: _Parked, call: Callable) -> None:
        """Retry (or time out) a parked operation, unless done already."""
        conn, message, pending = parked.take()
        if conn is not None and not conn.closed:
            manager = self.manager
            self._run(conn, [message], lambda: [call(manager, pending)])

    def _run(self, conn: _Connection, messages: list, job: Callable) -> None:
        """Run ``job`` here or on the connection's lane, and answer it."""
        if conn.lane is None:
            try:
                self._complete(conn, messages, job())
            except Exception:
                self._crash(conn)
            return

        def run() -> None:
            try:
                results = job()
            except Exception:
                _log.exception("request handling failed on a shard lane")
                results = None
            self._done.append((conn, messages, results))
            self._wake()

        conn.lane.submit(run)

    def _wake(self) -> None:
        with suppress(OSError):  # a full pipe: the loop is awake anyway
            self._wake_w.send(b"\0")


class AsyncServerThread:
    """An :class:`AsyncTransactionServer` on its own loop thread, bound
    when construction returns; :meth:`shutdown` stops, joins and closes
    it.  The counterpart of :func:`repro.net.server.serve_forever`."""

    #: The event loop the server runs on (reported by benchmarks).
    loop_implementation = "selectors"

    def __init__(self, server: AsyncTransactionServer, host: str, port: int):
        self.server = server
        try:
            server.start(host, port)
        except BaseException:
            server.close()
            raise
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def manager(self) -> Engine:
        return self.server.manager

    def shutdown(self) -> None:
        self.server.close()
        self._thread.join(timeout=10.0)


def serve_in_thread(
    database: Database, host: str = "127.0.0.1", port: int = 0, **options: Any
) -> AsyncServerThread:
    """Start a server on a background loop thread (bound and live).
    ``options`` are :class:`AsyncTransactionServer`'s keywords."""
    return AsyncServerThread(AsyncTransactionServer(database, **options), host, port)
