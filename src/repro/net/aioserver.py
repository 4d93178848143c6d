"""The high-throughput asyncio transaction server.

Same engine, same wire protocol as the threaded server
(:mod:`repro.net.server`) — literally the same: both are transports
around :class:`repro.net.requests.Conversation`, which frames the bytes,
negotiates the codec, answers snapshot-cache reads inline and cleans up
after a vanished client.  This module is the serving architecture.  The
engine is single-threaded by design; here the event loop *is* the
critical section — every
:class:`~repro.engine.manager.TransactionManager` call happens on the
loop thread, so the threaded server's global mutex disappears entirely.
Three throughput levers ride on top:

**Pipelining.**  Clients may keep many requests in flight per connection.
Requests carry a correlation ``id`` which the response echoes; responses
for *independent* transactions may return out of order (a parked
strict-ordering wait delays only its own response).  Requests without an
``id`` are answered untagged, so one-at-a-time clients — including the
existing :class:`~repro.net.client.RemoteConnection` — work unchanged.

**Batched dispatch.**  The transport layer is a callback-based
:class:`asyncio.BufferedProtocol` (no stream-reader coroutine per
connection): ``buffer_updated`` feeds a chunk to the conversation and
appends the requests it yields to one shared queue, and a single
dispatcher task drains the *entire* queue per loop tick, running it
against the manager in one pass — per-request overhead is amortised
across the batch.  Strict-ordering waits become
``asyncio.Event`` subscriptions on the wait registry (no blocked
threads): a parked operation lives in its own small task that retries
when the blocker completes and aborts on ``wait_timeout``.

**Write coalescing and backpressure.**  Responses are buffered per
connection and flushed once per batch — many responses, one syscall.
Backpressure is two-sided: a connection that exceeds its in-flight
window (``max_inflight`` requests awaiting responses) has its socket
reads paused until responses drain, and a slow *reader* that backs up
the transport write buffer (``pause_writing``) causes responses to be
held in the connection's buffer — itself bounded by the window — until
the transport drains.

**Off-loop shard executors** (``shards > 1``).  With a sharded engine
(:class:`~repro.engine.sharded.ShardedEngine`) the loop is no longer the
critical section — the engine takes its own per-shard locks.  The
dispatcher then stops running engine calls inline: each request is handed
to one of ``manager.shards`` single-thread executor *lanes*.  A connection is
pinned to one lane (round-robin), so a pipelined client's responses keep
request order — the same wire contract as the threaded server — while
different connections execute engine calls concurrently across lanes.
Completion callbacks marshal responses back onto the loop, which
remains the only thread that touches transports and buffers.  Wait
events are loop-affine but may be fired from executor threads, so the
sharded mode wraps them in :class:`_LoopEvent` (``set`` via
``call_soon_threadsafe``).

Observability: ``repro.perf.counters`` tallies requests batched, batches
drained, coalesced flushes, backpressure stalls, and ``net_codec_*``
frame/negotiation counts.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro import perf
from repro.engine.api import Engine, create_engine
from repro.engine.database import Database
from repro.net.protocol import SUPPORTED_CODECS
from repro.net.requests import (
    Conversation,
    Failure,
    NeedsWait,
    abort_on_timeout,
    attach_id,
    retry_operation,
    submit_batch,
    submit_request,
)
from repro.net.server import WAIT_TIMEOUT_SECONDS

__all__ = ["AsyncTransactionServer", "AsyncServerThread", "serve_in_thread"]

#: Per-connection cap on requests accepted but not yet answered.
DEFAULT_MAX_INFLIGHT = 128


class _LoopEvent:
    """An awaitable event whose ``set()`` is safe from any thread.

    The sharded engine fires wait-registry callbacks from whichever
    executor thread completes the blocking transaction; a plain
    ``asyncio.Event.set`` from a foreign thread races the loop.  This
    wrapper marshals the set through ``call_soon_threadsafe`` while
    ``wait()`` stays a normal loop-side await.
    """

    __slots__ = ("_event", "_loop")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._event = asyncio.Event()
        self._loop = loop

    def set(self) -> None:
        self._loop.call_soon_threadsafe(self._event.set)

    async def wait(self) -> None:
        await self._event.wait()


class _Connection(asyncio.BufferedProtocol):
    """One client connection's transport: a receive buffer in, a response
    buffer out, the in-flight window between them.  What the bytes mean
    is the :class:`~repro.net.requests.Conversation`'s business."""

    __slots__ = (
        "server",
        "transport",
        "conv",
        "sessions",
        "out",
        "inflight",
        "read_paused",
        "write_paused",
        "flush_pending",
        "closing",
        "closed",
        "lane",
        "recv_view",
    )

    def __init__(self, server: "AsyncTransactionServer"):
        self.server = server
        self.transport: asyncio.Transport | None = None
        #: Receive buffer the transport reads into.  A plain Protocol
        #: makes the transport allocate (and shrink, and free) a 256 KiB
        #: bytes object per recv; at that size glibc keeps mapping and
        #: trimming memory, which cost a steady-state server a tenth of
        #: its throughput in page faults.
        self.recv_view = memoryview(bytearray(65536))
        self.conv = Conversation(server.manager, server.codecs)
        self.sessions = self.conv.sessions  # the same map, one hop nearer
        self.out: list[bytes] = []
        self.inflight = 0
        self.read_paused = False
        self.write_paused = False
        self.flush_pending = False
        self.closing = False  # error reply buffered; close once flushed
        self.closed = False
        #: Off-loop shard-executor mode: the FIFO lane serving this
        #: connection's engine calls (assigned round-robin on first use).
        self.lane: ThreadPoolExecutor | None = None

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.server._connections.discard(self)
        self.conv.abandon()

    def pause_writing(self) -> None:
        # Slow reader: hold responses in self.out (bounded by the
        # in-flight window) instead of growing the transport buffer.
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self.flush_now()

    def eof_received(self) -> bool | None:
        failure = self.conv.eof()
        if failure is not None:
            self.server._queue.append((self, failure))
            self.server._queue_ready.set()
        # Keep the transport open while an error response is still in
        # flight through the dispatch queue; flush_now() closes it.
        return self.conv.failed

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.recv_view

    def buffer_updated(self, nbytes: int) -> None:
        server = self.server
        queue = server._queue
        queued = 0
        answered_inline = False
        for item in self.conv.feed(bytes(self.recv_view[:nbytes])):
            if type(item) is dict:
                queue.append((self, item))
                queued += 1
            elif type(item) is bytes:
                # Answered by the conversation (hello, a cache hit):
                # never queued, never counted against the window.
                self.out.append(item)
                answered_inline = True
            else:
                # The final Failure: the dispatcher answers it in order,
                # after the requests queued before it.
                queue.append((self, item))
                server._queue_ready.set()
        self.inflight += queued
        if queued:
            server._queue_ready.set()
        if self.inflight >= server.max_inflight and not self.read_paused:
            # In-flight window full: stop reading until responses drain.
            perf.counters.net_backpressure_stalls += 1
            self.read_paused = True
            self.transport.pause_reading()
        if answered_inline:
            # The dispatcher only flushes connections it answers, so the
            # inline responses need their own (idempotent, coalesced)
            # flush — e.g. when nothing was queued, or every queued
            # request parked on a wait.
            self.schedule_flush()

    # -- response path ---------------------------------------------------------

    def enqueue(self, response: dict[str, Any]) -> None:
        """Buffer one response; reopens the read window if it was full."""
        if self.inflight > 0:
            self.inflight -= 1
        if self.read_paused and self.inflight < self.server.max_inflight:
            self.read_paused = False
            if not self.closed:
                self.transport.resume_reading()
        if self.closed:
            return
        self.out.append(self.conv.codec.encode_response(response))

    def flush_now(self) -> None:
        """Write the buffered responses in one transport write."""
        self.flush_pending = False
        if self.closed or self.write_paused or not self.out:
            return
        if len(self.out) > 1:
            perf.counters.net_flushes_coalesced += 1
        payload = b"".join(self.out)
        self.out.clear()
        self.transport.write(payload)
        if self.closing:
            self.closed = True
            self.transport.close()

    def schedule_flush(self) -> None:
        if self.flush_pending or self.closed:
            return
        self.flush_pending = True
        self.server._loop.call_soon(self.flush_now)


class AsyncTransactionServer:
    """An asyncio TCP transaction server around one database.

    Usage (on a running loop)::

        server = AsyncTransactionServer(database, wait_timeout=5.0)
        await server.start(host, port)
        ...
        await server.aclose()

    From synchronous code use :func:`serve_in_thread`, which runs the
    whole server on a dedicated loop thread.  Every keyword beyond the
    server's own is an engine option for
    :func:`~repro.engine.api.create_engine`.
    """

    def __init__(
        self,
        database: Database,
        *,
        wait_timeout: float = WAIT_TIMEOUT_SECONDS,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
        **engine_options: Any,
    ):
        self.manager: Engine = create_engine(database, **engine_options)
        #: Upper bound on one strict-ordering wait, in seconds.
        self.wait_timeout = wait_timeout
        self.max_inflight = max_inflight
        #: Codecs offered to ``hello`` negotiation; None disables it
        #: (the connection then behaves like a pre-negotiation server).
        self.codecs = codecs
        self._queue: deque[tuple[_Connection, dict[str, Any] | Failure]] = deque()
        self._connections: set[_Connection] = set()
        self._queue_ready: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._waiters: set[asyncio.Task] = set()
        # Off-loop dispatch lanes (sharded mode only): one single-thread
        # executor per shard; each connection is pinned to one lane
        # (round-robin) so its responses keep request order while
        # different connections run engine calls concurrently.  None
        # means classic mode: the loop itself is the engine critical
        # section.
        if getattr(self.manager, "thread_safe", False):
            self._lanes: list[ThreadPoolExecutor] | None = [
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"aio-shard-{i}"
                )
                for i in range(self.manager.shards)
            ]
        else:
            self._lanes = None
        self._lane_rr = 0

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue_ready = asyncio.Event()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), host, port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            conn.flush_now()
            if conn.transport is not None:
                conn.transport.close()
        for task in (self._dispatcher, *self._waiters):
            if task is not None:
                task.cancel()
        await asyncio.gather(
            *(t for t in (self._dispatcher, *self._waiters) if t is not None),
            return_exceptions=True,
        )
        if self._lanes is not None:
            # Join the lane threads: wait=False leaked one thread per
            # shard per serve/close cycle (an in-flight engine call kept
            # its worker alive past aclose, and repeated cycles in one
            # process accumulated them).  The lanes are single-thread
            # executors whose queued work is cancelled, so the join is
            # bounded by the one engine call still running.
            for lane in self._lanes:
                lane.shutdown(wait=True, cancel_futures=True)
        close = getattr(self.manager, "close", None)
        if close is not None:
            close()

    def history(self) -> "HistoryLog":
        """The recorded history so far (empty when recording is off)."""
        from repro.engine.history import HistoryLog

        return HistoryLog.from_engine(self.manager)

    # -- batched dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        counters = perf.counters
        queue = self._queue
        ready = self._queue_ready
        manager = self.manager
        while True:
            await ready.wait()
            ready.clear()
            if not queue:
                continue
            # Drain in place — readers hold a reference to this deque.
            batch = list(queue)
            queue.clear()
            counters.net_batches_drained += 1
            counters.net_requests_batched += len(batch)
            touched: dict[int, _Connection] = {}
            # Off-loop mode groups each drained tick's messages by
            # connection and pays ONE executor hop per group (instead of
            # one per message): the lane runs submit_batch over the
            # group, and a process-sharded engine underneath coalesces
            # the concurrent lanes' shard RPCs into shared batch frames.
            # Per-connection request order is preserved — a group keeps
            # its messages in arrival order and every group of one
            # connection lands on that connection's FIFO lane.
            groups: dict[int, tuple[_Connection, list[dict[str, Any]]]] = {}
            for conn, message in batch:
                if type(message) is Failure:
                    # Flush this connection's pending group first so the
                    # failure reply keeps its position in the lane order.
                    pending = groups.pop(id(conn), None)
                    if pending is not None:
                        self._submit_group(*pending)
                    conn.out.append(
                        conn.conv.codec.encode_response(message.response())
                    )
                    conn.closing = True
                    touched[id(conn)] = conn
                    continue
                if self._lanes is not None:
                    group = groups.get(id(conn))
                    if group is None:
                        groups[id(conn)] = (conn, [message])
                    else:
                        group[1].append(message)
                    continue
                result = submit_request(manager, message, conn.sessions)
                if type(result) is NeedsWait:
                    # Subscribe *now*, synchronously — the blocker could
                    # complete during any await between decision and
                    # subscription, and the wake-up would be missed.
                    event = self._subscribe(result)
                    self._spawn_waiter(conn, message, result, event)
                else:
                    conn.conv.answered(message)
                    if "id" in message:
                        result["id"] = message["id"]
                    conn.enqueue(result)
                    touched[id(conn)] = conn
            for conn, messages in groups.values():
                self._submit_group(conn, messages)
            for conn in touched.values():
                conn.flush_now()

    def _submit_group(
        self, conn: _Connection, messages: list[dict[str, Any]]
    ) -> None:
        """One executor hop for one connection's drained-tick messages."""
        future = self._loop.run_in_executor(
            self._lane_for(conn),
            submit_batch,
            self.manager,
            messages,
            conn.sessions,
        )
        future.add_done_callback(
            functools.partial(self._offloop_batch_done, conn, messages)
        )

    def _lane_for(self, conn: _Connection) -> ThreadPoolExecutor:
        """Pick the FIFO lane for one request: one lane per connection,
        assigned round-robin on first use.

        Routing by connection (rather than by transaction id) keeps the
        wire contract intact — a pipelined client receives its responses
        strictly in request order, the same as on the threaded server —
        because every request of one connection shares one FIFO lane.
        Per-transaction ordering follows for free: a transaction lives
        on exactly one connection.  Parallelism comes from concurrent
        connections landing on different lanes, which is how the load
        arrives in practice.
        """
        assert self._lanes is not None
        if conn.lane is None:
            conn.lane = self._lanes[self._lane_rr % len(self._lanes)]
            self._lane_rr += 1
        return conn.lane

    def _offloop_batch_done(
        self,
        conn: _Connection,
        messages: list[dict[str, Any]],
        future: "asyncio.Future[list[dict[str, Any] | NeedsWait]]",
    ) -> None:
        """Loop-side completion of one connection's off-loop batch."""
        if future.cancelled():
            return
        results = future.result()
        flush = False
        for message, result in zip(messages, results):
            if type(result) is NeedsWait:
                event = self._subscribe(result)
                self._spawn_waiter(conn, message, result, event)
                continue
            conn.conv.answered(message)
            conn.enqueue(attach_id(result, message))
            flush = True
        if flush:
            conn.schedule_flush()

    def _subscribe(self, pending: NeedsWait) -> Any:
        # In sharded mode the registry fires callbacks from executor
        # threads, so the event's set() must marshal onto the loop.
        factory = (
            (lambda: _LoopEvent(self._loop))
            if self._lanes is not None
            else asyncio.Event
        )
        return self.manager.waits.wait_event(
            pending.blocking_transaction,
            waiter_transaction=pending.txn.transaction_id,
            factory=factory,
        )

    def _spawn_waiter(
        self,
        conn: _Connection,
        message: dict[str, Any],
        pending: NeedsWait,
        event: Any,
    ) -> None:
        task = asyncio.create_task(
            self._wait_and_retry(conn, message, pending, event)
        )
        self._waiters.add(task)
        task.add_done_callback(self._waiters.discard)

    async def _wait_and_retry(
        self,
        conn: _Connection,
        message: dict[str, Any],
        pending: NeedsWait,
        event: Any,
    ) -> None:
        """One parked operation: wake on the blocker, retry, or time out."""
        while True:
            try:
                await asyncio.wait_for(event.wait(), self.wait_timeout)
            except asyncio.TimeoutError:
                response = await self._run_engine_call(
                    conn, message, abort_on_timeout, pending
                )
                break
            result = await self._run_engine_call(
                conn, message, retry_operation, pending
            )
            if type(result) is NeedsWait:
                event = self._subscribe(result)
                continue
            response = result
            break
        conn.conv.answered(message)
        conn.enqueue(attach_id(response, message))
        conn.schedule_flush()

    async def _run_engine_call(
        self, conn: _Connection, message: dict[str, Any], fn, pending: NeedsWait
    ):
        """Run a retry/abort engine call where this server runs them: on
        the connection's lane in sharded mode, inline on the loop (the
        classic critical section) otherwise."""
        if self._lanes is None:
            return fn(self.manager, pending)
        return await self._loop.run_in_executor(
            self._lane_for(conn), fn, self.manager, pending
        )


# -- running on a background thread -------------------------------------------


class AsyncServerThread:
    """An :class:`AsyncTransactionServer` on its own loop thread.

    The synchronous counterpart of :func:`repro.net.server.serve_forever`:
    construction blocks until the server is bound, ``port`` is readable
    from any thread, and :meth:`shutdown` stops the loop and joins the
    thread.  Client code (tests, the chaos harness, the CLI)
    talks to it over TCP exactly as to the threaded server.
    """

    #: The event loop the server runs on (reported by benchmarks).
    loop_implementation = "asyncio"

    def __init__(self, server: AsyncTransactionServer, host: str, port: int):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, args=(host, port), daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self, host: str, port: int) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start(host, port)
            except BaseException as exc:  # bind failures surface in __init__
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop.wait()
            await self.server.aclose()

        asyncio.run(main())

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def manager(self) -> Engine:
        return self.server.manager

    def shutdown(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)


def serve_in_thread(
    database: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    wait_timeout: float = WAIT_TIMEOUT_SECONDS,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
    **engine_options: Any,
) -> AsyncServerThread:
    """Start an async server on a background loop thread (bound and live).

    Keywords beyond the server's own are engine options for
    :func:`~repro.engine.api.create_engine`.
    """
    server = AsyncTransactionServer(
        database,
        wait_timeout=wait_timeout,
        max_inflight=max_inflight,
        codecs=codecs,
        **engine_options,
    )
    return AsyncServerThread(server, host, port)
