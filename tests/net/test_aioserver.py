"""Behaviour unique to the non-blocking server: pipelining, out-of-order
responses, parked wait-timeouts, batching and backpressure.

The cross-server conformance checks live in ``test_conformance.py`` and
``test_server.py``; this module exercises what only the non-blocking server
promises — concurrency on one connection — using the pipelined
:mod:`repro.net.aioclient`.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import socket
import sys
import threading
import time

import pytest

from repro import perf
from repro.core.bounds import HIGH_EPSILON, TransactionBounds
from repro.engine.database import Database
from repro.errors import TransactionAborted
from repro.net.aioclient import connect
from repro.net.aioserver import RECV_SIZE, serve_in_thread
from repro.net.client import RemoteConnection
from repro.net.protocol import encode_message


def _database() -> Database:
    db = Database()
    db.create_many((i, float(i) * 100.0) for i in range(1, 21))
    return db


def _serve(**kwargs):
    return serve_in_thread(_database(), **kwargs)


class TestPipelinedClient:
    def test_many_concurrent_requests_on_one_connection(self):
        server = _serve()
        try:

            async def main():
                async with await connect("127.0.0.1", server.port) as conn:
                    txn = await conn.begin("query", HIGH_EPSILON)
                    values = await asyncio.gather(
                        *(txn.read(i) for i in range(1, 21))
                    )
                    await txn.commit()
                    return values

            values = asyncio.run(main())
            assert values == [float(i) * 100.0 for i in range(1, 21)]
        finally:
            server.shutdown()

    def test_concurrent_transactions_on_one_connection(self):
        server = _serve()
        try:

            async def session(conn, site_object):
                txn = await conn.begin("update", HIGH_EPSILON)
                value = await txn.read(site_object)
                await txn.write(site_object, value + 1.0)
                await txn.commit()

            async def main():
                async with await connect("127.0.0.1", server.port) as conn:
                    await asyncio.gather(
                        *(session(conn, obj) for obj in range(1, 9))
                    )

            asyncio.run(main())
            for obj in range(1, 9):
                committed = server.manager.database.get(obj).committed_value
                assert committed == obj * 100.0 + 1.0
        finally:
            server.shutdown()

    def test_parked_wait_does_not_block_independent_requests(self):
        """A strict-ordering wait delays only its own response: other
        transactions on the same connection keep being answered."""
        server = _serve(wait_timeout=10.0)
        try:

            async def main():
                async with await connect("127.0.0.1", server.port, site=1) as writer_conn:
                    writer = await writer_conn.begin(
                        "update", TransactionBounds(0, 0)
                    )
                    await writer.write(9, 950.0)  # uncommitted
                    async with await connect(
                        "127.0.0.1", server.port, site=2
                    ) as reader_conn:
                        blocked = await reader_conn.begin("query", 0.0)
                        parked = asyncio.ensure_future(blocked.read(9))
                        # Give the server time to park the read.
                        await asyncio.sleep(0.1)
                        assert not parked.done()
                        # An independent transaction on the SAME connection
                        # overtakes the parked response.
                        other = await reader_conn.begin("query", HIGH_EPSILON)
                        assert await other.read(3) == 300.0
                        await other.commit()
                        assert not parked.done()
                        # Unblock: the parked read resolves with the
                        # now-committed value.
                        await writer.commit()
                        assert await parked == 950.0
                        await blocked.commit()

            asyncio.run(main())
        finally:
            server.shutdown()

    def test_wait_timeout_aborts_parked_operation(self):
        server = _serve(wait_timeout=0.2)
        try:

            async def main():
                async with await connect("127.0.0.1", server.port, site=1) as writer_conn:
                    writer = await writer_conn.begin(
                        "update", TransactionBounds(0, 0)
                    )
                    await writer.write(9, 950.0)
                    async with await connect(
                        "127.0.0.1", server.port, site=2
                    ) as reader_conn:
                        blocked = await reader_conn.begin("query", 0.0)
                        with pytest.raises(TransactionAborted) as exc_info:
                            await blocked.read(9)
                        assert exc_info.value.reason == "wait-timeout"
                    await writer.commit()

            asyncio.run(main())
            assert server.manager.database.get(9).committed_value == 950.0
        finally:
            server.shutdown()


class TestSyncClientInterop:
    def test_untagged_sync_client_works_unchanged(self):
        """The strict request/response sync client needs no ``id``s."""
        server = _serve()
        try:
            with RemoteConnection("127.0.0.1", server.port, site=1) as conn:
                with conn.begin("update", HIGH_EPSILON) as txn:
                    assert txn.read(5) == 500.0
                    txn.write(5, 555.0)
            assert server.manager.database.get(5).committed_value == 555.0
        finally:
            server.shutdown()


class TestBatchingAndBackpressure:
    def _burst(self, port: int, count: int) -> list[dict]:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            sock.sendall(
                b"".join(
                    encode_message({"op": "time", "id": i}) for i in range(count)
                )
            )
            buffer = b""
            while buffer.count(b"\n") < count:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buffer += chunk
            return [json.loads(line) for line in buffer.split(b"\n")[:count]]
        finally:
            sock.close()

    def test_burst_is_batched_and_counted(self):
        server = _serve()
        try:
            before = perf.counters.snapshot()
            responses = self._burst(server.port, 50)
            assert [r["id"] for r in responses] == list(range(50))
            after = perf.counters.snapshot()
            batched = (
                after["net_requests_batched"] - before["net_requests_batched"]
            )
            drained = (
                after["net_batches_drained"] - before["net_batches_drained"]
            )
            assert batched >= 50
            # Batching means strictly fewer dispatch ticks than requests.
            assert 0 < drained < 50
        finally:
            server.shutdown()

    def test_full_window_pauses_reads(self):
        """A client that pipelines far past ``max_inflight`` without
        reading gets its reads paused: the server holds at most the window
        plus one received chunk of responses, and once the client reads,
        every response arrives, in request order."""
        window = 4
        count = 1000 * window
        server = _serve(max_inflight=window)
        # Small kernel buffers on both ends, so a few KiB of unread
        # responses back up into the server.
        server.server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(10.0)
        requests = [encode_message({"op": "time", "id": i}) for i in range(count)]
        sender = threading.Thread(target=sock.sendall, args=(b"".join(requests),))
        try:
            before = perf.counters.net_backpressure_stalls
            sock.connect(("127.0.0.1", server.port))
            sender.start()
            deadline = time.monotonic() + 10.0
            while True:
                conns = list(server.server._connections)  # empty until accepted
                paused = conns and not conns[0].events & selectors.EVENT_READ
                if paused and perf.counters.net_backpressure_stalls > before:
                    break
                assert time.monotonic() < deadline, "reads were never paused"
                time.sleep(0.01)
            (conn,) = conns
            held = len(conn.backlog) + conn.pending
            one_chunk = RECV_SIZE // min(len(r) for r in requests)
            assert window <= held < window + one_chunk
            buffer = b""
            while buffer.count(b"\n") < count:
                chunk = sock.recv(65536)
                assert chunk, "server closed the connection"
                buffer += chunk
            responses = [json.loads(line) for line in buffer.split(b"\n")[:count]]
            assert [r["id"] for r in responses] == list(range(count))
        finally:
            sender.join(timeout=10.0)
            sock.close()
            server.shutdown()


class TestParkedWaits:
    """What a parked operation holds, it gives back when it wakes or
    expires — and a failing request costs its connection, not the loop."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_woken_and_expired_waits_release_their_references(self, shards):
        server = _serve(wait_timeout=0.3, shards=shards)
        try:

            async def park_behind(writer_conn, reader_conn, value):
                blocker = await writer_conn.begin("update", TransactionBounds(0, 0))
                await blocker.write(9, value)  # uncommitted
                queries = [await reader_conn.begin("query", 0.0) for _ in range(40)]
                reads = [asyncio.ensure_future(q.read(9)) for q in queries]
                await asyncio.sleep(0.05)  # let every read park
                return blocker, queries, reads

            async def main():
                async with await connect("127.0.0.1", server.port, site=1) as writer_conn:
                    async with await connect(
                        "127.0.0.1", server.port, site=2
                    ) as reader_conn:
                        # The blocker commits: every parked read completes.
                        blocker, queries, reads = await park_behind(
                            writer_conn, reader_conn, 950.0
                        )
                        await blocker.commit()
                        assert await asyncio.gather(*reads) == [950.0] * 40
                        for query in queries:
                            await query.commit()
                        # Nobody finishes the blocker: every read expires.
                        blocker, _queries, reads = await park_behind(
                            writer_conn, reader_conn, 960.0
                        )
                        outcomes = await asyncio.gather(*reads, return_exceptions=True)
                        assert all(
                            isinstance(o, TransactionAborted)
                            and o.reason == "wait-timeout"
                            for o in outcomes
                        )
                        await blocker.abort()

            asyncio.run(main())
            # One more round trip: the loop has drained its wake-ups since.
            with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
                sock.sendall(encode_message({"op": "time"}))
                assert json.loads(sock.recv(65536))["ok"]
            loop = server.server
            assert loop._parked_live == 0
            assert not loop._ready
            assert server.manager.waits.pending_waiters() == 0
            for _deadline, _seq, parked in loop._deadlines:
                assert (parked.conn, parked.message, parked.pending) == (None, None, None)
        finally:
            server.shutdown()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_failing_request_closes_its_connection_not_the_loop(
        self, shards, monkeypatch, caplog
    ):
        server = _serve(shards=shards)
        try:

            def broken(*args, **kwargs):
                raise RuntimeError("engine bug")

            monkeypatch.setattr(server.manager, "begin", broken)
            with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
                sock.sendall(encode_message({"op": "begin", "kind": "update"}))
                assert sock.recv(65536) == b""  # closed, not hung
            assert "request handling failed" in caplog.text
            assert "engine bug" in caplog.text
            with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
                sock.sendall(encode_message({"op": "time", "id": 1}))
                assert json.loads(sock.recv(65536))["id"] == 1
        finally:
            server.shutdown()


class TestLaneStress:
    def test_contending_clients_on_shard_lanes_lose_no_wake_up(self):
        """More client threads than cores fight over one hot object through
        the shard lanes, with a short thread switch interval: every parked
        operation is woken by its blocker (none waits out its timeout) and
        every commit lands exactly once."""
        server = _serve(shards=2, wait_timeout=10.0)
        sites = range(1, 7)
        timeouts, errors = [], []

        def client(site):
            try:
                with RemoteConnection("127.0.0.1", server.port, site=site) as conn:
                    done = 0
                    while done < 10:
                        txn = conn.begin("update", TransactionBounds(0, 0))
                        try:
                            hot = txn.read(20)
                            own = txn.read(site)
                            txn.write(site, own + 1.0)
                            txn.write(20, hot + 1.0)
                            txn.commit()
                            done += 1
                        except TransactionAborted as exc:
                            if exc.reason == "wait-timeout":
                                timeouts.append(site)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(s,)) for s in sites]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors and not timeouts
            for site in sites:
                committed = server.manager.database.get(site).committed_value
                assert committed == site * 100.0 + 10
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()


class TestLifecycle:
    """Serve/close cycles must return the process to its thread baseline.

    A lane shut down without waiting leaves a worker still finishing
    an engine call alive past its server, and every serve/close cycle in
    one process (tests, notebook experimentation) accumulates stranded
    threads.  ``close()`` joins the lanes; ten full cycles must not grow
    the thread count.
    """

    def _cycle(self) -> None:
        server = _serve(shards=2)
        try:
            with RemoteConnection("127.0.0.1", server.port) as conn:
                txn = conn.begin("update", 0.0)
                # One write per shard so both lanes actually spin up a
                # worker thread before the server closes.
                txn.write(1, 111.0)
                txn.write(2, 222.0)
                txn.commit()
        finally:
            server.shutdown()

    @staticmethod
    def _lane_threads():
        import threading

        return [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("aio-shard-") and thread.is_alive()
        ]

    def test_repeated_serve_close_cycles_do_not_leak_threads(self):
        import threading

        self._cycle()  # warm-up: lazy imports, executor internals
        baseline = threading.active_count()
        for _ in range(10):
            self._cycle()
            # shutdown() closes the server, which joins the lanes — so
            # by the time it returns, no lane thread may survive, not
            # even "about to exit".
            assert self._lane_threads() == []
        # And the overall census is back where it started (the old
        # wait=False teardown left a window where cycles stacked up).
        assert threading.active_count() <= baseline + 1
