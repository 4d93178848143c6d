"""Behaviour unique to the asyncio server: pipelining, out-of-order
responses, async wait-timeouts, batching and backpressure counters.

The cross-server conformance checks live in ``test_conformance.py`` and
``test_server.py``; this module exercises what only the asyncio server
promises — concurrency on one connection — using the pipelined
:mod:`repro.net.aioclient`.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro import perf
from repro.core.bounds import HIGH_EPSILON, TransactionBounds
from repro.engine.database import Database
from repro.errors import TransactionAborted
from repro.net.aioclient import connect
from repro.net.aioserver import serve_in_thread
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

    def test_small_inflight_window_triggers_backpressure(self):
        server = _serve(max_inflight=4)
        try:
            before = perf.counters.net_backpressure_stalls
            responses = self._burst(server.port, 64)
            assert [r["id"] for r in responses] == list(range(64))
            assert perf.counters.net_backpressure_stalls > before
        finally:
            server.shutdown()


class TestLifecycle:
    """Serve/close cycles must return the process to its thread baseline.

    ``aclose`` used to shut the shard dispatch lanes down with
    ``wait=False``, so a lane worker still finishing an engine call
    outlived its server — and every serve/close cycle in one process
    (tests, the bench suite, notebook experimentation) accumulated
    stranded threads.  The lanes are joined now; ten full cycles must
    not grow the thread count.
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
            # shutdown() joins the loop thread, whose aclose joins the
            # lanes — so by the time it returns, no lane thread may
            # survive, not even "about to exit".
            assert self._lane_threads() == []
        # And the overall census is back where it started (the old
        # wait=False teardown left a window where cycles stacked up).
        assert threading.active_count() <= baseline + 1
