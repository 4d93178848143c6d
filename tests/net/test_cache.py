"""The snapshot read cache at the serving layer, on both servers.

The engine-level semantics live in ``tests/engine/test_snapshot.py``;
this module checks the wire behaviour: cached reads answered before the
threaded server's mutex / inline in the non-blocking server's
selectors loop, the byte-level fast path's responses, the
per-transaction ordering guard, and the perf counters the bench rows
report.
"""

from __future__ import annotations

import json
import socket

from repro import perf
from repro.engine.database import Database
from repro.engine.timestamps import Timestamp
from repro.net.aioserver import serve_in_thread
from repro.net.client import RemoteConnection
from repro.net.server import serve_forever


def _database() -> Database:
    db = Database()
    db.create_many((i, float(i) * 100.0) for i in range(1, 9))
    return db


def _threaded(**kwargs):
    server = serve_forever(_database(), snapshot_cache=True, **kwargs)

    def stop() -> None:
        server.shutdown()
        server.server_close()

    return server, server.port, stop


def _async(**kwargs):
    handle = serve_in_thread(_database(), snapshot_cache=True, **kwargs)
    return handle, handle.port, handle.shutdown


class TestCachedReadsOverTheWire:
    def _stale_read_flow(self, port: int) -> tuple[float, float]:
        """begin query → later-ts committed write → query reads object 3."""
        qconn = RemoteConnection("127.0.0.1", port)
        wconn = RemoteConnection("127.0.0.1", port)
        try:
            query = qconn.begin("query", 1_000.0, timestamp=Timestamp(1.0, 1, 0))
            writer = wconn.begin(
                "update", 1_000.0, timestamp=Timestamp(2.0, 2, 0)
            )
            writer.write(3, 340.0)  # committed 300 -> 340
            writer.commit()
            value = query.read(3)
            query.commit()
            return value, query.inconsistency
        finally:
            qconn.close()
            wconn.close()

    def test_threaded_server_serves_and_charges(self):
        server, port, stop = _threaded()
        try:
            value, inconsistency = self._stale_read_flow(port)
            assert value == 340.0
            assert inconsistency == 40.0
            stats = server.manager.snapshot.stats()
            assert stats["hits"] >= 1
            assert stats["divergence_charged"] >= 40.0
        finally:
            stop()

    def test_async_server_serves_and_charges(self):
        handle, port, stop = _async()
        try:
            value, inconsistency = self._stale_read_flow(port)
            assert value == 340.0
            assert inconsistency == 40.0
            stats = handle.manager.snapshot.stats()
            assert stats["hits"] >= 1
            assert stats["divergence_charged"] >= 40.0
        finally:
            stop()

    def test_bound_overflow_falls_back_to_engine_rejection(self):
        # A read past every bound must still produce the engine's
        # Rejected answer — the cache downgrades, it never rejects.
        handle, port, stop = _async()
        try:
            qconn = RemoteConnection("127.0.0.1", port)
            wconn = RemoteConnection("127.0.0.1", port)
            try:
                query = qconn.begin(
                    "query", 10.0, timestamp=Timestamp(1.0, 1, 0)
                )
                writer = wconn.begin(
                    "update", 1_000.0, timestamp=Timestamp(2.0, 2, 0)
                )
                writer.write(3, 340.0)
                writer.commit()
                try:
                    query.read(3)  # staleness 40 > TIL 10
                except Exception as exc:  # aborted through the engine
                    assert "past the" in str(exc) and "limit" in str(exc)
                else:  # pragma: no cover - engine must not admit this
                    raise AssertionError("read past TIL was admitted")
                assert handle.manager.snapshot.stats()["fallbacks"] >= 1
            finally:
                qconn.close()
                wconn.close()
        finally:
            stop()

    def test_perf_counters_account_for_hits(self):
        def hits_for_three_reads(handle) -> int:
            before = perf.counters.snapshot()
            try:
                conn = RemoteConnection("127.0.0.1", handle.port)
                try:
                    txn = conn.begin("query", 0.0)
                    for object_id in (1, 2, 3):
                        txn.read(object_id)
                    txn.commit()
                finally:
                    conn.close()
            finally:
                handle.shutdown()
            return perf.counters.snapshot()["cache_hits"] - before["cache_hits"]

        assert hits_for_three_reads(_async()[0]) >= 3
        # The same reads against a server without the cache never hit it.
        assert hits_for_three_reads(serve_in_thread(_database())) == 0


class _RawClient:
    """A socket speaking raw wire bytes; sessions are per-connection, so
    the begin and the reads it tests must share this one socket."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)

    def exchange(self, payload: bytes, answers: int) -> list[dict]:
        self.sock.sendall(payload)
        data = b""
        while data.count(b"\n") < answers:
            chunk = self.sock.recv(65536)
            assert chunk, "server closed early"
            data += chunk
        return [json.loads(line) for line in data.splitlines()]

    def begin_query(self) -> int:
        [begin] = self.exchange(
            b'{"op":"begin","kind":"query","limit":1000.0,"id":1}\n', 1
        )
        assert begin["ok"] and begin["id"] == 1
        return begin["txn"]

    def close(self) -> None:
        self.sock.close()


class TestAsyncByteFastPath:
    """The non-blocking server's JSON-free lane for canonical read lines."""

    def test_canonical_read_line_is_served_with_id_echo(self):
        handle, port, stop = _async()
        client = _RawClient(port)
        try:
            txn = client.begin_query()
            responses = {
                r["id"]: r
                for r in client.exchange(
                    b'{"op":"read","txn":%d,"object":2,"id":7}\n'
                    b'{"op":"read","txn":%d,"object":3,"id":8}\n' % (txn, txn),
                    2,
                )
            }
            assert responses[7] == {
                "ok": True,
                "value": 200.0,
                "inconsistency": 0.0,
                "esr_case": None,
                "id": 7,
            }
            assert responses[8]["value"] == 300.0
            assert handle.manager.snapshot.stats()["hits"] == 2
        finally:
            client.close()
            stop()

    def test_other_key_order_still_hits_through_decode(self):
        handle, port, stop = _async()
        client = _RawClient(port)
        try:
            txn = client.begin_query()
            [response] = client.exchange(
                b'{"object":2,"op":"read","txn":%d,"id":9}\n' % txn, 1
            )
            assert response["ok"] and response["value"] == 200.0
            assert handle.manager.snapshot.stats()["hits"] == 1
        finally:
            client.close()
            stop()

    def test_read_does_not_overtake_queued_op_of_same_transaction(self):
        # A commit and a read of the same transaction pipelined together:
        # the read must not be answered from the cache ahead of the
        # commit (per-transaction order), so it reaches the engine after
        # the transaction finished and is answered with an error.
        handle, port, stop = _async()
        client = _RawClient(port)
        try:
            txn = client.begin_query()
            by_id = {
                r["id"]: r
                for r in client.exchange(
                    b'{"op":"commit","txn":%d,"id":2}\n'
                    b'{"op":"read","txn":%d,"object":2,"id":3}\n' % (txn, txn),
                    2,
                )
            }
            assert by_id[2]["ok"] is True
            assert by_id[3]["ok"] is False  # not served from the cache
            assert handle.manager.snapshot.stats()["hits"] == 0
        finally:
            client.close()
            stop()
