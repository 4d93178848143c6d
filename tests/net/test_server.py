"""Integration tests for the networked prototype over localhost.

The ``server`` fixture is parameterized over both server
implementations — every test here is part of the wire-conformance
suite: the threaded and non-blocking servers must behave identically under
the same client traffic.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.bounds import HIGH_EPSILON, TransactionBounds
from repro.engine.api import PROTOCOLS
from repro.engine.database import Database
from repro.errors import ProtocolError, TransactionAborted
from repro.lang.parser import parse_program
from repro.net.aioserver import serve_in_thread as serve_async
from repro.net.client import RemoteConnection
from repro.net.server import serve_forever


def _database() -> Database:
    db = Database()
    db.create_many((i, float(i) * 100.0) for i in range(1, 21))
    return db


@pytest.fixture(
    params=["threaded", "async", "threaded-sharded", "async-sharded"]
)
def server(request):
    db = _database()
    shards = 4 if request.param.endswith("-sharded") else 1
    if request.param.startswith("threaded"):
        srv = serve_forever(db, shards=shards)
        yield srv
        srv.shutdown()
        srv.server_close()
    else:
        handle = serve_async(db, shards=shards)
        yield handle
        handle.shutdown()


@pytest.fixture
def connection(server):
    with RemoteConnection("127.0.0.1", server.port, site=1) as conn:
        yield conn


class TestBasicOperations:
    def test_read_write_commit(self, server, connection):
        with connection.begin("update", HIGH_EPSILON) as txn:
            value = txn.read(5)
            assert value == 500.0
            txn.write(5, 555.0)
        assert server.manager.database.get(5).committed_value == 555.0

    def test_context_manager_aborts_on_error(self, server, connection):
        with pytest.raises(RuntimeError):
            with connection.begin("update", HIGH_EPSILON) as txn:
                txn.write(5, 1.0)
                raise RuntimeError("client bug")
        assert server.manager.database.get(5).committed_value == 500.0

    def test_query_sees_committed_data(self, connection):
        with connection.begin("query", HIGH_EPSILON) as query:
            assert query.read(7) == 700.0

    def test_rejection_raises_transaction_aborted(self, server, connection):
        # A second connection's query (still uncommitted) has read the
        # object with a newer timestamp, so the stale write is a case-3
        # conflict, and with TEL=0 its export cannot be admitted.  The
        # timestamps are pinned explicitly: the two connections' clocks
        # are synchronized independently, and millisecond skew between
        # them must not be allowed to invert the conflict order.
        from repro.engine.timestamps import Timestamp

        with RemoteConnection("127.0.0.1", server.port, site=2) as other:
            stale = connection.begin(
                "update", TransactionBounds(0, 0), timestamp=Timestamp(1.0, 1, 0)
            )
            query = other.begin("query", 0.0, timestamp=Timestamp(2.0, 2, 0))
            query.read(3)
            with pytest.raises(TransactionAborted):
                stale.write(3, 1.0)
            query.commit()

    def test_unknown_transaction_id(self, server, connection):
        from repro.net.protocol import encode_message

        connection._sock.sendall(
            encode_message({"op": "read", "txn": 999, "object": 1})
        )
        response = connection._reader.read_message()
        assert not response["ok"]
        assert response["error"] == "unknown-transaction"

    def test_unknown_op(self, connection):
        response = connection._request({"op": "frobnicate"})
        assert response["error"] == "unknown-op"

    def test_clock_synchronised_at_connect(self, connection):
        assert connection.clock.synchronized


class TestProgramExecution:
    def test_run_program(self, connection):
        program = parse_program(
            "BEGIN Query TIL = 100000\n"
            "t1 = Read 1\n"
            "t2 = Read 2\n"
            'output("Sum is: ", t1+t2)\n'
            "COMMIT\n"
        )
        result, restarts = connection.run_program(program)
        assert result.outputs == ["Sum is: 300"]
        assert restarts == 0

    def test_program_with_abort_terminator(self, server, connection):
        program = parse_program(
            "BEGIN Update TEL = 1000\nWrite 4 , 9\nABORT\n"
        )
        connection.run_program(program)
        assert server.manager.database.get(4).committed_value == 400.0


class TestEveryProtocolServed:
    """Every protocol in the registry is wire-servable by both servers."""

    @pytest.mark.parametrize("kind", ["threaded", "async"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_read_write_commit(self, kind, protocol):
        db = _database()
        if kind == "threaded":
            srv = serve_forever(db, protocol=protocol)
            shutdown = lambda: (srv.shutdown(), srv.server_close())  # noqa: E731
        else:
            srv = serve_async(db, protocol=protocol)
            shutdown = srv.shutdown
        try:
            with RemoteConnection("127.0.0.1", srv.port, site=1) as conn:
                with conn.begin("update", HIGH_EPSILON) as txn:
                    assert txn.read(5) == 500.0
                    txn.write(5, 555.0)
                with conn.begin("query", HIGH_EPSILON) as query:
                    assert query.read(5) == 555.0
            assert db.get(5).committed_value == 555.0
        finally:
            shutdown()

    @pytest.mark.parametrize("kind", ["threaded", "async"])
    def test_invalid_combination_rejected_before_serving(self, kind):
        from repro.errors import SpecificationError

        start = serve_forever if kind == "threaded" else serve_async
        with pytest.raises(SpecificationError):
            start(_database(), protocol="strict-3pl")
        with pytest.raises(SpecificationError):
            start(_database(), protocol="mvto", snapshot_cache=True)


class TestConcurrentClients:
    def test_esr_query_reads_uncommitted(self, server):
        with RemoteConnection("127.0.0.1", server.port, site=1) as writer_conn:
            writer = writer_conn.begin("update", HIGH_EPSILON)
            writer.write(9, 950.0)  # uncommitted
            with RemoteConnection("127.0.0.1", server.port, site=2) as reader_conn:
                with reader_conn.begin("query", HIGH_EPSILON) as query:
                    # ESR case 2: sees the uncommitted 950 immediately.
                    assert query.read(9) == 950.0
                    assert query.inconsistency == 50.0
            writer.commit()

    def test_sr_reader_waits_for_writer(self, server):
        with RemoteConnection("127.0.0.1", server.port, site=1) as writer_conn:
            writer = writer_conn.begin("update", TransactionBounds(0, 0))
            writer.write(9, 950.0)
            results = []

            def read_with_zero_bounds():
                with RemoteConnection(
                    "127.0.0.1", server.port, site=2
                ) as reader_conn:
                    with reader_conn.begin("query", 0.0) as query:
                        results.append(query.read(9))

            thread = threading.Thread(target=read_with_zero_bounds)
            thread.start()
            thread.join(timeout=0.5)
            assert thread.is_alive(), "reader should be blocked on the writer"
            writer.commit()
            thread.join(timeout=5.0)
            assert results == [950.0]

    def test_many_parallel_clients(self, server):
        errors = []

        def hammer(site):
            try:
                with RemoteConnection("127.0.0.1", server.port, site=site) as conn:
                    for _ in range(5):
                        program = parse_program(
                            "BEGIN Update TEL = 10000\n"
                            f"t1 = Read {site}\n"
                            f"Write {site} , t1+1\n"
                            "COMMIT\n"
                        )
                        conn.run_program(program)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(1, 7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # Each site incremented its own object five times.
        for site in range(1, 7):
            assert (
                server.manager.database.get(site).committed_value
                == site * 100.0 + 5
            )


class TestSessionMapDoesNotLeak:
    """A server-aborted transaction leaves the connection's session map
    the moment the engine finishes it — rejected, wait-timed-out, or
    rejected on a retry — not when the client eventually disconnects."""

    @pytest.fixture(
        params=["threaded", "async", "threaded-sharded", "async-sharded"]
    )
    def impatient(self, request):
        """A live server with a short wait timeout, plus its session maps."""
        db = _database()
        shards = 4 if request.param.endswith("-sharded") else 1
        if request.param.startswith("threaded"):
            srv = serve_forever(db, shards=shards, wait_timeout=0.05)
            # The threaded server keeps each map on its handler's stack;
            # dispatch is where every one of them passes by.
            maps: list[dict] = []
            dispatch = srv.dispatch

            def watching(message, sessions):
                if not any(sessions is seen for seen in maps):
                    maps.append(sessions)
                return dispatch(message, sessions)

            srv.dispatch = watching
            yield srv, lambda: maps
            srv.shutdown()
            srv.server_close()
        else:
            handle = serve_async(db, shards=shards, wait_timeout=0.05)
            yield handle, lambda: [
                conn.sessions for conn in handle.server._connections
            ]
            handle.shutdown()

    def test_server_aborted_transactions_leave_the_map(self, impatient):
        from repro.engine.timestamps import Timestamp
        from repro.net.protocol import encode_message

        server, session_maps = impatient
        with RemoteConnection("127.0.0.1", server.port, site=1) as conn:
            with RemoteConnection("127.0.0.1", server.port, site=2) as other:
                # A pending newer query read makes every older TEL=0
                # write a late write it cannot export: rejected.
                query = other.begin("query", 0.0, timestamp=Timestamp(2.0, 2, 0))
                query.read(3)
                stale = None
                for i in range(200):
                    stale = conn.begin(
                        "update",
                        TransactionBounds(0, 0),
                        timestamp=Timestamp(1.0 + i / 1000, 1, 0),
                    )
                    with pytest.raises(TransactionAborted):
                        stale.write(3, 1.0)
                query.commit()
                # An uncommitted write nobody finishes: zero-bound reads
                # park behind it and time out.
                blocker = other.begin("update", TransactionBounds(0, 0))
                blocker.write(9, 950.0)
                for _ in range(3):
                    waiter = conn.begin("query", 0.0)
                    with pytest.raises(TransactionAborted) as excinfo:
                        waiter.read(9)
                    assert excinfo.value.reason == "wait-timeout"
                blocker.abort()
                # Both connections are still open; nothing may be left.
                maps = session_maps()
                assert len(maps) == 2
                assert all(len(sessions) == 0 for sessions in maps)
                assert server.manager.active_transactions() == ()
                # The dead id answers like any other finished one.
                for op in ("read", "abort"):
                    conn._sock.sendall(
                        encode_message(
                            {"op": op, "txn": stale.txn_id, "object": 3}
                        )
                    )
                    response = conn._reader.read_message()
                    assert response["error"] == "unknown-transaction"

    def test_transaction_finished_behind_the_clients_back(self, impatient):
        """Aborted directly on the engine between two requests (what a
        shard failover does, with no connection in hand): the next
        request for it answers ``invalid`` and drops the entry."""
        from repro.net.protocol import encode_message

        server, session_maps = impatient
        with RemoteConnection("127.0.0.1", server.port, site=1) as conn:
            txn = conn.begin("update", HIGH_EPSILON)
            txn.write(3, 1.0)
            (state,) = server.manager.active_transactions()
            server.manager.abort(state, "shard-failover")
            errors = []
            for _ in range(2):
                conn._sock.sendall(
                    encode_message(
                        {"op": "read", "txn": txn.txn_id, "object": 3}
                    )
                )
                errors.append(conn._reader.read_message()["error"])
            assert errors == ["invalid", "unknown-transaction"]
            assert [len(sessions) for sessions in session_maps()] == [0]
