"""The server's guard against vanished lock/wait holders."""

from __future__ import annotations

import pytest

from repro.core.bounds import TransactionBounds
from repro.engine.database import Database
from repro.errors import TransactionAborted
from repro.net.client import RemoteConnection
from repro.net.server import TransactionServer, serve_forever
import threading


@pytest.fixture
def server():
    db = Database()
    db.create_many((i, 100.0) for i in range(1, 4))
    srv = TransactionServer(db, wait_timeout=0.1)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestWaitTimeout:
    def test_waiter_aborted_when_blocker_never_finishes(self, server):
        with RemoteConnection("127.0.0.1", server.port, site=1) as writer_conn:
            writer = writer_conn.begin("update", TransactionBounds(0, 0))
            writer.write(1, 150.0)  # staged, never committed
            with RemoteConnection("127.0.0.1", server.port, site=2) as reader_conn:
                reader = reader_conn.begin("query", 0.0)
                with pytest.raises(TransactionAborted) as info:
                    reader.read(1)
                assert info.value.reason == "wait-timeout"
            writer.abort()

    def test_raw_abort_response_and_clean_registry(self, server):
        """The wire response on a timed-out wait, and no registry leak."""
        sessions = {}
        writer_id = server.dispatch(
            {"op": "begin", "kind": "update", "limit": 0.0}, sessions
        )["txn"]
        assert server.dispatch(
            {"op": "write", "txn": writer_id, "object": 1, "value": 150.0},
            sessions,
        )["ok"]
        reader_id = server.dispatch(
            {"op": "begin", "kind": "query", "limit": 0.0}, sessions
        )["txn"]
        response = server.dispatch(
            {"op": "read", "txn": reader_id, "object": 1}, sessions
        )
        assert response == {
            "ok": False,
            "error": "aborted",
            "reason": "wait-timeout",
        }
        # The aborted waiter must not linger in the wait-for relation.
        assert server.manager.waits.waiting_on(reader_id) is None
        server.manager.waits.assert_no_cycle()

    def test_wait_resolved_before_timeout_succeeds(self, server):
        import time

        with RemoteConnection("127.0.0.1", server.port, site=1) as writer_conn:
            writer = writer_conn.begin("update", TransactionBounds(0, 0))
            writer.write(1, 150.0)
            results = []

            def delayed_commit():
                time.sleep(0.03)  # well inside the 0.1 s timeout
                writer.commit()

            thread = threading.Thread(target=delayed_commit)
            thread.start()
            with RemoteConnection("127.0.0.1", server.port, site=2) as reader_conn:
                with reader_conn.begin("query", 0.0) as reader:
                    results.append(reader.read(1))
            thread.join()
        assert results == [150.0]


class TestServeForeverForwarding:
    """Regression: serve_forever used to drop every option it was given."""

    def _database(self) -> Database:
        db = Database()
        db.create_many((i, 100.0) for i in range(1, 4))
        return db

    def test_policies_reach_the_server_and_manager(self):
        srv = serve_forever(
            self._database(), wait_timeout=0.05, snapshot_cache=True
        )
        try:
            assert srv.wait_timeout == 0.05
            assert srv.manager.snapshot is not None
        finally:
            srv.shutdown()
            srv.server_close()
