"""Wire-conformance suite: both servers must answer identical bytes.

``test_server.py`` already runs the client-level integration tests
against both servers; this module drives the wire directly — scripted
request sequences, malformed input, disconnect edge cases — and checks
the two implementations answer the same way, plus that the fast-path
codec in ``repro.net.protocol`` is byte-identical to the generic one.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.engine.api import PROTOCOLS
from repro.engine.database import Database
from repro.errors import ProtocolError
from repro.net.aioserver import serve_in_thread as serve_async
from repro.net.protocol import (
    BINARY_CODEC,
    JSON_CODEC,
    MAX_LINE_BYTES,
    FrameReader,
    decode_message,
    encode_message,
    encode_response,
)
from repro.net.server import serve_forever


def _database() -> Database:
    db = Database()
    db.create_many((i, float(i) * 100.0) for i in range(1, 11))
    return db


@pytest.fixture(
    params=["threaded", "async", "threaded-sharded", "async-sharded"]
)
def server(request):
    db = _database()
    shards = 3 if request.param.endswith("-sharded") else 1
    if request.param.startswith("threaded"):
        srv = serve_forever(db, shards=shards)
        yield srv
        srv.shutdown()
        srv.server_close()
    else:
        handle = serve_async(db, shards=shards)
        yield handle
        handle.shutdown()


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_lines(sock: socket.socket, count: int) -> list[bytes]:
    buffer = b""
    while buffer.count(b"\n") < count:
        chunk = sock.recv(65536)
        if not chunk:
            break  # EOF: return however many lines arrived
        buffer += chunk
    return buffer.split(b"\n")[:count]


def _run_script(port: int, script: list[dict]) -> list[dict]:
    sock = _connect(port)
    try:
        sock.sendall(b"".join(encode_message(m) for m in script))
        lines = _read_lines(sock, len(script))
        return [json.loads(line) for line in lines]
    finally:
        sock.close()


SCRIPT = [
    {"op": "begin", "kind": "update", "limit": 1e6, "id": 1},
    {"op": "read", "txn": 1, "object": 3, "id": 2},
    {"op": "write", "txn": 1, "object": 3, "value": 42.5, "id": 3},
    {"op": "write", "txn": 1, "object": 1, "id": 4},  # missing value
    {"op": "commit", "txn": 1, "id": 5},
    {"op": "begin", "kind": "query", "limit": 1e6, "id": 6},
    {"op": "read", "txn": 2, "object": 3, "id": 7},
    {"op": "abort", "txn": 2, "id": 8},
    {"op": "read", "txn": 999, "object": 1, "id": 9},  # unknown txn
    {"op": "frobnicate", "id": 10},  # unknown op
    {"op": "begin", "kind": "query", "limit": 0.0},  # untagged
]


def _assert_script_responses(responses: list[dict]) -> None:
    """The expected answers to ``SCRIPT`` — the same for every protocol
    (a single sequential client sees only zero-inconsistency grants)."""
    assert [r.get("id") for r in responses[:10]] == list(range(1, 11))
    assert responses[0] == {"ok": True, "txn": 1, "id": 1}
    assert responses[1]["ok"] and responses[1]["value"] == 300.0
    assert responses[2]["ok"]
    assert responses[3]["error"] == "bad-request"
    assert responses[4] == {"ok": True, "id": 5}
    assert responses[5] == {"ok": True, "txn": 2, "id": 6}
    assert responses[6]["ok"] and responses[6]["value"] == 42.5
    assert responses[7] == {"ok": True, "id": 8}
    assert responses[8]["error"] == "unknown-transaction"
    assert responses[9]["error"] == "unknown-op"
    assert responses[10] == {"ok": True, "txn": 3}  # untagged stays untagged


class TestScriptedConformance:
    def test_both_servers_answer_identically(self):
        """The same request script produces the same response sequence."""
        threaded = serve_forever(_database())
        try:
            threaded_responses = _run_script(threaded.port, SCRIPT)
        finally:
            threaded.shutdown()
            threaded.server_close()
        aio = serve_async(_database())
        try:
            async_responses = _run_script(aio.port, SCRIPT)
        finally:
            aio.shutdown()
        assert threaded_responses == async_responses

    def test_script_responses_are_correct(self, server):
        _assert_script_responses(_run_script(server.port, SCRIPT))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_wire_protocol_answers_the_script(self, protocol):
        """All five registry protocols are servable by both servers, and
        both answer the conformance script identically and correctly."""
        threaded = serve_forever(_database(), protocol=protocol)
        try:
            threaded_responses = _run_script(threaded.port, SCRIPT)
        finally:
            threaded.shutdown()
            threaded.server_close()
        aio = serve_async(_database(), protocol=protocol)
        try:
            async_responses = _run_script(aio.port, SCRIPT)
        finally:
            aio.shutdown()
        assert threaded_responses == async_responses
        _assert_script_responses(threaded_responses)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_sharded_server_matches_unsharded(self, shards):
        """Shard routing is unobservable on the wire."""
        srv = serve_forever(_database(), shards=shards)
        try:
            responses = _run_script(srv.port, SCRIPT)
        finally:
            srv.shutdown()
            srv.server_close()
        _assert_script_responses(responses)


class TestWireEdgeCases:
    def test_partial_line_then_disconnect(self, server):
        """EOF mid-line answers a structured protocol error, then closes."""
        sock = _connect(server.port)
        try:
            sock.sendall(b'{"op":"time"')
            sock.shutdown(socket.SHUT_WR)
            (line,) = _read_lines(sock, 1)
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"] == "protocol"
            assert "mid-line" in response["detail"]
            assert sock.recv(4096) == b""  # connection closed after the error
        finally:
            sock.close()

    def test_invalid_utf8_line(self, server):
        sock = _connect(server.port)
        try:
            sock.sendall(b'{"op": "\xff\xfe"}\n')
            (line,) = _read_lines(sock, 1)
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"] == "protocol"
        finally:
            sock.close()

    def test_oversized_line_answers_too_large(self, server):
        sock = _connect(server.port)
        try:
            sock.sendall(b"x" * (MAX_LINE_BYTES + 2))
            (line,) = _read_lines(sock, 1)
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"] == "too_large"
            assert str(MAX_LINE_BYTES) in response["detail"]
        finally:
            sock.close()

    def test_pipelined_requests_answer_in_order_on_threaded_server(self):
        """The threaded server must answer a burst strictly in order."""
        threaded = serve_forever(_database())
        sock = _connect(threaded.port)
        try:
            burst = [
                {"op": "begin", "kind": "query", "limit": 1e6, "id": 100}
            ] + [
                {"op": "read", "txn": 1, "object": (i % 10) + 1, "id": 101 + i}
                for i in range(20)
            ]
            sock.sendall(b"".join(encode_message(m) for m in burst))
            responses = [
                json.loads(line) for line in _read_lines(sock, len(burst))
            ]
            assert [r["id"] for r in responses] == list(range(100, 121))
            assert all(r["ok"] for r in responses)
        finally:
            sock.close()
            threaded.shutdown()
            threaded.server_close()

    def test_abandoned_connection_aborts_inflight_transaction(self, server):
        """Dropping a connection mid-transaction aborts it server-side."""
        sock = _connect(server.port)
        sock.sendall(
            encode_message({"op": "begin", "kind": "update", "limit": 1e6})
            + encode_message({"op": "write", "txn": 1, "object": 5, "value": 1.0})
        )
        assert len(_read_lines(sock, 2)) == 2  # both ops acknowledged
        sock.close()  # vanish without commit/abort
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if not server.manager.active_transactions():
                break
            time.sleep(0.01)
        assert not server.manager.active_transactions()
        # The staged write never took effect.
        assert server.manager.database.get(5).committed_value == 500.0


#: ``txn`` values JSON can carry but no dict can be keyed by.
MALFORMED_TXN = [
    {"op": "read", "txn": [1], "object": 1},
    {"op": "commit", "txn": {"a": 1}, "id": 3},
]


def _start(kind: str, snapshot_cache: bool):
    """``(server, stop)`` for one server kind, cache off or on."""
    if kind == "threaded":
        srv = serve_forever(_database(), snapshot_cache=snapshot_cache)
        return srv, lambda: (srv.shutdown(), srv.server_close())
    handle = serve_async(_database(), snapshot_cache=snapshot_cache)
    return handle, handle.shutdown


def _malformed_txn_exchange(port: int, message: dict, binary: bool) -> list[dict]:
    """``time`` and a malformed-``txn`` request in one chunk, then a
    ``time`` on its own: the three answers, the first two keyed by id."""
    sock = _connect(port)
    try:
        reader = FrameReader(sock)
        codec = JSON_CODEC
        if binary:
            sock.sendall(encode_message({"op": "hello", "codecs": ["binary-1"]}))
            assert reader.read_message()["codec"] == "binary-1"
            codec = BINARY_CODEC
            reader.switch(codec)
            assert codec.encode_request(message)[4] == 0x0F
        sock.sendall(
            codec.encode_request({"op": "time", "id": 1})
            + codec.encode_request(message)
        )
        answers = {}
        for _ in range(2):
            answer = reader.read_message()
            assert answer is not None, "the server dropped the connection"
            answers[answer.get("id")] = answer
        sock.sendall(codec.encode_request({"op": "time", "id": 9}))
        return [answers[1], answers[message.get("id")], reader.read_message()]
    finally:
        sock.close()


class TestMalformedTransactionId:
    """A ``txn`` that is a JSON array or object is a ``bad-request`` on
    every server — it used to kill the connection (an unhashable dict
    key) wherever a cache lookup or an ordering claim came first, taking
    the replies to earlier requests of the chunk with it."""

    @pytest.mark.parametrize("binary", [False, True], ids=["json", "0x0F"])
    @pytest.mark.parametrize("message", MALFORMED_TXN, ids=["read", "commit"])
    @pytest.mark.parametrize("snapshot_cache", [False, True], ids=["plain", "cache"])
    @pytest.mark.parametrize("kind", ["threaded", "async"])
    def test_bad_request_and_the_connection_lives(
        self, kind, snapshot_cache, message, binary
    ):
        server, stop = _start(kind, snapshot_cache)
        try:
            before, refused, after = _malformed_txn_exchange(
                server.port, message, binary
            )
        finally:
            stop()
        assert before["ok"] and "time" in before
        assert refused["ok"] is False and refused["error"] == "bad-request"
        assert after["ok"] and after["id"] == 9

    @pytest.mark.parametrize("message", MALFORMED_TXN, ids=["read", "commit"])
    def test_every_server_words_it_the_same(self, message):
        refusals = []
        for kind in ("threaded", "async"):
            for snapshot_cache in (False, True):
                server, stop = _start(kind, snapshot_cache)
                try:
                    refusals.append(
                        _malformed_txn_exchange(server.port, message, False)[1]
                    )
                finally:
                    stop()
        assert all(refusal == refusals[0] for refusal in refusals)

    def test_it_holds_for_every_operation(self, server):
        """``begin`` ignores ``txn`` — but a ``txn`` no session map can
        look up is refused before the engine is touched, whatever the op."""
        message = {"op": "begin", "kind": "query", "txn": [1], "id": 5}
        _, refused, _ = _malformed_txn_exchange(server.port, message, False)
        assert refused["error"] == "bad-request"
        assert not server.manager.active_transactions()


class TestFastPathCodec:
    RESPONSES = [
        {"ok": True},
        {"ok": True, "id": 7},
        {"ok": True, "txn": 12},
        {"ok": True, "txn": 12, "id": 3},
        {"ok": True, "value": 300.0, "inconsistency": 0.0, "esr_case": None},
        {
            "ok": True,
            "value": -1.5e-3,
            "inconsistency": 12.25,
            "esr_case": None,
            "id": 41,
        },
        # Shapes that must fall back to the generic encoder:
        {"ok": True, "value": 1.0, "inconsistency": 0.0, "esr_case": "case2"},
        {"ok": True, "value": float("inf"), "inconsistency": 0.0, "esr_case": None},
        {"ok": True, "time": 123.25},
        {"ok": False, "error": "aborted", "reason": "wait-timeout"},
        {"ok": True, "txn": 12, "id": "weird-id"},
        {"ok": True, "id": True},  # bool is not an int for the fast path
    ]

    def test_encode_response_matches_generic_encoder(self):
        for response in self.RESPONSES:
            assert encode_response(response) == encode_message(response), response

    def test_decode_fast_paths_match_json(self):
        lines = [
            b'{"op":"read","txn":7,"object":3,"id":9}',
            b'{"op":"commit","txn":7,"id":10}',
            # near-misses that must take (and survive) the generic parser:
            b'{"op":"read","txn":7,"object":3}',
            b'{"op": "read","txn":7,"object":3,"id":9}',
            b'{"op":"commit","txn":7,"id":10,"extra":1}',
        ]
        for line in lines:
            assert decode_message(line) == json.loads(line), line

    def test_decode_fast_path_rejects_what_json_rejects(self):
        # Python's int() accepts underscores; JSON does not — the fast
        # path must not widen the accepted language.
        for line in (
            b'{"op":"read","txn":1_0,"object":3,"id":9}',
            b'{"op":"commit","txn":-,"id":10}',
        ):
            with pytest.raises(ProtocolError):
                decode_message(line)
