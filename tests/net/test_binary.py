"""The negotiated binary wire codec (``binary-1``) end to end.

Codec-level round trips, ``hello`` negotiation in every mixed pairing
(binary client vs JSON-only server and vice versa), malformed binary
input answered before disconnect, shard routing under binary framing,
the snapshot-cache inline answer path, and byte-identical conformance
between the threaded and non-blocking servers.  The JSON wire conformance
lives in ``test_conformance.py`` — everything here is the binary side.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import pytest

from repro import perf
from repro.core.bounds import HIGH_EPSILON
from repro.engine.database import Database
from repro.engine.timestamps import Timestamp
from repro.errors import ProtocolError
from repro.net.aioclient import connect
from repro.net.aioserver import serve_in_thread
from repro.net.client import RemoteConnection
from repro.net.protocol import (
    BINARY_CODEC,
    FRAME_JSON,
    JSON_CODEC,
    MAX_FRAME_BYTES,
    SUPPORTED_CODECS,
    negotiate_hello,
)
from repro.net.server import serve_forever


def _database() -> Database:
    db = Database()
    db.create_many((i, float(i) * 100.0) for i in range(1, 11))
    return db


REQUESTS = [
    {"op": "begin", "kind": "query", "limit": 1e6, "id": 1},
    {
        "op": "begin",
        "kind": "update",
        "limit": 0.0,
        "timestamp": [12.5, 3, 7],
        "id": 2,
    },
    {"op": "read", "txn": 4, "object": 9, "id": 3},
    {"op": "write", "txn": 4, "object": 9, "value": -2.5, "id": 4},
    {"op": "commit", "txn": 4, "id": 5},
    {"op": "abort", "txn": 5, "id": 6},
]

RESPONSES = [
    {"ok": True, "id": 7},
    {"ok": True, "txn": 12, "id": 8},
    {
        "ok": True,
        "value": 300.0,
        "inconsistency": 40.0,
        "esr_case": "late-read-committed",
        "id": 9,
    },
    {"ok": True, "inconsistency": 0.0, "esr_case": None, "id": 10},
]

#: Shapes the fixed layouts cannot carry — must travel as JSON frames.
FALLBACKS = [
    {"op": "time", "id": 11},
    {"op": "begin", "kind": "query", "limit": 1.0, "group_limits": {"a": 2.0}},
    {"op": "read", "txn": -1, "object": 3, "id": 12},  # negative txn
    {"ok": False, "error": "aborted", "reason": "wait-timeout", "id": 13},
    {"ok": True, "time": 123.25, "id": 14},
]


class TestCodecRoundTrips:
    def test_fixed_layouts_round_trip(self):
        for message in REQUESTS:
            wire = BINARY_CODEC.encode_request(message)
            assert wire[4] != FRAME_JSON, message  # took the fixed layout
            assert BINARY_CODEC.decode(wire[4:]) == message
        for response in RESPONSES:
            wire = BINARY_CODEC.encode_response(response)
            assert wire[4] != FRAME_JSON, response
            assert BINARY_CODEC.decode(wire[4:]) == response

    def test_size_prefix_counts_type_and_payload(self):
        for message in REQUESTS:
            wire = BINARY_CODEC.encode_request(message)
            size = int.from_bytes(wire[:4], "little")
            assert size == len(wire) - 4

    def test_correlation_id_is_the_last_eight_bytes(self):
        """Load generators pull the id without decoding the frame."""
        for message in REQUESTS + RESPONSES:
            wire = (
                BINARY_CODEC.encode_request(message)
                if "op" in message
                else BINARY_CODEC.encode_response(message)
            )
            assert int.from_bytes(wire[-8:], "little") == message["id"]

    def test_long_tail_shapes_fall_back_to_json_frames(self):
        before = perf.counters.net_codec_json_fallbacks
        for message in FALLBACKS:
            if "op" in message:
                wire = BINARY_CODEC.encode_request(message)
            else:
                wire = BINARY_CODEC.encode_response(message)
            assert wire[4] == FRAME_JSON, message
            assert BINARY_CODEC.decode(wire[4:]) == message
        # Each fallback ticks twice: once encoding, once decoding.
        assert (
            perf.counters.net_codec_json_fallbacks - before == 2 * len(FALLBACKS)
        )

    def test_counters_tick_per_frame(self):
        encoded = perf.counters.net_codec_binary_frames_encoded
        decoded = perf.counters.net_codec_binary_frames_decoded
        wire = BINARY_CODEC.encode_request(REQUESTS[2])
        BINARY_CODEC.decode(wire[4:])
        assert perf.counters.net_codec_binary_frames_encoded == encoded + 1
        assert perf.counters.net_codec_binary_frames_decoded == decoded + 1

    def test_decode_rejects_malformed_frames(self):
        for frame in (
            b"",  # empty
            bytes([0x7E]),  # unknown type
            bytes([0x02]) + b"\x00" * 23,  # read payload one byte short
            bytes([0x83]) + b"\x00" * 16 + b"\x09" + b"\x00" * 8,  # bad case
            bytes([FRAME_JSON]) + b"{not json",
            bytes([FRAME_JSON]) + b"[1, 2]",  # JSON but not an object
        ):
            with pytest.raises(ProtocolError):
                BINARY_CODEC.decode(frame)


class TestNegotiateHello:
    def test_client_preference_order_wins(self):
        codec, response = negotiate_hello(
            {"op": "hello", "codecs": ["binary-1", "json"]}, SUPPORTED_CODECS
        )
        assert codec is BINARY_CODEC
        assert response == {"ok": True, "codec": "binary-1", "version": 1}

    def test_unknown_codecs_settle_on_json(self):
        before = perf.counters.net_codec_negotiation_downgrades
        codec, response = negotiate_hello(
            {"op": "hello", "codecs": ["binary-99"]}, SUPPORTED_CODECS
        )
        assert codec is JSON_CODEC
        assert response["codec"] == "json"
        assert perf.counters.net_codec_negotiation_downgrades == before + 1

    def test_json_only_server_declines_binary(self):
        codec, response = negotiate_hello(
            {"op": "hello", "codecs": ["binary-1"]}, ("json",)
        )
        assert codec is JSON_CODEC
        assert response["codec"] == "json"


class TestSyncClientNegotiation:
    def _commit_one(self, conn: RemoteConnection) -> None:
        with conn.begin("update", HIGH_EPSILON) as txn:
            assert txn.read(5) == 500.0
            txn.write(5, 555.0)

    def test_binary_client_against_binary_server(self):
        server = serve_forever(_database())
        try:
            before = perf.counters.snapshot()
            with RemoteConnection(
                "127.0.0.1", server.port, codec="binary-1"
            ) as conn:
                assert conn.negotiated_codec == "binary-1"
                self._commit_one(conn)
            after = perf.counters.snapshot()
            assert after["net_codec_binary_frames_encoded"] > before[
                "net_codec_binary_frames_encoded"
            ]
            assert after["net_codec_binary_frames_decoded"] > before[
                "net_codec_binary_frames_decoded"
            ]
            # Every request and answer of a plain transaction has a fixed
            # layout, so none of them fell back to a JSON frame.
            assert (
                after["net_codec_json_fallbacks"]
                == before["net_codec_json_fallbacks"]
            )
            assert server.manager.database.get(5).committed_value == 555.0
        finally:
            server.shutdown()
            server.server_close()

    def test_binary_client_against_pre_negotiation_server(self):
        """``codecs=None`` emulates an old server: hello earns
        ``unknown-op`` and the client silently stays on JSON."""
        server = serve_forever(_database(), codecs=None)
        try:
            with RemoteConnection(
                "127.0.0.1", server.port, codec="binary-1"
            ) as conn:
                assert conn.negotiated_codec == "json"
                self._commit_one(conn)
        finally:
            server.shutdown()
            server.server_close()

    def test_binary_client_against_json_only_server(self):
        server = serve_forever(_database(), codecs=("json",))
        try:
            with RemoteConnection(
                "127.0.0.1", server.port, codec="binary-1"
            ) as conn:
                assert conn.negotiated_codec == "json"
                self._commit_one(conn)
        finally:
            server.shutdown()
            server.server_close()

    def test_json_client_against_binary_server_unchanged(self):
        server = serve_forever(_database())
        try:
            with RemoteConnection("127.0.0.1", server.port) as conn:
                assert conn.negotiated_codec == "json"
                self._commit_one(conn)
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_codec_name_rejected_client_side(self):
        with pytest.raises(ValueError):
            RemoteConnection("127.0.0.1", 1, codec="binary-99")

    @pytest.mark.parametrize("shards,processes", [(3, False), (2, True)])
    def test_sharded_servers_over_binary(self, shards, processes):
        server = serve_forever(
            _database(), shards=shards, processes=processes
        )
        try:
            with RemoteConnection(
                "127.0.0.1", server.port, codec="binary-1"
            ) as conn:
                assert conn.negotiated_codec == "binary-1"
                with conn.begin("update", HIGH_EPSILON) as txn:
                    for obj in range(1, 7):  # spans every shard
                        txn.write(obj, float(obj))
            for obj in range(1, 7):
                committed = server.manager.database.get(obj).committed_value
                assert committed == float(obj)
        finally:
            server.shutdown()
            server.server_close()


class TestAsyncClientNegotiation:
    def test_pipelined_binary_reads(self):
        handle = serve_in_thread(_database())
        try:

            async def main():
                async with await connect(
                    "127.0.0.1", handle.port, codec="binary-1"
                ) as conn:
                    assert conn.negotiated_codec == "binary-1"
                    txn = await conn.begin("query", HIGH_EPSILON)
                    values = await asyncio.gather(
                        *(txn.read(i) for i in range(1, 11))
                    )
                    await txn.commit()
                    return values

            values = asyncio.run(main())
            assert values == [float(i) * 100.0 for i in range(1, 11)]
        finally:
            handle.shutdown()

    def test_binary_client_against_json_only_async_server(self):
        handle = serve_in_thread(_database(), codecs=("json",))
        try:

            async def main():
                async with await connect(
                    "127.0.0.1", handle.port, codec="binary-1"
                ) as conn:
                    assert conn.negotiated_codec == "json"
                    txn = await conn.begin("query", HIGH_EPSILON)
                    value = await txn.read(3)
                    await txn.commit()
                    return value

            assert asyncio.run(main()) == 300.0
        finally:
            handle.shutdown()

    def test_negotiation_requires_a_quiet_connection(self):
        handle = serve_in_thread(_database(), wait_timeout=10.0)
        try:

            async def main():
                async with await connect("127.0.0.1", handle.port) as conn:
                    txn = await conn.begin("query", HIGH_EPSILON)
                    pending = asyncio.ensure_future(txn.read(3))
                    await asyncio.sleep(0)  # let the request go out
                    try:
                        with pytest.raises(ProtocolError):
                            await conn.negotiate_codec("binary-1")
                    finally:
                        await pending
                    # After the pipeline drains, negotiation succeeds.
                    assert await conn.negotiate_codec("binary-1") == "binary-1"
                    assert await txn.read(4) == 400.0
                    await txn.commit()

            asyncio.run(main())
        finally:
            handle.shutdown()

    def test_snapshot_cache_answers_inline_on_binary(self):
        """The bounded-staleness read fast path works on binary frames
        and ticks the codec counters."""
        handle = serve_in_thread(_database(), snapshot_cache=True)
        try:

            async def main():
                async with await connect(
                    "127.0.0.1", handle.port, site=1, codec="binary-1"
                ) as qconn, await connect(
                    "127.0.0.1", handle.port, site=2, codec="binary-1"
                ) as wconn:
                    query = await qconn.begin(
                        "query", 1_000.0, timestamp=Timestamp(1.0, 1, 0)
                    )
                    writer = await wconn.begin(
                        "update", 1_000.0, timestamp=Timestamp(2.0, 2, 0)
                    )
                    await writer.write(3, 340.0)
                    await writer.commit()
                    value = await query.read(3)
                    await query.commit()
                    return value

            before = perf.counters.snapshot()
            assert asyncio.run(main()) == 340.0
            after = perf.counters.snapshot()
            assert handle.manager.snapshot.stats()["hits"] >= 1
            assert after["net_codec_binary_frames_decoded"] > before[
                "net_codec_binary_frames_decoded"
            ]
            assert after["net_codec_binary_frames_encoded"] > before[
                "net_codec_binary_frames_encoded"
            ]
        finally:
            handle.shutdown()


# -- raw wire: negotiation handoff, malformed frames, conformance --------------


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _negotiate_raw(sock: socket.socket) -> bytes:
    """Send a hello line; returns bytes already read past the response."""
    sock.sendall(b'{"op":"hello","codecs":["binary-1"]}\n')
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, "server closed during negotiation"
        buffer += chunk
    line, rest = buffer.split(b"\n", 1)
    response = json.loads(line)
    assert response["ok"] and response["codec"] == "binary-1"
    return rest


def _read_frames(
    sock: socket.socket, count: int, initial: bytes = b""
) -> list[bytes]:
    """Read ``count`` frame bodies (type byte + payload) off the wire."""
    buffer = initial
    frames: list[bytes] = []
    while len(frames) < count:
        if len(buffer) >= 4:
            size = int.from_bytes(buffer[:4], "little")
            if len(buffer) >= 4 + size:
                frames.append(buffer[4 : 4 + size])
                buffer = buffer[4 + size :]
                continue
        chunk = sock.recv(65536)
        if not chunk:
            break  # EOF: return what arrived
        buffer += chunk
    return frames


@pytest.fixture(params=["threaded", "async"])
def server(request):
    db = _database()
    if request.param == "threaded":
        srv = serve_forever(db)
        yield srv
        srv.shutdown()
        srv.server_close()
    else:
        handle = serve_in_thread(db)
        yield handle
        handle.shutdown()


BINARY_SCRIPT = (
    BINARY_CODEC.pack_begin(1, 1e6, 1)  # update
    + BINARY_CODEC.pack_read(1, 3, 2)
    + BINARY_CODEC.pack_write(1, 3, 42.5, 3)
    + BINARY_CODEC.pack_commit(1, 4)
    + BINARY_CODEC.pack_begin(0, 1e6, 5)  # query
    + BINARY_CODEC.pack_read(2, 3, 6)
    + BINARY_CODEC.pack_abort(2, 7)
)


def _run_binary_script(port: int) -> list[bytes]:
    sock = _connect(port)
    try:
        rest = _negotiate_raw(sock)
        sock.sendall(BINARY_SCRIPT)
        return _read_frames(sock, 7, rest)
    finally:
        sock.close()


class TestBinaryConformance:
    def test_script_responses_are_correct(self, server):
        frames = [BINARY_CODEC.decode(f) for f in _run_binary_script(server.port)]
        assert frames[0] == {"ok": True, "txn": 1, "id": 1}
        assert frames[1]["value"] == 300.0 and frames[1]["id"] == 2
        assert frames[2]["ok"] and frames[2]["id"] == 3
        assert frames[3] == {"ok": True, "id": 4}
        assert frames[4] == {"ok": True, "txn": 2, "id": 5}
        assert frames[5]["value"] == 42.5 and frames[5]["id"] == 6
        assert frames[6] == {"ok": True, "id": 7}

    def test_both_servers_answer_identical_bytes(self):
        threaded = serve_forever(_database())
        try:
            threaded_frames = _run_binary_script(threaded.port)
        finally:
            threaded.shutdown()
            threaded.server_close()
        handle = serve_in_thread(_database())
        try:
            async_frames = _run_binary_script(handle.port)
        finally:
            handle.shutdown()
        assert threaded_frames == async_frames

    def test_pipelined_burst_with_requests_behind_the_hello(self, server):
        """Binary frames sent in the same TCP segment as the hello line
        must survive the codec switch losslessly."""
        sock = _connect(server.port)
        try:
            sock.sendall(
                b'{"op":"hello","codecs":["binary-1"]}\n' + BINARY_SCRIPT
            )
            buffer = b""
            while b"\n" not in buffer:
                buffer += sock.recv(65536)
            line, rest = buffer.split(b"\n", 1)
            assert json.loads(line)["codec"] == "binary-1"
            frames = _read_frames(sock, 7, rest)
            assert BINARY_CODEC.decode(frames[0]) == {
                "ok": True,
                "txn": 1,
                "id": 1,
            }
            assert BINARY_CODEC.decode(frames[6]) == {"ok": True, "id": 7}
        finally:
            sock.close()


class TestBinaryWireEdgeCases:
    def test_oversized_frame_answers_too_large(self, server):
        sock = _connect(server.port)
        try:
            rest = _negotiate_raw(sock)
            sock.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            (frame,) = _read_frames(sock, 1, rest)
            response = BINARY_CODEC.decode(frame)
            assert response["ok"] is False
            assert response["error"] == "too_large"
            assert sock.recv(4096) == b""  # connection closed after
        finally:
            sock.close()

    def test_unknown_frame_type_answers_protocol_error(self, server):
        sock = _connect(server.port)
        try:
            rest = _negotiate_raw(sock)
            sock.sendall(struct.pack("<IB", 1, 0x7E))
            (frame,) = _read_frames(sock, 1, rest)
            response = BINARY_CODEC.decode(frame)
            assert response["ok"] is False
            assert response["error"] == "protocol"
            assert sock.recv(4096) == b""
        finally:
            sock.close()

    def test_garbage_payload_answers_protocol_error(self, server):
        sock = _connect(server.port)
        try:
            rest = _negotiate_raw(sock)
            # A read frame with a truncated payload (valid size prefix).
            sock.sendall(struct.pack("<IB", 11, 0x02) + b"\x00" * 10)
            (frame,) = _read_frames(sock, 1, rest)
            response = BINARY_CODEC.decode(frame)
            assert response["ok"] is False
            assert response["error"] == "protocol"
        finally:
            sock.close()

    def test_truncated_frame_then_eof(self, server):
        sock = _connect(server.port)
        try:
            rest = _negotiate_raw(sock)
            sock.sendall(BINARY_CODEC.pack_read(1, 1, 1)[:12])
            sock.shutdown(socket.SHUT_WR)
            (frame,) = _read_frames(sock, 1, rest)
            response = BINARY_CODEC.decode(frame)
            assert response["ok"] is False
            assert response["error"] == "protocol"
            assert "mid-frame" in response["detail"]
        finally:
            sock.close()
