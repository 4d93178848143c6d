"""The JSON-line wire protocol."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.errors import ProtocolError
from repro.net.protocol import FrameReader, decode_message, encode_message


class TestEncoding:
    def test_round_trip(self):
        message = {"op": "read", "txn": 3, "object": 1863}
        assert decode_message(encode_message(message).strip()) == message

    def test_encoded_form_is_one_line(self):
        data = encode_message({"op": "time"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    def test_unencodable_message(self):
        with pytest.raises(ProtocolError):
            encode_message({"bad": object()})

    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(b"{nope")

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2, 3]")


def socket_pair():
    a, b = socket.socketpair()
    return a, b


class TestLineReader:
    def test_reads_messages_across_chunks(self):
        a, b = socket_pair()
        reader = FrameReader(b)
        payload = encode_message({"op": "ping", "n": 1}) + encode_message(
            {"op": "ping", "n": 2}
        )
        # Deliver in awkward chunks from another thread.
        def feed():
            for i in range(0, len(payload), 7):
                a.sendall(payload[i : i + 7])
            a.close()

        thread = threading.Thread(target=feed)
        thread.start()
        first = reader.read_message()
        second = reader.read_message()
        third = reader.read_message()
        thread.join()
        assert first == {"op": "ping", "n": 1}
        assert second == {"op": "ping", "n": 2}
        assert third is None
        b.close()

    def test_eof_mid_line_is_error(self):
        a, b = socket_pair()
        reader = FrameReader(b)
        a.sendall(b'{"op": "tr')
        a.close()
        with pytest.raises(ProtocolError, match="mid-line"):
            reader.read_frame()
        b.close()

    def test_send_recv_pair(self):
        a, b = socket_pair()
        a.sendall(encode_message({"op": "time"}))
        assert FrameReader(b).read_message() == {"op": "time"}
        a.close()
        b.close()
