"""The connection core without sockets: ``Conversation.feed`` driven
directly, and the codecs' ``split`` / ``join`` it frames with."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.net.protocol import (
    BINARY_CODEC,
    JSON_CODEC,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    encode_message,
)
from repro.net.requests import Conversation, Failure, NeedsWait, submit_request


def _conversation(snapshot_cache: bool = True, codecs=("binary-1", "json")):
    db = Database()
    db.create_many((i, float(i) * 100.0) for i in range(1, 11))
    manager = create_engine(db, "esr", snapshot_cache=snapshot_cache)
    return Conversation(manager, codecs)


def _serve(conv: Conversation, chunks) -> list:
    """A transport that runs each request the moment it is yielded (what
    the threaded server does); returns the items in a comparable form."""
    items = []
    for chunk in chunks:
        for item in conv.feed(chunk):
            if type(item) is dict:
                result = submit_request(conv.manager, item, conv.sessions)
                if type(result) is not NeedsWait:  # a parked op keeps its claim
                    conv.answered(item)
            elif type(item) is Failure:
                item = ("failure", item.error, item.detail)
            items.append(item)
    return items


def _begin(conv: Conversation, kind: str = "query", ticks: float = 1.0) -> int:
    response = submit_request(
        conv.manager,
        {"op": "begin", "kind": kind, "limit": 1e6, "timestamp": [ticks, 1, 0]},
        conv.sessions,
    )
    return response["txn"]


def _hello(*codecs: str) -> dict:
    return {"op": "hello", "codecs": list(codecs), "id": 0}


# -- any chunking is the same conversation -------------------------------------

#: Requests over transactions 1..3 (begun by the stream itself) and
#: objects 1..10 — cacheable reads in both wire shapes, writes, a parked
#: wait or two, refusals, and a ``txn`` no dict can be keyed by.
_requests = st.one_of(
    st.builds(
        lambda txn, obj, rid: {"op": "read", "txn": txn, "object": obj, "id": rid},
        st.integers(1, 4),
        st.integers(1, 11),
        st.integers(1, 99),
    ),
    st.builds(
        lambda txn, obj: {"object": obj, "op": "read", "txn": txn},
        st.integers(1, 4),
        st.integers(1, 10),
    ),
    st.builds(
        lambda txn, obj, value: {
            "op": "write", "txn": txn, "object": obj, "value": value, "id": 7,
        },
        st.integers(1, 3),
        st.integers(1, 10),
        st.floats(-100.0, 100.0),
    ),
    st.builds(lambda txn: {"op": "commit", "txn": txn, "id": 8}, st.integers(1, 3)),
    st.sampled_from(
        [
            {"op": "time", "id": 5},
            {"op": "frobnicate"},
            {"op": "read", "txn": [1], "object": 1},
            {"op": "abort", "txn": {"a": 1}, "id": 6},
        ]
    ),
)

_PREAMBLE = [
    {"op": "begin", "kind": "query", "limit": 50.0, "timestamp": [1.0, 1, 0], "id": 1},
    {"op": "begin", "kind": "update", "limit": 1e6, "timestamp": [2.0, 1, 0], "id": 2},
    {"op": "begin", "kind": "query", "limit": 1e6, "timestamp": [3.0, 1, 0], "id": 3},
]

#: Where the stream says ``hello``: nowhere, JSON -> binary, and both ways.
_SWITCHES = {
    "json": [],
    "binary": [(0, _hello("binary-1"))],
    "json-binary": [(1, _hello("binary-1"))],
    "json-binary-json": [(1, _hello("binary-1")), (2, _hello("json"))],
}


def _stream(switch: str, parts: list[list[dict]]) -> bytes:
    """``parts`` encoded back to back, a ``hello`` (and with it the
    codec) changing between them as ``switch`` says."""
    codec = JSON_CODEC
    hellos = dict(_SWITCHES[switch])
    out = []
    for index, part in enumerate([_PREAMBLE, *parts]):
        hello = hellos.get(index)
        if hello is not None:
            out.append(codec.encode_request(hello))
            codec = BINARY_CODEC if hello["codecs"] == ["binary-1"] else JSON_CODEC
        out.extend(codec.encode_request(message) for message in part)
    return b"".join(out)


class TestChunkingIsInvisible:
    @settings(max_examples=120, deadline=None)
    @given(
        switch=st.sampled_from(sorted(_SWITCHES)),
        parts=st.lists(st.lists(_requests, max_size=8), min_size=2, max_size=2),
        cuts=st.lists(st.integers(0, 4000), max_size=12),
        garbage=st.sampled_from([b"", b"{nope\n", b"\x05\x00\x00\x00\x02abcd", b"x"]),
    )
    def test_any_chunking_yields_the_same_items(self, switch, parts, cuts, garbage):
        stream = _stream(switch, parts) + garbage
        edges = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
        chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
        single_bytes = [stream[i : i + 1] for i in range(len(stream))]
        whole = _serve(_conversation(), [stream])
        assert _serve(_conversation(), chunks) == whole
        assert _serve(_conversation(), single_bytes) == whole
        # ... and the stream did something: the three begins were dispatched.
        assert [item["op"] for item in whole[:4] if type(item) is dict][:3] == (
            ["begin"] * 3
        )


# -- split / join ---------------------------------------------------------------


class TestSplitJoin:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    def test_json_join_is_the_inverse_of_split(self, buffer):
        frames, tail, too_large = JSON_CODEC.split(buffer)
        assert too_large is None
        assert all(b"\n" not in frame for frame in frames)
        assert JSON_CODEC.join(frames, tail) == buffer

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.binary(min_size=1, max_size=40), max_size=6),
        st.integers(0, 400),
    )
    def test_binary_join_is_the_inverse_of_split(self, bodies, cut):
        whole = BINARY_CODEC.join(bodies, b"")
        buffer = whole[: cut % (len(whole) + 1)]
        frames, tail, too_large = BINARY_CODEC.split(buffer)
        assert too_large is None
        assert frames == bodies[: len(frames)]
        assert BINARY_CODEC.join(frames, tail) == buffer
        if buffer == whole:
            assert frames == bodies and tail == b""

    def test_oversized_line_keeps_what_preceded_it(self):
        long = b"x" * (MAX_LINE_BYTES + 1)
        for rest in (long, long + b"\nafter\n"):
            frames, tail, too_large = JSON_CODEC.split(b"a\nbb\n" + rest)
            assert frames == [b"a", b"bb"] and tail == rest
            assert str(MAX_LINE_BYTES) in too_large

    def test_a_line_of_exactly_the_cap_passes(self):
        line = b"x" * MAX_LINE_BYTES
        assert JSON_CODEC.split(b"a\n" + line + b"\n") == ([b"a", line], b"", None)

    def test_oversized_or_empty_frame_keeps_what_preceded_it(self):
        first = BINARY_CODEC.pack_commit(1, 2)
        for size in (0, MAX_FRAME_BYTES + 1):
            rest = size.to_bytes(4, "little") + b"rest"
            frames, tail, too_large = BINARY_CODEC.split(first + rest)
            assert frames == [first[4:]] and tail == rest
            assert f"frame of {size} bytes" in too_large


# -- the conversation's rules, one by one ---------------------------------------


class TestCodecSwitch:
    def test_binary_frame_with_newlines_right_behind_the_hello(self):
        """The line split cuts the frame at every 0x0A; the switch must
        undo that exactly."""
        conv = _conversation()
        frame = BINARY_CODEC.pack_read(10, 10, 10)
        assert frame.count(b"\n") >= 3
        answer, request = conv.feed(encode_message(_hello("binary-1")) + frame)
        assert JSON_CODEC.decode(answer.rstrip(b"\n"))["codec"] == "binary-1"
        assert request == {"op": "read", "txn": 10, "object": 10, "id": 10}
        assert conv.codec is BINARY_CODEC and conv.tail == b""

    def test_and_back_with_a_partial_line_left_over(self):
        conv = _conversation()
        conv.codec = BINARY_CODEC
        items = list(
            conv.feed(
                BINARY_CODEC.encode_request(_hello("json"))
                + b'{"op":"time"}\n{"op":"ti'
            )
        )
        assert BINARY_CODEC.decode(items[0][4:])["codec"] == "json"
        assert items[1:] == [{"op": "time"}]
        assert conv.codec is JSON_CODEC and conv.tail == b'{"op":"ti'

    def test_negotiation_disabled_makes_hello_a_request_like_any_other(self):
        conv = _conversation(codecs=None)
        [request] = conv.feed(encode_message(_hello("binary-1")))
        assert request["op"] == "hello" and conv.codec is JSON_CODEC
        response = submit_request(conv.manager, request, conv.sessions)
        assert response["error"] == "unknown-op"


class TestFramingFailures:
    def test_too_large_line_is_last_and_what_preceded_it_is_yielded(self):
        conv = _conversation()
        *requests, failure = conv.feed(
            b'{"op":"time","id":1}\n{"op":"time","id":2}\n'
            + b"x" * (MAX_LINE_BYTES + 1)
        )
        assert [r["id"] for r in requests] == [1, 2]
        assert (failure.error, str(MAX_LINE_BYTES) in failure.detail) == (
            "too_large",
            True,
        )
        assert failure.response()["ok"] is False
        assert conv.failed and list(conv.feed(b'{"op":"time"}\n')) == []
        assert conv.eof() is None  # one failure per conversation

    def test_too_large_frame_is_last_and_what_preceded_it_is_yielded(self):
        conv = _conversation()
        conv.codec = BINARY_CODEC
        *requests, failure = conv.feed(
            BINARY_CODEC.pack_commit(5, 1)
            + (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
        )
        assert requests == [{"op": "commit", "txn": 5, "id": 1}]
        assert failure.error == "too_large"

    def test_undecodable_frame_stops_the_conversation(self):
        conv = _conversation()
        first, failure = conv.feed(b'{"op":"time"}\n{nope\n{"op":"time"}\n')
        assert first == {"op": "time"}
        assert failure.error == "protocol" and "malformed" in failure.detail

    def test_eof_mid_line_and_mid_frame(self):
        conv = _conversation()
        assert list(conv.feed(b'{"op":"ti')) == []
        failure = conv.eof()
        assert (failure.error, failure.detail) == (
            "protocol",
            "connection closed mid-line",
        )
        conv = _conversation()
        conv.codec = BINARY_CODEC
        assert list(conv.feed(BINARY_CODEC.pack_commit(1, 1)[:9])) == []
        assert conv.eof().detail == "connection closed mid-frame"

    def test_eof_between_frames_is_clean(self):
        conv = _conversation()
        assert len(list(conv.feed(b'{"op":"time"}\n'))) == 1
        assert conv.eof() is None and not conv.failed


class TestInlineAnswers:
    READ = b'{"op":"read","txn":%d,"object":2,"id":3}\n'

    def test_cacheable_read_is_answered_inline_in_either_shape(self):
        conv = _conversation()
        txn = _begin(conv)
        canonical, generic = conv.feed(
            self.READ % txn + b'{"id":4,"object":2,"op":"read","txn":%d}\n' % txn
        )
        assert JSON_CODEC.decode(canonical.rstrip(b"\n")) == {
            "ok": True, "value": 200.0, "inconsistency": 0.0, "esr_case": None, "id": 3,
        }
        assert JSON_CODEC.decode(generic.rstrip(b"\n"))["id"] == 4
        assert conv.pending_ops == {}

    def test_read_behind_a_queued_op_of_its_transaction_is_a_request(self):
        """Per-transaction order: while the commit is outstanding the
        read may not be answered from the cache ahead of it."""
        conv = _conversation()
        txn = _begin(conv)
        commit, read = conv.feed(
            b'{"op":"commit","txn":%d,"id":2}\n' % txn + self.READ % txn
        )
        assert (commit["op"], read["op"]) == ("commit", "read")
        assert conv.pending_ops == {txn: 2}
        # Another transaction's read overtakes freely.
        other = _begin(conv, ticks=2.0)
        [answer] = conv.feed(self.READ % other)
        assert type(answer) is bytes
        # Once the transport has answered both, the claim is gone.
        conv.answered(commit)
        assert conv.pending_ops == {txn: 1}
        conv.answered(read)
        assert conv.pending_ops == {}
        [answer] = conv.feed(self.READ % txn)
        assert type(answer) is bytes

    def test_without_a_cache_every_read_is_a_request(self):
        conv = _conversation(snapshot_cache=False)
        txn = _begin(conv)
        [request] = conv.feed(self.READ % txn)
        assert request == {"op": "read", "txn": txn, "object": 2, "id": 3}

    def test_non_scalar_txn_is_refused_inline_and_claims_nothing(self):
        for cache in (False, True):
            conv = _conversation(snapshot_cache=cache)
            [answer] = conv.feed(b'{"op":"read","txn":[1],"object":1,"id":4}\n')
            refusal = JSON_CODEC.decode(answer.rstrip(b"\n"))
            assert (refusal["error"], refusal["id"]) == ("bad-request", 4)
            assert conv.pending_ops == {}


class TestAbandon:
    def test_aborts_what_is_active_and_forgets_everything(self):
        conv = _conversation()
        finished, left = _begin(conv), _begin(conv, "update", ticks=2.0)
        submit_request(conv.manager, {"op": "commit", "txn": finished}, conv.sessions)
        assert [t.transaction_id for t in conv.manager.active_transactions()] == [left]
        conv.abandon()
        assert conv.sessions == {} and conv.manager.active_transactions() == ()
