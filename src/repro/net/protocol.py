"""The wire protocol of the networked prototype.

The *base* codec is one JSON object per line over TCP (a faithful
stand-in for the paper's synchronous RPC library): the client sends a
request, the server answers with exactly one response before the client
sends the next request.

Requests (``op`` selects the operation — the prototype's five basic
operations plus ``time`` for virtual clock synchronisation)::

    {"op": "time"}
    {"op": "begin", "kind": "query"|"update", "limit": <TIL or TEL>,
     "timestamp": [ticks, site, seq],
     "group_limits": {...}, "object_limits": {...}}
    {"op": "read",  "txn": <id>, "object": <oid>}
    {"op": "write", "txn": <id>, "object": <oid>, "value": <v>}
    {"op": "commit", "txn": <id>}
    {"op": "abort",  "txn": <id>}

Responses always carry ``ok``; failures carry ``error`` (a short code)
and ``detail``.  A rejected operation answers
``{"ok": false, "error": "aborted", "reason": ...}`` — the transaction is
already aborted server-side and the client should resubmit with a fresh
timestamp.

Beside JSON lives a negotiated **binary codec** (``binary-1``):
length-prefixed frames with struct-packed fixed layouts for the hot
shapes (begin/read/write/commit/abort and their ok/txn/value responses)
and a tagged JSON-payload frame for the long tail (``time``, limit maps,
errors).  Every connection *starts* in JSON line mode; a client that
wants binary sends ``{"op": "hello", "codecs": ["binary-1"]}`` as its
first request and switches after the (JSON) response confirms the codec
— so JSON-only clients keep working byte-for-byte unchanged, and a
binary-capable client against an old server simply sees ``unknown-op``
and stays on JSON.  The codecs are exposed as a small registry
(:data:`CODECS`, :func:`negotiate_hello`), and each codec carries its
own canonical-read fast path for the servers' snapshot-cache inline
answers (:meth:`Codec.parse_canonical_read` /
:meth:`Codec.encode_read_outcome`).  The frame layouts are documented in
``docs/protocol.md``.

Framing lives here once, without I/O: :meth:`Codec.split` cuts a byte
buffer into complete frames plus the unconsumed tail (enforcing the size
cap), :meth:`Codec.join` is its exact inverse (what makes a codec switch
in the middle of a buffer lossless — binary frames may contain
``0x0A``), and :meth:`Codec.decode` turns one frame into a message.  The
servers reach them through :class:`repro.net.requests.Conversation`;
blocking callers (the synchronous client, tests) through
:class:`FrameReader`.
"""

from __future__ import annotations

import json
import math
import re
import socket
import struct
from collections import deque
from typing import Any

from repro import perf
from repro.errors import ProtocolError

__all__ = [
    "encode_message",
    "encode_response",
    "decode_message",
    "FrameReader",
    "MAX_LINE_BYTES",
    "MAX_FRAME_BYTES",
    "Codec",
    "JsonCodec",
    "BinaryCodec",
    "JSON_CODEC",
    "BINARY_CODEC",
    "CODECS",
    "SUPPORTED_CODECS",
    "negotiate_hello",
    "FRAME_BEGIN",
    "FRAME_READ",
    "FRAME_WRITE",
    "FRAME_COMMIT",
    "FRAME_ABORT",
    "FRAME_JSON",
    "FRAME_OK",
    "FRAME_OK_TXN",
    "FRAME_OK_VALUE",
    "FRAME_OK_WRITE",
]

#: Protect the server from absurd lines.  A sane request is well under a
#: kilobyte, but ``begin`` may carry per-object limit maps, so the cap is
#: a generous 1 MiB; anything past it answers ``{"error": "too_large"}``
#: and the connection is closed.
MAX_LINE_BYTES = 1 << 20

#: The same cap for one binary frame (length prefix + type + payload).
MAX_FRAME_BYTES = MAX_LINE_BYTES


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialise one protocol message to a newline-terminated JSON line."""
    try:
        return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message {message!r}: {exc}") from exc


def encode_response(response: dict[str, Any]) -> bytes:
    """:func:`encode_message` with fast paths for the hot response shapes.

    Read/begin/commit responses dominate server output; formatting them
    directly skips the generic JSON encoder.  Every fast path is
    byte-identical to ``encode_message`` (compact separators, insertion
    key order, ``repr`` floats — which is exactly what ``json.dumps``
    emits) and anything that does not match a known shape precisely falls
    through to the generic encoder.
    """
    if response.get("ok") is True:
        keys = tuple(response)
        if keys == ("ok", "value", "inconsistency", "esr_case", "id"):
            value = response["value"]
            inconsistency = response["inconsistency"]
            tag = response["id"]
            if (
                type(value) is float
                and type(inconsistency) is float
                and type(tag) is int
                and response["esr_case"] is None
                and math.isfinite(value)
                and math.isfinite(inconsistency)
            ):
                return (
                    b'{"ok":true,"value":%s,"inconsistency":%s,'
                    b'"esr_case":null,"id":%d}\n'
                    % (repr(value).encode(), repr(inconsistency).encode(), tag)
                )
        elif keys == ("ok", "value", "inconsistency", "esr_case"):
            value = response["value"]
            inconsistency = response["inconsistency"]
            if (
                type(value) is float
                and type(inconsistency) is float
                and response["esr_case"] is None
                and math.isfinite(value)
                and math.isfinite(inconsistency)
            ):
                return (
                    b'{"ok":true,"value":%s,"inconsistency":%s,'
                    b'"esr_case":null}\n'
                    % (repr(value).encode(), repr(inconsistency).encode())
                )
        elif keys == ("ok", "txn", "id"):
            txn = response["txn"]
            tag = response["id"]
            if type(txn) is int and type(tag) is int:
                return b'{"ok":true,"txn":%d,"id":%d}\n' % (txn, tag)
        elif keys == ("ok", "txn"):
            txn = response["txn"]
            if type(txn) is int:
                return b'{"ok":true,"txn":%d}\n' % txn
        elif keys == ("ok", "id"):
            tag = response["id"]
            if type(tag) is int:
                return b'{"ok":true,"id":%d}\n' % tag
        elif keys == ("ok",):
            return b'{"ok":true}\n'
    return encode_message(response)


def decode_message(line: bytes) -> dict[str, Any]:
    """Parse one JSON line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol message must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- the binary codec (``binary-1``) -------------------------------------------
#
# Frame = u32le size | u8 type | payload, where ``size`` counts the type
# byte plus the payload (so ``size >= 1``) and is capped at
# :data:`MAX_FRAME_BYTES`.  Fixed layouts are little-endian structs; the
# correlation ``id`` is always the *last* field, so load generators can
# pull it without decoding the rest.  Anything that does not fit a fixed
# layout rides a :data:`FRAME_JSON` frame whose payload is the message
# dict as compact UTF-8 JSON — same language as the line protocol, just
# length-prefixed.

FRAME_BEGIN = 0x01
FRAME_READ = 0x02
FRAME_WRITE = 0x03
FRAME_COMMIT = 0x04
FRAME_ABORT = 0x05
#: Long-tail frame, either direction: payload is one JSON message object.
FRAME_JSON = 0x0F
FRAME_OK = 0x81
FRAME_OK_TXN = 0x82
FRAME_OK_VALUE = 0x83
FRAME_OK_WRITE = 0x84

#: ``esr_case`` enum for the fixed response layouts (index = wire code).
#: An unknown case string falls back to the JSON frame.
ESR_CASES: tuple[str | None, ...] = (
    None,
    "late-read-committed",
    "read-uncommitted",
    "late-write",
)
_CASE_CODE = {case: code for code, case in enumerate(ESR_CASES)}

_U64_MAX = (1 << 64) - 1
_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1

# Payload structs (after the type byte) ...
_ST_READ = struct.Struct("<QQQ")  # txn, object, id
_ST_WRITE = struct.Struct("<QQdQ")  # txn, object, value, id
_ST_TXN_ID = struct.Struct("<QQ")  # txn, id (commit/abort, and ok+txn)
_ST_BEGIN = struct.Struct("<BBddiiQ")  # kind, flags, limit, ticks, site, seq, id
_ST_ID = struct.Struct("<Q")  # id (bare ok)
_ST_VALUE = struct.Struct("<ddBQ")  # value, inconsistency, case, id
_ST_WROTE = struct.Struct("<dBQ")  # inconsistency, case, id
# ... and whole-frame packers (size + type + payload in one pack call).
_PK_READ = struct.Struct("<IBQQQ")
_PK_WRITE = struct.Struct("<IBQQdQ")
_PK_TXN_ID = struct.Struct("<IBQQ")
_PK_BEGIN = struct.Struct("<IBBBddiiQ")
_PK_ID = struct.Struct("<IBQ")
_PK_VALUE = struct.Struct("<IBddBQ")
_PK_WROTE = struct.Struct("<IBdBQ")

_BEGIN_HAS_TIMESTAMP = 0x01
_KIND_NAMES = ("query", "update")


def _is_u64(value: Any) -> bool:
    return type(value) is int and 0 <= value <= _U64_MAX


def _json_frame(message: dict[str, Any]) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return (
        (len(payload) + 1).to_bytes(4, "little")
        + bytes((FRAME_JSON,))
        + payload
    )


class Codec:
    """One wire codec: framing plus message encode/decode.

    The registry (:data:`CODECS`) maps negotiable codec names to codec
    objects; both servers, both clients and the bench load generator go
    through this interface, so a new codec is one class and one registry
    entry.  ``parse_canonical_read`` / ``encode_read_outcome`` are the
    snapshot-cache inline-answer fast path: given one raw frame, extract
    ``(txn, object, id)`` of a canonical read request without a full
    decode, and format a cache-hit response without a dict round trip.
    """

    name: str = "?"
    version: int = 0
    #: What one frame is called in error texts ("closed mid-line").
    unit: str = "frame"

    def encode_request(self, message: dict[str, Any]) -> bytes:
        raise NotImplementedError

    def encode_response(self, response: dict[str, Any]) -> bytes:
        raise NotImplementedError

    def split(self, buffer: bytes) -> tuple[list[bytes], bytes, str | None]:
        """``(frames, tail, too_large)``: the complete frames at the head
        of ``buffer`` (delimiters stripped) and the unconsumed rest.

        When a frame breaks the size cap, ``too_large`` is the error
        detail, ``frames`` holds what preceded it and the tail starts at
        the offender.
        """
        raise NotImplementedError

    def join(self, frames: list[bytes], tail: bytes) -> bytes:
        """The exact inverse of :meth:`split`: the bytes it was given."""
        raise NotImplementedError

    def decode(self, frame: bytes) -> dict[str, Any]:
        """One frame (as :meth:`split` cut it) to its message dict."""
        raise NotImplementedError

    def parse_canonical_read(self, frame: bytes):
        """``(txn, object, id|None)`` for a canonical read frame, else None."""
        raise NotImplementedError

    def encode_read_outcome(self, outcome, rid) -> bytes:
        """A cache-hit read response for ``parse_canonical_read``'s id."""
        raise NotImplementedError


class JsonCodec(Codec):
    """The line-delimited JSON codec (the default wire)."""

    name = "json"
    version = 0
    unit = "line"

    def encode_request(self, message: dict[str, Any]) -> bytes:
        return encode_message(message)

    def encode_response(self, response: dict[str, Any]) -> bytes:
        return encode_response(response)

    def split(self, buffer: bytes) -> tuple[list[bytes], bytes, str | None]:
        lines = buffer.split(b"\n")
        # No line outgrows the cap unless the whole buffer does, so the
        # common chunk pays one length check, not one per line.
        if len(buffer) > MAX_LINE_BYTES:
            for index, line in enumerate(lines):
                if len(line) > MAX_LINE_BYTES:
                    return (
                        lines[:index],
                        b"\n".join(lines[index:]),
                        f"protocol line exceeds {MAX_LINE_BYTES} bytes",
                    )
        tail = lines.pop()
        return lines, tail, None

    def join(self, frames: list[bytes], tail: bytes) -> bytes:
        return b"\n".join(frames + [tail])

    decode = staticmethod(decode_message)

    # The exact read-request bytes every pipelining client emits.  A hit
    # skips ``json.loads`` *and* ``json.dumps`` for the whole round trip;
    # any other key order or extra key falls back to the generic decode.
    _READ_LINE = re.compile(
        rb'\{"op":"read","txn":(\d+),"object":(\d+)(?:,"id":(\d+))?\}'
    )

    def parse_canonical_read(self, frame: bytes):
        match = self._READ_LINE.fullmatch(frame)
        if match is None:
            return None
        rid = match.group(3)
        return (
            int(match.group(1)),
            int(match.group(2)),
            int(rid) if rid is not None else None,
        )

    def encode_read_outcome(self, outcome, rid) -> bytes:
        # ``%a`` of a finite float is its ``repr`` — exactly what
        # ``json.dumps`` emits, so this is byte-identical to the encoder.
        case = (
            b'"' + outcome.esr_case.encode("ascii") + b'"'
            if outcome.esr_case is not None
            else b"null"
        )
        if rid is None:
            return b'{"ok":true,"value":%a,"inconsistency":%a,"esr_case":%b}\n' % (
                outcome.value,
                outcome.inconsistency,
                case,
            )
        return (
            b'{"ok":true,"value":%a,"inconsistency":%a,"esr_case":%b,"id":%d}\n'
            % (outcome.value, outcome.inconsistency, case, rid)
        )


class BinaryCodec(Codec):
    """The length-prefixed binary codec (``binary-1``)."""

    name = "binary-1"
    version = 1

    # -- packers (also used raw by the bench load generator) -------------------

    @staticmethod
    def pack_read(txn: int, object_id: int, rid: int) -> bytes:
        return _PK_READ.pack(25, FRAME_READ, txn, object_id, rid)

    @staticmethod
    def pack_write(txn: int, object_id: int, value: float, rid: int) -> bytes:
        return _PK_WRITE.pack(33, FRAME_WRITE, txn, object_id, value, rid)

    @staticmethod
    def pack_commit(txn: int, rid: int) -> bytes:
        return _PK_TXN_ID.pack(17, FRAME_COMMIT, txn, rid)

    @staticmethod
    def pack_abort(txn: int, rid: int) -> bytes:
        return _PK_TXN_ID.pack(17, FRAME_ABORT, txn, rid)

    @staticmethod
    def pack_begin(
        kind: int,
        limit: float,
        rid: int,
        timestamp: tuple[float, int, int] | None = None,
    ) -> bytes:
        if timestamp is None:
            return _PK_BEGIN.pack(35, FRAME_BEGIN, kind, 0, limit, 0.0, 0, 0, rid)
        ticks, site, seq = timestamp
        return _PK_BEGIN.pack(
            35, FRAME_BEGIN, kind, _BEGIN_HAS_TIMESTAMP, limit, ticks, site, seq, rid
        )

    # -- message encode --------------------------------------------------------

    def encode_request(self, message: dict[str, Any]) -> bytes:
        perf.counters.net_codec_binary_frames_encoded += 1
        op = message.get("op")
        rid = message.get("id")
        if _is_u64(rid):
            try:
                if op == "read":
                    txn, obj = message["txn"], message["object"]
                    if _is_u64(txn) and _is_u64(obj):
                        return self.pack_read(txn, obj, rid)
                elif op == "write":
                    txn, obj = message["txn"], message["object"]
                    value = message["value"]
                    if (
                        _is_u64(txn)
                        and _is_u64(obj)
                        and type(value) in (int, float)
                    ):
                        return self.pack_write(txn, obj, value, rid)
                elif op == "commit":
                    txn = message["txn"]
                    if _is_u64(txn):
                        return self.pack_commit(txn, rid)
                elif op == "abort":
                    txn = message["txn"]
                    if _is_u64(txn):
                        return self.pack_abort(txn, rid)
                elif op == "begin":
                    frame = self._try_pack_begin(message, rid)
                    if frame is not None:
                        return frame
            except KeyError:
                pass
        perf.counters.net_codec_json_fallbacks += 1
        return _json_frame(message)

    @staticmethod
    def _try_pack_begin(message: dict[str, Any], rid: int) -> bytes | None:
        if message.get("group_limits") or message.get("object_limits"):
            return None
        extra = set(message) - {
            "op", "kind", "limit", "timestamp", "group_limits",
            "object_limits", "id",
        }
        if extra:
            return None
        try:
            kind = _KIND_NAMES.index(message["kind"])
        except (ValueError, TypeError, KeyError):
            return None
        limit = message.get("limit", 0.0)
        if type(limit) not in (int, float):
            return None
        timestamp = message.get("timestamp")
        if timestamp is None:
            return BinaryCodec.pack_begin(kind, limit, rid)
        if (
            len(timestamp) == 3
            and type(timestamp[0]) in (int, float)
            and math.isfinite(timestamp[0])
            and type(timestamp[1]) is int
            and _I32_MIN <= timestamp[1] <= _I32_MAX
            and type(timestamp[2]) is int
            and _I32_MIN <= timestamp[2] <= _I32_MAX
        ):
            return BinaryCodec.pack_begin(
                kind, limit, rid, (timestamp[0], timestamp[1], timestamp[2])
            )
        return None

    def encode_response(self, response: dict[str, Any]) -> bytes:
        perf.counters.net_codec_binary_frames_encoded += 1
        if response.get("ok") is True:
            keys = tuple(response)
            if keys == ("ok", "value", "inconsistency", "esr_case", "id"):
                case = _CASE_CODE.get(response["esr_case"], -1)
                rid = response["id"]
                if case >= 0 and _is_u64(rid):
                    return _PK_VALUE.pack(
                        26,
                        FRAME_OK_VALUE,
                        response["value"],
                        response["inconsistency"],
                        case,
                        rid,
                    )
            elif keys == ("ok", "inconsistency", "esr_case", "id"):
                case = _CASE_CODE.get(response["esr_case"], -1)
                rid = response["id"]
                if case >= 0 and _is_u64(rid):
                    return _PK_WROTE.pack(
                        18, FRAME_OK_WRITE, response["inconsistency"], case, rid
                    )
            elif keys == ("ok", "txn", "id"):
                txn, rid = response["txn"], response["id"]
                if _is_u64(txn) and _is_u64(rid):
                    return _PK_TXN_ID.pack(17, FRAME_OK_TXN, txn, rid)
            elif keys == ("ok", "id"):
                rid = response["id"]
                if _is_u64(rid):
                    return _PK_ID.pack(9, FRAME_OK, rid)
        perf.counters.net_codec_json_fallbacks += 1
        return _json_frame(response)

    # -- message decode --------------------------------------------------------

    def decode(self, frame: bytes) -> dict[str, Any]:
        """One frame body (type byte + payload) to its message dict."""
        perf.counters.net_codec_binary_frames_decoded += 1
        if not frame:
            raise ProtocolError("empty binary frame")
        kind = frame[0]
        size = len(frame) - 1
        if kind == FRAME_READ:
            if size != _ST_READ.size:
                raise ProtocolError(f"read frame payload must be 24 bytes, got {size}")
            txn, obj, rid = _ST_READ.unpack_from(frame, 1)
            return {"op": "read", "txn": txn, "object": obj, "id": rid}
        if kind == FRAME_WRITE:
            if size != _ST_WRITE.size:
                raise ProtocolError(f"write frame payload must be 32 bytes, got {size}")
            txn, obj, value, rid = _ST_WRITE.unpack_from(frame, 1)
            return {"op": "write", "txn": txn, "object": obj, "value": value, "id": rid}
        if kind in (FRAME_COMMIT, FRAME_ABORT):
            if size != _ST_TXN_ID.size:
                raise ProtocolError(
                    f"commit/abort frame payload must be 16 bytes, got {size}"
                )
            txn, rid = _ST_TXN_ID.unpack_from(frame, 1)
            op = "commit" if kind == FRAME_COMMIT else "abort"
            return {"op": op, "txn": txn, "id": rid}
        if kind == FRAME_BEGIN:
            if size != _ST_BEGIN.size:
                raise ProtocolError(f"begin frame payload must be 34 bytes, got {size}")
            k, flags, limit, ticks, site, seq, rid = _ST_BEGIN.unpack_from(frame, 1)
            if k >= len(_KIND_NAMES):
                raise ProtocolError(f"begin frame has unknown kind {k}")
            message: dict[str, Any] = {
                "op": "begin",
                "kind": _KIND_NAMES[k],
                "limit": limit,
                "id": rid,
            }
            if flags & _BEGIN_HAS_TIMESTAMP:
                message["timestamp"] = [ticks, site, seq]
            return message
        if kind == FRAME_OK:
            if size != _ST_ID.size:
                raise ProtocolError(f"ok frame payload must be 8 bytes, got {size}")
            (rid,) = _ST_ID.unpack_from(frame, 1)
            return {"ok": True, "id": rid}
        if kind == FRAME_OK_TXN:
            if size != _ST_TXN_ID.size:
                raise ProtocolError(f"ok+txn frame payload must be 16 bytes, got {size}")
            txn, rid = _ST_TXN_ID.unpack_from(frame, 1)
            return {"ok": True, "txn": txn, "id": rid}
        if kind == FRAME_OK_VALUE:
            if size != _ST_VALUE.size:
                raise ProtocolError(f"value frame payload must be 25 bytes, got {size}")
            value, inconsistency, case, rid = _ST_VALUE.unpack_from(frame, 1)
            if case >= len(ESR_CASES):
                raise ProtocolError(f"value frame has unknown esr case {case}")
            return {
                "ok": True,
                "value": value,
                "inconsistency": inconsistency,
                "esr_case": ESR_CASES[case],
                "id": rid,
            }
        if kind == FRAME_OK_WRITE:
            if size != _ST_WROTE.size:
                raise ProtocolError(f"write-ok frame payload must be 17 bytes, got {size}")
            inconsistency, case, rid = _ST_WROTE.unpack_from(frame, 1)
            if case >= len(ESR_CASES):
                raise ProtocolError(f"write-ok frame has unknown esr case {case}")
            return {
                "ok": True,
                "inconsistency": inconsistency,
                "esr_case": ESR_CASES[case],
                "id": rid,
            }
        if kind == FRAME_JSON:
            perf.counters.net_codec_json_fallbacks += 1
            try:
                message = json.loads(frame[1:].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"malformed JSON frame payload: {exc}") from exc
            if not isinstance(message, dict):
                raise ProtocolError(
                    "JSON frame payload must be an object, got "
                    f"{type(message).__name__}"
                )
            return message
        raise ProtocolError(f"unknown binary frame type 0x{kind:02x}")

    def split(self, buffer: bytes) -> tuple[list[bytes], bytes, str | None]:
        frames = []
        pos = 0
        end = len(buffer)
        while end - pos >= 4:
            size = int.from_bytes(buffer[pos : pos + 4], "little")
            if size < 1 or size > MAX_FRAME_BYTES:
                return (
                    frames,
                    buffer[pos:],
                    f"binary frame of {size} bytes exceeds "
                    f"{MAX_FRAME_BYTES} bytes",
                )
            if end - pos - 4 < size:
                break
            pos += 4 + size
            frames.append(buffer[pos - size : pos])
        return frames, buffer[pos:], None

    def join(self, frames: list[bytes], tail: bytes) -> bytes:
        return b"".join(len(f).to_bytes(4, "little") + f for f in frames) + tail

    def parse_canonical_read(self, frame: bytes):
        if len(frame) == 25 and frame[0] == FRAME_READ:
            return _ST_READ.unpack_from(frame, 1)
        return None

    def encode_read_outcome(self, outcome, rid) -> bytes:
        # A cache hit on a canonical read frame never reaches decode(),
        # where the decode counter normally ticks.
        perf.counters.net_codec_binary_frames_decoded += 1
        case = _CASE_CODE.get(outcome.esr_case, -1)
        if case >= 0 and _is_u64(rid):
            perf.counters.net_codec_binary_frames_encoded += 1
            return _PK_VALUE.pack(
                26, FRAME_OK_VALUE, outcome.value, outcome.inconsistency, case, rid
            )
        response: dict[str, Any] = {
            "ok": True,
            "value": outcome.value,
            "inconsistency": outcome.inconsistency,
            "esr_case": outcome.esr_case,
        }
        if rid is not None:
            response["id"] = rid
        return self.encode_response(response)


JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()

#: The codec registry: negotiable name -> codec singleton.
CODECS: dict[str, Codec] = {
    JSON_CODEC.name: JSON_CODEC,
    BINARY_CODEC.name: BINARY_CODEC,
}

#: Codecs a stock server offers, in preference order.
SUPPORTED_CODECS = (BINARY_CODEC.name, JSON_CODEC.name)


class FrameReader:
    """Blocking buffered reader of one codec's frames over a socket."""

    def __init__(self, sock: socket.socket, codec: Codec = JSON_CODEC):
        self._sock = sock
        self._codec = codec
        self._frames: deque[bytes] = deque()
        self._tail = b""
        self._too_large: str | None = None

    def switch(self, codec: Codec) -> None:
        """Read ``codec`` from here on — losslessly: what was already
        received and split under the old codec is put back first."""
        self._tail = self._codec.join(list(self._frames), self._tail)
        self._frames.clear()
        self._codec = codec

    def read_message(self) -> dict[str, Any] | None:
        """The next decoded message, or None at a clean EOF."""
        frame = self.read_frame()
        if frame is None:
            return None
        return self._codec.decode(frame)

    def read_frame(self) -> bytes | None:
        """The next complete frame (delimiter stripped), or None at EOF."""
        while not self._frames:
            if self._too_large is not None:
                raise ProtocolError(self._too_large)
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._tail:
                    raise ProtocolError(f"connection closed mid-{self._codec.unit}")
                return None
            frames, self._tail, self._too_large = self._codec.split(
                self._tail + chunk
            )
            self._frames.extend(frames)
        return self._frames.popleft()


def negotiate_hello(
    message: dict[str, Any],
    supported: tuple[str, ...] = SUPPORTED_CODECS,
) -> tuple[Codec, dict[str, Any]]:
    """Answer one ``hello`` request; returns ``(chosen codec, response)``.

    The client's ``codecs`` list is walked in *client* preference order;
    the first name the server supports wins.  When nothing matches (or
    the list is missing/malformed) the connection stays on JSON and the
    downgrade is counted — the client keeps working either way.
    """
    requested = message.get("codecs")
    if not isinstance(requested, (list, tuple)):
        requested = []
    chosen: Codec = JSON_CODEC
    for name in requested:
        if isinstance(name, str) and name in supported and name in CODECS:
            chosen = CODECS[name]
            break
    if chosen is JSON_CODEC and any(
        name != JSON_CODEC.name for name in requested
    ):
        perf.counters.net_codec_negotiation_downgrades += 1
    return chosen, {
        "ok": True,
        "codec": chosen.name,
        "version": chosen.version,
    }
