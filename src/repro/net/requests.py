"""Everything about a client connection that is not I/O.

The threaded server (:mod:`repro.net.server`) and the non-blocking
server (:mod:`repro.net.aioserver`) are *transports*: they move bytes, decide
when to run a request and how to wait.  What the bytes mean is decided
here, once, for both:

* :class:`Conversation` — one connection's protocol state, without I/O.
  The transport feeds it the bytes it received; the conversation frames
  them under the codec in effect (:meth:`Codec.split
  <repro.net.protocol.Codec.split>`, size caps included), negotiates
  ``hello``, answers snapshot-cache reads on the spot, and hands back,
  in wire order, responses to send and requests to dispatch.  It also
  owns the session map and aborts what a vanished client left active.
* :func:`submit_request` — parse one request, run it against any
  :class:`~repro.engine.api.Engine`, and return either a complete
  response dict or a :class:`NeedsWait` marker;
* :func:`retry_operation` — re-run a parked operation after its blocker
  completed (again a response or another :class:`NeedsWait`);
* :func:`abort_on_timeout` — give up on a parked operation whose blocker
  never finished.

*Waiting* is the transport's: the engine answers
:class:`~repro.engine.results.MustWait` synchronously, and each runtime
parks the blocked operation its own way (a ``threading.Event`` on a
worker thread, an entry on the ``selectors`` loop's ready list).

Callers must serialise :func:`submit_request`, :func:`retry_operation`,
:func:`abort_on_timeout` and :meth:`Conversation.abandon` against the
engine (the threaded server's mutex, or the non-blocking server's
single loop thread) — unless the engine declares ``thread_safe`` (the
sharded composite), which takes its own per-shard locks internally.
:meth:`Conversation.feed` needs no such care: the only engine call it
makes is the snapshot cache's read of immutable published records.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.core.bounds import TransactionBounds
from repro.engine.api import Engine
from repro.engine.reasons import REASON_CLIENT_DISCONNECTED
from repro.engine.results import Granted, MustWait, Rejected
from repro.engine.timestamps import Timestamp
from repro.engine.transactions import TransactionState
from repro.errors import InvalidOperation, ProtocolError, UnknownObjectError
from repro.net.protocol import JSON_CODEC, Codec, negotiate_hello

__all__ = [
    "Conversation",
    "Failure",
    "NeedsWait",
    "submit_request",
    "submit_batch",
    "retry_operation",
    "abort_on_timeout",
    "attach_id",
]


@dataclass
class NeedsWait:
    """A read/write that must park until ``blocking_transaction`` finishes."""

    txn: TransactionState
    op: str  # "read" | "write"
    object_id: int
    value: float | None
    blocking_transaction: int
    #: The connection's session map, so whichever call finishes the
    #: transaction (a retry, a timeout) can drop its entry.
    sessions: dict[int, TransactionState] = field(repr=False)


def attach_id(response: dict[str, Any], message: dict[str, Any]) -> dict[str, Any]:
    """Echo the request's correlation ``id`` (if any) onto the response.

    Pipelining clients tag requests with an ``id`` and match responses by
    it; requests without one get their responses untagged, which keeps the
    one-at-a-time protocol byte-identical to the pre-pipelining wire.
    Mutates in place — every response dict is freshly built per request.
    """
    if "id" in message:
        response["id"] = message["id"]
    return response


@dataclass(slots=True)
class Failure:
    """A framing-level failure — always the last item of a conversation.

    The transport answers it after everything received before it, then
    closes the connection.
    """

    error: str
    detail: str

    def response(self) -> dict[str, Any]:
        return {"ok": False, "error": self.error, "detail": self.detail}


class Conversation:
    """One client connection's protocol state, without I/O.

    A transport creates one per connection, passes every received chunk
    to :meth:`feed` and acts on what comes back; :meth:`eof` and
    :meth:`abandon` end it.  Both servers hold ``manager`` and ``codecs``
    already — the conversation has no settings of its own.
    """

    __slots__ = (
        "manager", "codecs", "codec", "sessions", "pending_ops", "tail", "failed"
    )

    def __init__(self, manager: Engine, codecs: tuple[str, ...] | None):
        self.manager = manager
        #: Codecs offered to ``hello`` negotiation; None disables it
        #: (``hello`` then earns ``unknown-op``, like any pre-negotiation
        #: server would answer).
        self.codecs = codecs
        #: Wire codec in effect (starts JSON; ``hello`` may switch it).
        self.codec: Codec = JSON_CODEC
        #: Transactions begun on this connection, so a dropped client's
        #: in-flight transactions can be aborted on disconnect.
        self.sessions: dict[int, TransactionState] = {}
        #: Per-transaction count of requests handed to the transport and
        #: not yet :meth:`answered`.  An inline cache answer must not be
        #: given while an earlier operation of the *same* transaction is
        #: still outstanding — that would reorder the transaction's own
        #: execution (e.g. a read overtaking its own pending write).
        self.pending_ops: dict[Any, int] = {}
        self.tail = b""  # received, not yet a complete frame
        self.failed = False  # a Failure was issued; further input is ignored

    def feed(self, data: bytes) -> Iterator["bytes | dict[str, Any] | Failure"]:
        """Take received bytes; yield, in wire order, what they call for.

        * ``bytes`` — an encoded response, ready to send: a ``hello``
          answer or a snapshot-cache hit.  These never enter the
          transport's dispatch path (nor its in-flight window).
        * ``dict`` — a request for the transport to dispatch
          (:func:`submit_request`); it calls :meth:`answered` once the
          response exists.
        * :class:`Failure` — last item; answer in order, then close.
        """
        if self.failed:
            return
        codec = self.codec
        frames, self.tail, too_large = codec.split(self.tail + data)
        manager = self.manager
        cache = manager.snapshot is not None
        pending_ops = self.pending_ops
        for index, frame in enumerate(frames):
            if cache:
                # Inline fast path: answer a bounded-staleness read right
                # here — no dispatch, and for the canonical wire shape no
                # dict either (the frame is parsed and the response
                # formatted at the byte level).  Only when no earlier op
                # of the same transaction is still outstanding
                # (per-transaction order must hold; ops of *other*
                # transactions may be overtaken, which pipelining already
                # allows).
                parsed = codec.parse_canonical_read(frame)
                if parsed is not None and not pending_ops.get(parsed[0], 0):
                    outcome = self._read_cached(parsed[0], parsed[1])
                    if outcome is not None:
                        yield codec.encode_read_outcome(outcome, parsed[2])
                        continue
            try:
                message = codec.decode(frame)
            except ProtocolError as exc:
                yield self._fail("protocol", str(exc))
                return
            if self.codecs is not None and message.get("op") == "hello":
                # Answer on the current codec, then — on a switch — put
                # the rest of this chunk back together exactly (binary
                # frames may contain 0x0A) and read it as the new codec.
                chosen, response = negotiate_hello(message, self.codecs)
                yield codec.encode_response(attach_id(response, message))
                if chosen is not codec:
                    rest = codec.join(frames[index + 1 :], self.tail)
                    self.codec = chosen
                    self.tail = b""
                    yield from self.feed(rest)
                    return
                continue
            txn = message.get("txn")
            try:
                claims = pending_ops.get(txn, 0)
            except TypeError:
                # ``txn`` is a JSON array or object: it can key neither a
                # claim nor a session, and submit_request's own session
                # lookup fails the same way before any engine call — so
                # it words the ``bad-request`` here, outside dispatch.
                response = submit_request(manager, message, self.sessions)
                yield codec.encode_response(attach_id(response, message))
                continue
            if cache and not claims and message.get("op") == "read":
                # Same fast path for a read in any other wire shape
                # (different key order, extra keys): decoded normally,
                # still answered before dispatch.
                try:
                    outcome = self._read_cached(txn, int(message["object"]))
                except (KeyError, TypeError, ValueError):
                    outcome = None  # malformed: dispatch words the refusal
                if outcome is not None:
                    response = _read_response(outcome)
                    yield codec.encode_response(attach_id(response, message))
                    continue
            if txn is not None:
                pending_ops[txn] = claims + 1
            yield message
        if too_large is not None:
            yield self._fail("too_large", too_large)

    def _read_cached(self, txn_id: Any, object_id: int) -> Granted | None:
        """The snapshot cache's answer to a read of this connection, or
        None: no such transaction here, or the cache declined
        (unpublished object, bound does not fit, read-your-writes) — the
        read then goes to dispatch and is re-executed under the engine
        critical section.  A hit never mutates the live database and
        never aborts, which is why it may happen outside that section,
        provided operations of one transaction stay ordered."""
        txn = self.sessions.get(txn_id)
        return None if txn is None else self.manager.read_cached(txn, object_id)

    def answered(self, message: dict[str, Any]) -> None:
        """The transport has the response to a request :meth:`feed`
        yielded: drop its transaction's claim."""
        txn = message.get("txn")
        if txn is None:
            return
        count = self.pending_ops.get(txn, 0) - 1
        if count > 0:
            self.pending_ops[txn] = count
        else:
            self.pending_ops.pop(txn, None)

    def eof(self) -> Failure | None:
        """The peer closed its side; a Failure if that was mid-frame."""
        if self.tail and not self.failed:
            return self._fail("protocol", f"connection closed mid-{self.codec.unit}")
        return None

    def abandon(self) -> None:
        """The connection is gone: abort whatever it left active."""
        for txn in self.sessions.values():
            if txn.is_active:
                self.manager.abort(txn, REASON_CLIENT_DISCONNECTED)
        self.sessions.clear()

    def _fail(self, error: str, detail: str) -> Failure:
        self.failed = True
        self.tail = b""
        return Failure(error, detail)


def submit_request(
    manager: Engine,
    message: dict[str, Any],
    sessions: dict[int, TransactionState],
) -> dict[str, Any] | NeedsWait:
    """Execute one request; never blocks (waits surface as NeedsWait)."""
    op = message.get("op")
    txn = None
    try:
        # Looked up for every op: a ``txn`` that cannot be a key (a JSON
        # array or object) is a ``bad-request`` before the engine is
        # touched, whatever the operation.
        txn = sessions.get(message.get("txn", -1))
        if op in ("read", "write", "commit", "abort"):
            if txn is None:
                return {
                    "ok": False,
                    "error": "unknown-transaction",
                    "detail": f"no transaction {message.get('txn')!r} "
                    "on this connection",
                }
            if op == "read":
                return _resolve(
                    manager,
                    NeedsWait(
                        txn, "read", int(message["object"]), None, -1, sessions
                    ),
                )
            if op == "write":
                return _resolve(
                    manager,
                    NeedsWait(
                        txn,
                        "write",
                        int(message["object"]),
                        float(message["value"]),
                        -1,
                        sessions,
                    ),
                )
            if op == "commit":
                manager.commit(txn)
                sessions.pop(txn.transaction_id, None)
                return {"ok": True}
            manager.abort(txn)
            sessions.pop(txn.transaction_id, None)
            return {"ok": True}
        if op == "begin":
            return _do_begin(manager, message, sessions)
        if op == "time":
            return {"ok": True, "time": time.time()}
        return {
            "ok": False,
            "error": "unknown-op",
            "detail": f"unknown operation {op!r}",
        }
    except (InvalidOperation, UnknownObjectError) as exc:
        if txn is not None and not txn.is_active:
            # Finished behind the client's back (shard failover).
            sessions.pop(txn.transaction_id, None)
        return {"ok": False, "error": "invalid", "detail": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "error": "bad-request", "detail": str(exc)}


def submit_batch(
    manager: Engine,
    messages: list[dict[str, Any]],
    sessions: dict[int, TransactionState],
) -> list[dict[str, Any] | NeedsWait]:
    """Execute several requests of one connection, in order.

    The non-blocking server hands one received chunk's worth of a
    connection's messages to its executor lane in a single hop, so the
    per-submission thread handoff amortises across the
    group; a process-sharded engine underneath additionally coalesces
    the group's shard RPCs into shared batch frames.  Semantics are
    exactly ``[submit_request(m) for m in messages]`` — one reply per
    message, order preserved, waits surfacing as :class:`NeedsWait`.
    """
    return [submit_request(manager, m, sessions) for m in messages]


def retry_operation(
    manager: Engine, pending: NeedsWait
) -> dict[str, Any] | NeedsWait:
    """Re-run a parked operation once its blocker has completed."""
    try:
        return _resolve(manager, pending)
    except (InvalidOperation, UnknownObjectError) as exc:
        if not pending.txn.is_active:
            # Finished behind the parked operation's back (shard failover).
            pending.sessions.pop(pending.txn.transaction_id, None)
        return {"ok": False, "error": "invalid", "detail": str(exc)}


def abort_on_timeout(
    manager: Engine, pending: NeedsWait
) -> dict[str, Any]:
    """Abort a parked operation whose blocker never finished."""
    manager.abort(pending.txn, "wait-timeout")
    pending.sessions.pop(pending.txn.transaction_id, None)
    return {"ok": False, "error": "aborted", "reason": "wait-timeout"}


def _resolve(
    manager: Engine, pending: NeedsWait
) -> dict[str, Any] | NeedsWait:
    txn = pending.txn
    if pending.op == "read":
        outcome = manager.read(txn, pending.object_id)
    else:
        outcome = manager.write(txn, pending.object_id, pending.value)
    if isinstance(outcome, MustWait):
        pending.blocking_transaction = outcome.blocking_transaction
        return pending
    if isinstance(outcome, Granted):
        if pending.op == "read":
            return _read_response(outcome)
        return {
            "ok": True,
            "inconsistency": outcome.inconsistency,
            "esr_case": outcome.esr_case,
        }
    assert isinstance(outcome, Rejected)
    # The engine finished the transaction: the id is as gone as after a
    # commit, and a connection must not accumulate its dead state.
    pending.sessions.pop(txn.transaction_id, None)
    return {
        "ok": False,
        "error": "aborted",
        "reason": outcome.reason,
        "detail": outcome.detail,
    }


def _read_response(outcome: Granted) -> dict[str, Any]:
    return {
        "ok": True,
        "value": outcome.value,
        "inconsistency": outcome.inconsistency,
        "esr_case": outcome.esr_case,
    }


def _do_begin(
    manager: Engine,
    message: dict[str, Any],
    sessions: dict[int, TransactionState],
) -> dict[str, Any]:
    kind = message["kind"]
    limit = float(message.get("limit", 0.0))
    if kind == "query":
        bounds = TransactionBounds(import_limit=limit)
    else:
        bounds = TransactionBounds(export_limit=limit)
    raw_ts = message.get("timestamp")
    timestamp = Timestamp(*raw_ts) if raw_ts is not None else None
    raw_groups = message.get("group_limits")
    group_limits = (
        {str(k): float(v) for k, v in raw_groups.items()} if raw_groups else {}
    )
    raw_objects = message.get("object_limits")
    object_limits = (
        {int(k): float(v) for k, v in raw_objects.items()} if raw_objects else {}
    )
    txn = manager.begin(
        kind,
        bounds,
        timestamp=timestamp,
        group_limits=group_limits,
        object_limits=object_limits,
    )
    sessions[txn.transaction_id] = txn
    return {"ok": True, "txn": txn.transaction_id}
