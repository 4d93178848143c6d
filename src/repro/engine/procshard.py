"""The worker-process shard transport: one forked engine per shard.

The thread backend of :class:`~repro.engine.sharded.ShardedEngine`
partitions work but not the GIL — its shard threads serialise on the
interpreter lock.  :class:`WorkerShard` is the composite's other
backend: the same four-call shard seam (``operate`` / ``complete`` /
``wait_edge`` / ``close``), with the shard's inner engine living in its
own **process** behind a framed RPC over a ``socketpair``.  Everything
per-transaction that exists once — ids, timestamps, the accounts, the
commit decision, waits, failover — stays in the composite; this module
holds only what it takes to run one shard's engine somewhere else.

**Why the accounts can travel.**  The thread backend makes TIL/TEL/GIL
accounting atomic across shards with one lock per transaction on its
:class:`~repro.core.accounting.InconsistencyAccount`.  A lock cannot
span processes, but it is not needed: every engine decision charges only
the *operating* transaction's own account, and one transaction's
operations are serialised by its client connection (the threaded server
runs a connection on one handler thread; the asyncio server pins a
connection to one dispatch lane).  So the canonical accounts stay in the
parent, on the global transaction, and a copy rides along with each
operation in three layers:

1. **Delta account sync.**  The parent versions each transaction's
   canonical account state and remembers which version every shard
   worker last acknowledged (:class:`_TxnSync`).  An op frame then
   carries one of three sync shapes: *none* (the worker already holds
   the current version — the common case, since a consistent operation
   charges nothing), *delta* (only the ledger levels, per-object charges
   and value ranges that changed since the worker's version; account
   state is monotone so a delta is just the changed entries), or *full*
   (first touch of a shard, or the resync fallback).  The worker checks
   the base version on every frame; on a mismatch it answers ``resync``
   *without executing* and the parent re-sends the op with a full dump.
   Reply state rides the same scheme: the worker diffs its sibling's
   account around the engine call and returns only the delta (or
   nothing).  Charges an in-process shard made directly on the canonical
   accounts (a failed-over neighbour) are picked up by the accounts' own
   change tracking and folded in as one more delta.
2. **Op batching.**  :class:`_WorkerChannel` is a flat-combining point:
   concurrent callers append their op to a pending queue, and whichever
   caller takes the channel lock first becomes the leader, draining
   *every* pending op into one batch frame, paying one round-trip, and
   distributing the replies.  Under the servers' concurrency the
   syscall/framing cost amortises across the batch; a lone caller
   degenerates to exactly one op per round-trip.
3. **Binary frames.**  Hot shapes (op headers, granted/must-wait
   replies, completion headers, wait notes) are struct-packed in the
   idiom of :mod:`repro.net.protocol`'s ``binary-1`` codec — a u32
   length prefix, a type byte, fixed little-endian layouts — with pickle
   kept as the tagged long tail (descriptors, sync payloads, rejections,
   exceptions).  The channel enforces the same 1 MiB frame cap as the
   net codec: a worker answers an oversized or unknown frame with a
   typed error and keeps serving instead of dying (which would trigger
   a spurious shard failover), and torn frames surface as
   :class:`~repro.errors.ShardChannelError` rather than bare
   struct/pickle errors.

Complete items ride the same batch frames as ops; each worker applies
the usual ``complete`` hook and a commit reply carries the ``{object_id:
(value, write_ts)}`` pairs the promotion produced, which
:meth:`WorkerShard.complete` adopts into the parent's objects (reports,
tests and failover all read coherent committed state there).

**Waits and deadlock edges.**  Workers never park anything: ``MustWait``
propagates to the parent and hosts subscribe against the composite's
registry.  ``wait_edge`` posts each parked edge and each completion as a
struct-packed note frame, which the worker mirrors into a local registry
so the 2PL engines' deadlock walk sees cross-shard cycles.

**Metrics.**  Worker engines record into throwaway local collectors;
:class:`WorkerShard` re-records every outcome it relays (granted
read/write with the ESR case, wait, rejection and its abort) through
the composite's recorder, so histories and snapshots match a bare
manager's on the same trace.  Worker-side :mod:`repro.perf` counters
stay in the worker and are not aggregated; the parent's ``rpc_*``
counters meter the channel itself.

**Loss.**  A dead worker (EOF, a torn frame, a refused resync) and a
worker that raised while applying a completion both surface as
:class:`~repro.errors.ShardChannelError`; the composite answers by
swapping the slot's backend for an in-process shard.

Forking happens in :func:`fork_shards`, so build the engine before
starting server threads (both servers construct their engine before
binding).  The snapshot read cache is not supported on worker shards —
the cache publishes from inside the engine critical section, which now
lives in another process — and ``validate_protocol_options`` rejects the
combination.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import weakref
from collections import deque

from repro.engine.api import build_unsharded, protocol_spec
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.results import (
    CASE_LATE_READ,
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Outcome,
    Rejected,
)
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import Timestamp
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import ProtocolError, ShardChannelError
from repro.net.protocol import MAX_FRAME_BYTES
from repro.perf import counters as _perf

__all__ = ["WorkerShard", "fork_shards", "process_sharding_unavailable"]

# -- wire format ---------------------------------------------------------------
#
# Every frame is `u32le size | u8 type | payload(size-1)`; size counts the
# type byte.  Struct layouts are little-endian fixed shapes, matching the
# binary-1 net codec idiom; anything cold rides a length-prefixed pickle.

_HEADER = struct.Struct("<I")
#: Struct-packed one-way note: sub-type plus two transaction ids.
_NOTE = struct.Struct("<Bqq")
#: Items per batch frame.
_COUNT = struct.Struct("<I")
_U32 = struct.Struct("<I")
_2U32 = struct.Struct("<II")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: Op item header: txn id, opcode, object id, value, flags.
_OP_HEAD = struct.Struct("<qBqdB")
#: Complete item header: txn id, status, has-reason.
_COMPLETE_HEAD = struct.Struct("<qBB")

_FT_BATCH = 0x01  # parent -> worker: op/complete items
_FT_BATCH_REPLY = 0x02  # worker -> parent: one reply per item
_FT_NOTE = 0x03  # parent -> worker: wait_note / wakeup / shutdown
_FT_ERROR = 0x04  # worker -> parent: typed refusal (frame not executed)

_NOTE_WAIT = 0
_NOTE_WAKEUP = 1
_NOTE_SHUTDOWN = 2

_IT_OP = 1
_IT_COMPLETE = 2

_RT_OK = 1
_RT_COMMITTED = 2
_RT_ERR = 3
_RT_RESYNC = 4

_OUT_GRANTED = 0
_OUT_MUSTWAIT = 1
_OUT_PICKLED = 2

_SYNC_NONE = 0
_SYNC_DELTA = 1
_SYNC_FULL = 2
_SYNC_CODES = {"none": _SYNC_NONE, "delta": _SYNC_DELTA, "full": _SYNC_FULL}
_SYNC_NAMES = {code: name for name, code in _SYNC_CODES.items()}

_OP_READ = 0
_OP_WRITE = 1

_STATUS_CODES = {
    TransactionStatus.COMMITTED.value: 0,
    TransactionStatus.ABORTED.value: 1,
}
_STATUS_NAMES = {code: value for value, code in _STATUS_CODES.items()}

_CASE_CODES = {CASE_LATE_READ: 1, CASE_READ_UNCOMMITTED: 2, CASE_LATE_WRITE: 3}
_CASE_NAMES = {code: case for case, code in _CASE_CODES.items()}

#: Bounded EINTR retries before a read is declared torn.
_MAX_EINTR_RETRIES = 64
#: A claimed frame size past this is stream corruption, not a big frame —
#: the worker gives up (parent fails the shard over) instead of trying
#: to discard gigabytes.
_STREAM_CEILING = 1 << 30
#: The leader splits a combined batch so no single frame exceeds the cap
#: (headroom for the count prefix).
_BATCH_BYTE_LIMIT = MAX_FRAME_BYTES - 1024


# -- framing -------------------------------------------------------------------


def _send_frame(sock: socket.socket, ftype: int, payload: bytes) -> None:
    data = _HEADER.pack(1 + len(payload)) + bytes((ftype,)) + payload
    sock.sendall(data)
    _perf.rpc_bytes_sent += len(data)


def _recv_exact(
    sock: socket.socket, n: int, *, shard: int | None = None, pending: int = 0
) -> bytes:
    """Read exactly ``n`` bytes, tolerating EINTR and partial reads.

    A signal-interrupted read is retried up to :data:`_MAX_EINTR_RETRIES`
    times (then declared torn with a typed :class:`ShardChannelError`
    carrying the shard and pending-op context); a clean EOF raises
    ``EOFError`` as before, which the op path treats as a dead worker.
    """
    chunks: list[bytes] = []
    remaining = n
    interrupts = 0
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except InterruptedError:
            interrupts += 1
            if interrupts > _MAX_EINTR_RETRIES:
                raise ShardChannelError(
                    "shard channel read interrupted "
                    f"{interrupts} times without progress",
                    shard,
                    pending,
                ) from None
            continue
        if not chunk:
            raise EOFError("shard channel closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    if len(chunks) == 1:
        return chunks[0]
    return b"".join(chunks)


def _recv_typed(
    sock: socket.socket, *, shard: int | None = None, pending: int = 0
) -> tuple[int, bytes]:
    """Parent-side receive: one typed frame, torn frames become typed errors."""
    header = _recv_exact(sock, _HEADER.size, shard=shard, pending=pending)
    (size,) = _HEADER.unpack(header)
    if size < 1 or size > _STREAM_CEILING:
        raise ShardChannelError(
            f"torn shard frame: claimed {size} bytes", shard, pending
        )
    body = _recv_exact(sock, size, shard=shard, pending=pending)
    _perf.rpc_bytes_received += _HEADER.size + size
    return body[0], body[1:]


def _append_pickled(out: bytearray, obj: object) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out += _U32.pack(len(payload))
    out += payload


def _read_pickled(payload: bytes, offset: int) -> tuple[object, int]:
    (length,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    obj = pickle.loads(payload[offset : offset + length])
    return obj, offset + length


# -- batch item encoding -------------------------------------------------------
#
# Parent-side items are small tagged tuples; the wire shape packs the hot
# header fields and pickles only the cold payloads (descriptor, sync
# state, rejections, exceptions).
#
#   ("op", txn_id, opcode, object_id, value, descriptor|None, sync_in)
#       sync_in: ("none", version)
#              | ("delta", from_version, to_version, account_delta)
#              | ("full", version, account_dump)
#   ("complete", txn_id, status_value, reason|None)
#
# Replies:
#   ("ok", outcome, account_delta|None)
#   ("committed", {object_id: (value, write_ts)})
#   ("err", exception)
#   ("resync", worker_version|None)


def _encode_item(item: tuple) -> bytes:
    out = bytearray()
    if item[0] == "op":
        _, txn_id, opcode, object_id, value, descriptor, sync_in = item
        flags = _SYNC_CODES[sync_in[0]] << 1
        if descriptor is not None:
            flags |= 1
        out += bytes((_IT_OP,))
        out += _OP_HEAD.pack(txn_id, opcode, object_id, value, flags)
        if descriptor is not None:
            _append_pickled(out, descriptor)
        if sync_in[0] == "none":
            out += _U32.pack(sync_in[1])
        elif sync_in[0] == "delta":
            out += _2U32.pack(sync_in[1], sync_in[2])
            _append_pickled(out, sync_in[3])
        else:
            out += _U32.pack(sync_in[1])
            _append_pickled(out, sync_in[2])
    else:
        _, txn_id, status_value, reason = item
        out += bytes((_IT_COMPLETE,))
        out += _COMPLETE_HEAD.pack(
            txn_id, _STATUS_CODES[status_value], 0 if reason is None else 1
        )
        if reason is not None:
            encoded = reason.encode("utf-8")
            out += _U32.pack(len(encoded))
            out += encoded
    return bytes(out)


def _decode_batch(payload: bytes) -> list[tuple]:
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    items: list[tuple] = []
    for _ in range(count):
        itype = payload[offset]
        offset += 1
        if itype == _IT_OP:
            txn_id, opcode, object_id, value, flags = _OP_HEAD.unpack_from(
                payload, offset
            )
            offset += _OP_HEAD.size
            descriptor = None
            if flags & 1:
                descriptor, offset = _read_pickled(payload, offset)
            tag = _SYNC_NAMES[(flags >> 1) & 0x3]
            if tag == "none":
                (version,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                sync_in: tuple = ("none", version)
            elif tag == "delta":
                from_version, to_version = _2U32.unpack_from(payload, offset)
                offset += _2U32.size
                delta, offset = _read_pickled(payload, offset)
                sync_in = ("delta", from_version, to_version, delta)
            else:
                (version,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                dump, offset = _read_pickled(payload, offset)
                sync_in = ("full", version, dump)
            items.append(
                ("op", txn_id, opcode, object_id, value, descriptor, sync_in)
            )
        elif itype == _IT_COMPLETE:
            txn_id, status, has_reason = _COMPLETE_HEAD.unpack_from(
                payload, offset
            )
            offset += _COMPLETE_HEAD.size
            reason = None
            if has_reason:
                (length,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                reason = payload[offset : offset + length].decode("utf-8")
                offset += length
            items.append(("complete", txn_id, _STATUS_NAMES[status], reason))
        else:
            raise ProtocolError(f"unknown batch item type {itype}")
    return items


def _encode_outcome(out: bytearray, outcome: Outcome) -> None:
    if type(outcome) is Granted:
        case = outcome.esr_case
        code = _CASE_CODES.get(case, 0) if case is not None else 0
        packable = (case is None and outcome.inconsistency == 0.0) or code
        if not packable:
            out += bytes((_OUT_PICKLED,))
            _append_pickled(out, outcome)
            return
        flags = 0
        if outcome.value is not None:
            flags |= 1
        if case is not None:
            flags |= 2
        out += bytes((_OUT_GRANTED, flags))
        if outcome.value is not None:
            out += _F64.pack(outcome.value)
        if case is not None:
            out += _F64.pack(outcome.inconsistency)
            out += bytes((code,))
    elif type(outcome) is MustWait:
        out += bytes((_OUT_MUSTWAIT,))
        out += _I64.pack(outcome.blocking_transaction)
    else:
        out += bytes((_OUT_PICKLED,))
        _append_pickled(out, outcome)


def _decode_outcome(payload: bytes, offset: int) -> tuple[Outcome, int]:
    kind = payload[offset]
    offset += 1
    if kind == _OUT_GRANTED:
        flags = payload[offset]
        offset += 1
        value = None
        inconsistency = 0.0
        case = None
        if flags & 1:
            (value,) = _F64.unpack_from(payload, offset)
            offset += _F64.size
        if flags & 2:
            (inconsistency,) = _F64.unpack_from(payload, offset)
            offset += _F64.size
            case = _CASE_NAMES[payload[offset]]
            offset += 1
        return Granted(value, inconsistency, case), offset
    if kind == _OUT_MUSTWAIT:
        (blocker,) = _I64.unpack_from(payload, offset)
        return MustWait(blocker), offset + _I64.size
    outcome, offset = _read_pickled(payload, offset)
    return outcome, offset


def _encode_reply_item(reply: tuple) -> bytes:
    out = bytearray()
    kind = reply[0]
    if kind == "ok":
        out += bytes((_RT_OK,))
        _encode_outcome(out, reply[1])
        sync_out = reply[2]
        if sync_out is None:
            out += bytes((_SYNC_NONE,))
        else:
            out += bytes((_SYNC_DELTA,))
            _append_pickled(out, sync_out)
    elif kind == "committed":
        out += bytes((_RT_COMMITTED,))
        _append_pickled(out, reply[1])
    elif kind == "resync":
        out += bytes((_RT_RESYNC,))
        version = reply[1]
        out += bytes((0,)) if version is None else bytes((1,)) + _U32.pack(
            version
        )
    else:
        out += bytes((_RT_ERR,))
        _append_pickled(out, reply[1])
    return bytes(out)


def _decode_batch_reply(payload: bytes) -> list[tuple]:
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    replies: list[tuple] = []
    for _ in range(count):
        rtype = payload[offset]
        offset += 1
        if rtype == _RT_OK:
            outcome, offset = _decode_outcome(payload, offset)
            if payload[offset] == _SYNC_NONE:
                sync_out = None
                offset += 1
            else:
                offset += 1
                sync_out, offset = _read_pickled(payload, offset)
            replies.append(("ok", outcome, sync_out))
        elif rtype == _RT_COMMITTED:
            committed, offset = _read_pickled(payload, offset)
            replies.append(("committed", committed))
        elif rtype == _RT_RESYNC:
            if payload[offset]:
                (version,) = _U32.unpack_from(payload, offset + 1)
                offset += 1 + _U32.size
                replies.append(("resync", version))
            else:
                offset += 1
                replies.append(("resync", None))
        elif rtype == _RT_ERR:
            error, offset = _read_pickled(payload, offset)
            replies.append(("err", error))
        else:
            raise ProtocolError(f"unknown batch reply type {rtype}")
    return replies


# -- worker side ---------------------------------------------------------------


class _MirrorWaitRegistry(WaitRegistry):
    """Worker-local registry fed by the parent's wait_note/wakeup frames.

    Nothing subscribes inside a worker (waiting is the parent's job); the
    registry exists so the 2PL deadlock walk — ``waits.waiting_on(node)``
    — sees the cross-shard wait-for edges the parent observed.
    """

    def note(self, waiter: int, blocker: int) -> None:
        self._waiting_on[waiter] = blocker


def _build_sibling(
    engine, descriptor: dict, siblings: dict[int, TransactionState]
) -> TransactionState:
    sibling = TransactionState(
        transaction_id=descriptor["transaction_id"],
        kind=TransactionKind(descriptor["kind"]),
        timestamp=descriptor["timestamp"],
        bounds=descriptor["bounds"],
        catalog=engine.database.catalog,
        group_limits=descriptor["group_limits"],
        object_limits=descriptor["object_limits"],
    )
    engine.adopt(sibling)
    # Track changes incrementally so each op's reply delta costs
    # O(changed entries) — no per-op state dumps in the worker.
    sibling.account.track_changes()
    siblings[sibling.transaction_id] = sibling
    return sibling


def _handle_op_item(
    engine,
    siblings: dict[int, TransactionState],
    versions: dict[int, int],
    item: tuple,
) -> tuple:
    """One op: sync in, run the engine decision, delta out."""
    _, txn_id, opcode, object_id, value, descriptor, sync_in = item
    sibling = siblings.get(txn_id)
    if sibling is None:
        if descriptor is None:
            # The parent assumed we hold state we do not (e.g. its record
            # of this shard was dropped); ask for a full re-send.
            return ("resync", versions.get(txn_id))
        sibling = _build_sibling(engine, descriptor, siblings)
    tag = sync_in[0]
    held = versions.get(txn_id)
    if tag == "none":
        if held != sync_in[1]:
            return ("resync", held)
    elif tag == "delta":
        if held != sync_in[1]:
            return ("resync", held)
        sibling.account.apply_delta(sync_in[3])
        held = sync_in[2]
        versions[txn_id] = held
    else:  # full
        sibling.account.load_state(sync_in[2])
        held = sync_in[1]
        versions[txn_id] = held
    if opcode == _OP_READ:
        outcome = engine.read(sibling, object_id)
    else:
        outcome = engine.write(sibling, object_id, value)
    if not sibling.is_active:
        # A rejection auto-aborted (and finished) the sibling.
        siblings.pop(txn_id, None)
    sync_out = sibling.account.take_delta()
    if sync_out is not None:
        versions[txn_id] = held + 1
    if txn_id not in siblings:
        versions.pop(txn_id, None)
    return ("ok", outcome, sync_out)


def _handle_complete(
    engine,
    siblings: dict[int, TransactionState],
    versions: dict[int, int],
    txn_id: int,
    status_value: str,
    reason: str | None,
):
    sibling = siblings.pop(txn_id, None)
    versions.pop(txn_id, None)
    if sibling is None:
        return {}
    status = TransactionStatus(status_value)
    if sibling.is_active:
        engine.complete(sibling, status, reason)
    committed: dict[int, tuple[float, Timestamp]] = {}
    if status is TransactionStatus.COMMITTED:
        for object_id in sibling.write_set:
            obj = engine.database.get(object_id)
            committed[object_id] = (obj.committed_value, obj.committed_write_ts)
    return committed


def _handle_item(engine, siblings, versions, item: tuple) -> tuple:
    try:
        if item[0] == "op":
            return _handle_op_item(engine, siblings, versions, item)
        return (
            "committed",
            _handle_complete(
                engine, siblings, versions, item[1], item[2], item[3]
            ),
        )
    except Exception as exc:  # relayed to the caller
        return ("err", exc)


def _recv_worker_frame(sock: socket.socket) -> tuple[int, bytes | None]:
    """Worker-side receive with the 1 MiB cap.

    Returns ``(type, payload)``; an oversized-but-well-framed frame is
    drained and returned as ``(type, None)`` so the loop can answer with
    a typed error instead of dying (a claimed size past the stream
    ceiling is corruption and raises, killing the worker — the parent
    then fails the shard over).
    """
    header = _recv_exact(sock, _HEADER.size)
    (size,) = _HEADER.unpack(header)
    if size < 1 or size > _STREAM_CEILING:
        raise EOFError(f"torn shard frame: claimed {size} bytes")
    ftype = _recv_exact(sock, 1)[0]
    if size > MAX_FRAME_BYTES:
        remaining = size - 1
        while remaining:
            remaining -= len(_recv_exact(sock, min(remaining, 1 << 16)))
        return ftype, None
    return ftype, _recv_exact(sock, size - 1)


def _worker_main(
    sock: socket.socket,
    inherited: list[socket.socket],
    shard_db: Database,
    protocol: str,
) -> None:
    """One shard worker: an ordinary engine behind a frame loop."""
    # Forked children inherit every socketpair created before their fork;
    # close the ones that are not ours so the parent closing a channel
    # produces EOF at its worker instead of lingering in our fd table.
    for other in inherited:
        try:
            other.close()
        except OSError:
            pass
    engine = build_unsharded(shard_db, protocol_spec(protocol))
    engine.waits = _MirrorWaitRegistry()
    siblings: dict[int, TransactionState] = {}
    versions: dict[int, int] = {}
    try:
        while True:
            ftype, payload = _recv_worker_frame(sock)
            if payload is None:
                # Oversized.  Notes are one-way (nobody is reading a
                # reply), so they are dropped; anything else gets the
                # typed refusal its sender is waiting for.
                if ftype != _FT_NOTE:
                    _send_frame(
                        sock,
                        _FT_ERROR,
                        pickle.dumps(
                            ProtocolError(
                                "oversized shard frame refused "
                                f"(cap {MAX_FRAME_BYTES} bytes)"
                            ),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                continue
            if ftype == _FT_BATCH:
                try:
                    items = _decode_batch(payload)
                except Exception as exc:
                    _send_frame(
                        sock,
                        _FT_ERROR,
                        pickle.dumps(
                            ProtocolError(f"undecodable batch frame: {exc}"),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                    continue
                replies = bytearray(_COUNT.pack(len(items)))
                for item in items:
                    replies += _encode_reply_item(
                        _handle_item(engine, siblings, versions, item)
                    )
                _send_frame(sock, _FT_BATCH_REPLY, bytes(replies))
            elif ftype == _FT_NOTE:
                sub, a, b = _NOTE.unpack(payload)
                if sub == _NOTE_WAIT:
                    engine.waits.note(a, b)
                elif sub == _NOTE_WAKEUP:
                    engine.waits.fire(a)
                else:
                    return
            else:
                _send_frame(
                    sock,
                    _FT_ERROR,
                    pickle.dumps(
                        ProtocolError(f"unknown shard frame type {ftype}"),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                )
    except (EOFError, OSError, ShardChannelError):
        return
    finally:
        try:
            sock.close()
        except OSError:
            pass


# -- parent side ---------------------------------------------------------------


class _PendingCall:
    """One caller's item waiting to ride a combined batch frame."""

    __slots__ = ("item", "reply", "error", "event")

    def __init__(self, item: tuple) -> None:
        self.item = item
        self.reply: tuple | None = None
        self.error: BaseException | None = None
        self.event = threading.Event()


class _WorkerChannel:
    """One shard's RPC endpoint: socket + process + a flat-combining lock.

    Callers append their item to the pending queue and then contend for
    the channel lock.  The winner (the *leader*) drains every pending
    item — its own and everyone else's — into one batch frame, pays one
    round-trip, and distributes the replies; the losers find their reply
    already delivered when they get the lock.  Replies pair with items
    positionally, so the lock is held across the whole round-trip and
    one-way posts interleave FIFO-safely on the same socket.
    """

    def __init__(self, sock: socket.socket, process, shard: int) -> None:
        self.sock = sock
        self.process = process
        self.shard = shard
        self.lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: deque[_PendingCall] = deque()
        self.closed = False

    def pending_ops(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def request(self, item: tuple) -> tuple:
        """Ship one op/complete item; returns its decoded reply."""
        call = _PendingCall(item)
        with self._pending_lock:
            self._pending.append(call)
        with self.lock:
            if not call.event.is_set():
                self._service()
        if call.error is not None:
            raise call.error
        assert call.reply is not None
        return call.reply

    def _service(self) -> None:
        """Leader duty: drain the pending queue, one frame per group."""
        with self._pending_lock:
            batch = list(self._pending)
            self._pending.clear()
        if not batch:
            return
        if self.closed:
            error = EOFError("shard channel closed")
            for call in batch:
                call.error = error
                call.event.set()
            return
        # Split only when a combined frame would blow the 1 MiB cap.
        group: list[tuple[_PendingCall, bytes]] = []
        size = _COUNT.size
        for call in batch:
            encoded = _encode_item(call.item)
            if group and size + len(encoded) > _BATCH_BYTE_LIMIT:
                self._round_trip(group)
                group = []
                size = _COUNT.size
            group.append((call, encoded))
            size += len(encoded)
        if group:
            self._round_trip(group)

    def _round_trip(self, group: list[tuple[_PendingCall, bytes]]) -> None:
        calls = [call for call, _ in group]
        frame = _COUNT.pack(len(calls)) + b"".join(data for _, data in group)
        try:
            _send_frame(self.sock, _FT_BATCH, frame)
            ftype, payload = _recv_typed(
                self.sock, shard=self.shard, pending=len(calls)
            )
            if ftype == _FT_ERROR:
                # A typed refusal: the worker is alive and executed
                # nothing; surface the error without killing the channel.
                error = pickle.loads(payload)
                for call in calls:
                    call.error = error
                    call.event.set()
                return
            if ftype != _FT_BATCH_REPLY:
                raise ShardChannelError(
                    f"unexpected shard reply frame type {ftype}",
                    self.shard,
                    len(calls),
                )
            replies = _decode_batch_reply(payload)
            if len(replies) != len(calls):
                raise ShardChannelError(
                    f"batch reply count mismatch "
                    f"({len(replies)} != {len(calls)})",
                    self.shard,
                    len(calls),
                )
        except (OSError, EOFError, ShardChannelError) as exc:
            for call in calls:
                call.error = exc
                call.event.set()
            return
        except Exception as exc:  # undecodable reply bytes = torn stream
            error = ShardChannelError(
                f"undecodable batch reply: {exc}", self.shard, len(calls)
            )
            for call in calls:
                call.error = error
                call.event.set()
            return
        _perf.rpc_ops += len(calls)
        _perf.rpc_round_trips += 1
        _perf.rpc_batched_ops += len(calls)
        for call, reply in zip(calls, replies):
            call.reply = reply
            call.event.set()

    def post_note(self, sub: int, a: int = 0, b: int = 0) -> None:
        with self.lock:
            if self.closed:
                return
            _send_frame(self.sock, _FT_NOTE, _NOTE.pack(sub, a, b))

    def close(self, timeout: float = 1.0) -> None:
        with self.lock:
            if not self.closed:
                self.closed = True
                try:
                    _send_frame(
                        self.sock, _FT_NOTE, _NOTE.pack(_NOTE_SHUTDOWN, 0, 0)
                    )
                except OSError:
                    pass
                try:
                    self.sock.close()
                except OSError:
                    pass
        # Fail anything still queued behind the closed channel.
        with self._pending_lock:
            stranded = list(self._pending)
            self._pending.clear()
        if stranded:
            error = EOFError("shard channel closed")
            for call in stranded:
                call.error = error
                call.event.set()
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout)


def process_sharding_unavailable() -> str | None:
    """Why real process sharding would not help here, or None if it would.

    ``"no-fork"`` — the platform cannot fork (workers inherit their shard
    database and socket by fork; spawn cannot ship the socketpair).
    ``"single-core"`` — forking N workers onto one core only adds IPC
    cost; thread shards are the better backend there.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return "no-fork"
    if (os.cpu_count() or 1) <= 1:
        return "single-core"
    return None


def _merge_delta(accumulator, delta):
    """Fold one ``apply_delta``-shaped delta onto an owned accumulator.

    Delta entries carry *absolute* values (usage per level, per-object
    totals, range extremes), so folding is plain overwrite — applying
    the merged result equals applying each delta in order.  Returns the
    (possibly freshly created) accumulator, a mutable 4-list.
    """
    usage, per_object, operations, ranges = delta
    if accumulator is None:
        return [dict(usage), dict(per_object), operations, dict(ranges)]
    accumulator[0].update(usage)
    accumulator[1].update(per_object)
    if operations is not None:
        accumulator[2] = operations
    accumulator[3].update(ranges)
    return accumulator


class _TxnSync:
    """Parent-side delta-sync bookkeeping for one transaction.

    ``version`` counts the canonical account state's revisions (bumped
    whenever an op's reply delta — or a charge an in-process shard made
    directly — changes it); ``shard_versions`` records the revision each
    worker last acknowledged; ``pending`` accumulates, per lagging
    shard, the merged deltas between that shard's revision and the
    current one, so its next op ships exactly the missed changes.  A
    shard absent from ``shard_versions`` has never been touched — its
    first op carries the descriptor and a full dump.
    """

    __slots__ = ("descriptor", "version", "shard_versions", "pending")

    def __init__(self, txn: TransactionState) -> None:
        #: What a worker needs to build its sibling of the transaction.
        self.descriptor = {
            "transaction_id": txn.transaction_id,
            "kind": txn.kind.value,
            "timestamp": txn.timestamp,
            "bounds": txn.bounds,
            "group_limits": txn.account.declared_group_limits(),
            "object_limits": dict(txn.object_limits) or None,
        }
        self.version = 0
        self.shard_versions: dict[int, int] = {}
        #: shard -> the merged account delta it has missed (a 4-list).
        self.pending: dict[int, list] = {}

    def fall_behind(self, current: int | None, account_delta):
        """The canonical state moved by this delta: every touched shard
        but ``current`` is now one revision behind.  Fold the delta into
        each one's pending accumulator so its next op ships exactly the
        missed changes — O(changed entries), never a dump."""
        pending = self.pending
        for shard in self.shard_versions:
            if shard != current:
                pending[shard] = _merge_delta(pending.get(shard), account_delta)


class WorkerShard:
    """The worker-process shard backend: a channel plus delta sync."""

    def __init__(
        self,
        index: int,
        channel: _WorkerChannel,
        database: Database,
        recorder: HistoryRecorder,
        sync: "weakref.WeakKeyDictionary[TransactionState, _TxnSync]",
    ) -> None:
        self.index = index
        self.channel = channel
        #: The parent's view of this shard: unknown-object checks, and
        #: the mirror that commit replies keep current.
        self.database = database
        self.recorder = recorder
        #: Global transaction -> its sync state, shared by every worker
        #: shard of the engine; an entry lives as long as its transaction.
        self.sync = sync

    @property
    def pid(self) -> int | None:
        """The worker's process id (None once the channel is closed)."""
        return None if self.channel.closed else self.channel.process.pid

    def _request(self, item: tuple) -> tuple:
        try:
            return self.channel.request(item)
        except (OSError, EOFError) as exc:
            raise ShardChannelError(
                f"shard worker lost: {exc}", self.index, 1
            ) from exc

    def operate(
        self, txn: TransactionState, op: str, object_id: int, value: float
    ) -> Outcome:
        self.database.get(object_id)  # unknown-object parity before any RPC
        sync = self.sync.get(txn)
        if sync is None:
            sync = self.sync[txn] = _TxnSync(txn)
            txn.account.track_changes()
        else:
            # Charges made directly on the canonical account since the
            # last worker op (by an in-process, failed-over shard).
            account_delta = txn.account.take_delta()
            if account_delta is not None:
                sync.version += 1
                sync.fall_behind(None, account_delta)
        opcode = _OP_READ if op == "read" else _OP_WRITE
        value = float(value)
        item = self._build_op_item(txn, sync, opcode, object_id, value)
        reply = self._request(item)
        if reply[0] == "resync":
            # Version skew (the worker holds a different revision than
            # our record says — e.g. a dropped acknowledgement): forget
            # the record and re-send with a full dump.
            _perf.rpc_resyncs += 1
            sync.shard_versions.pop(self.index, None)
            sync.pending.pop(self.index, None)
            item = self._build_op_item(txn, sync, opcode, object_id, value)
            reply = self._request(item)
            if reply[0] == "resync":
                raise ShardChannelError(
                    "worker refused a full-dump resync", self.index, 1
                )
        if reply[0] == "err":
            raise reply[1]
        outcome = reply[1]
        self._apply_sync_out(txn, sync, reply[2])
        self._record(txn, op, object_id, value, outcome)
        return outcome

    def _build_op_item(
        self,
        txn: TransactionState,
        sync: _TxnSync,
        opcode: int,
        object_id: int,
        value: float,
    ) -> tuple:
        descriptor = None
        held = sync.shard_versions.get(self.index)
        missed = sync.pending.get(self.index)
        if held == sync.version:
            sync_in: tuple = ("none", sync.version)
            _perf.rpc_sync_none += 1
        elif held is not None and missed is not None:
            sync_in = ("delta", held, sync.version, tuple(missed))
            _perf.rpc_sync_delta += 1
        else:
            if held is None:
                # First touch: ship the sibling descriptor as well.
                descriptor = sync.descriptor
            sync_in = ("full", sync.version, txn.account.dump_state())
            _perf.rpc_sync_full += 1
        return (
            "op",
            txn.transaction_id,
            opcode,
            object_id,
            value,
            descriptor,
            sync_in,
        )

    def _apply_sync_out(
        self,
        txn: TransactionState,
        sync: _TxnSync,
        account_delta: tuple | None,
    ) -> None:
        if account_delta is not None:
            txn.account.apply_delta(account_delta)
            sync.version += 1
            sync.fall_behind(self.index, account_delta)
        # Charged or not, the worker now holds the current revision.
        sync.shard_versions[self.index] = sync.version
        sync.pending.pop(self.index, None)

    def _record(
        self,
        txn: TransactionState,
        op: str,
        object_id: int,
        value: float,
        outcome: Outcome,
    ) -> None:
        """Re-record a relayed outcome exactly as a bare manager would.

        Worker-side recording is discarded; outcome payloads (esr_case,
        charged inconsistency, values) ride the reply frames, so these
        events carry the same information.
        """
        if isinstance(outcome, Granted):
            if op == "read":
                self.recorder.read(txn, object_id, outcome, shard=self.index)
            else:
                self.recorder.write(
                    txn, object_id, value, outcome, shard=self.index
                )
        elif isinstance(outcome, MustWait):
            self.recorder.wait(
                txn,
                op,
                object_id,
                outcome.blocking_transaction,
                shard=self.index,
            )
        elif isinstance(outcome, Rejected):
            # The worker aborted and finished its sibling, as the bare
            # manager's _reject does.
            self.recorder.rejection(
                txn, op, object_id, outcome, shard=self.index
            )
            self.recorder.abort(txn, outcome.reason, shard=self.index)

    def complete(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
    ) -> None:
        reply = self._request(
            ("complete", txn.transaction_id, status.value, reason)
        )
        if reply[0] == "err":
            # The worker's copy of this shard no longer matches what the
            # parent decided (a commit it could not promote): lost state.
            raise ShardChannelError(
                f"worker failed to apply a completion: {reply[1]!r}",
                self.index,
                1,
            )
        if status is TransactionStatus.COMMITTED:
            for object_id, (value, write_ts) in reply[1].items():
                self.database.get(object_id).adopt_committed(value, write_ts)

    def wait_edge(self, waiter: int | None, transaction: int) -> None:
        try:
            if waiter is None:
                self.channel.post_note(_NOTE_WAKEUP, transaction)
            else:
                self.channel.post_note(_NOTE_WAIT, waiter, transaction)
        except OSError:
            pass  # the op path notices the dead worker and fails over

    def close(self, timeout: float = 1.0) -> None:
        self.channel.close(timeout)


def fork_shards(
    databases: list[Database], protocol: str, recorder: HistoryRecorder
) -> list[WorkerShard]:
    """Fork one daemon worker per shard database; return their backends."""
    context = multiprocessing.get_context("fork")
    pairs = [socket.socketpair() for _ in databases]
    sync: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    shards = []
    for index, database in enumerate(databases):
        parent_sock, child_sock = pairs[index]
        inherited = [
            endpoint
            for other, pair in enumerate(pairs)
            if other != index
            for endpoint in pair
        ]
        process = context.Process(
            target=_worker_main,
            args=(child_sock, inherited, database, protocol),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        channel = _WorkerChannel(parent_sock, process, index)
        shards.append(WorkerShard(index, channel, database, recorder, sync))
    for _, child_sock in pairs:
        child_sock.close()
    return shards
