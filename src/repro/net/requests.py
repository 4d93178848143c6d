"""Runtime-agnostic request handling shared by both network servers.

The threaded server (:mod:`repro.net.server`) and the asyncio server
(:mod:`repro.net.aioserver`) speak the identical wire protocol, enforced
by building every response through this module.  What differs between
them is *waiting*: the engine answers
:class:`~repro.engine.results.MustWait` synchronously, and each runtime
parks the blocked operation its own way (a ``threading.Event`` on a
worker thread, an ``asyncio.Event`` on the loop).  So the split is:

* :func:`submit_request` — parse one request, run it against any
  :class:`~repro.engine.api.Engine`, and return either a complete
  response dict or a :class:`NeedsWait` marker;
* :func:`retry_operation` — re-run a parked operation after its blocker
  completed (again a response or another :class:`NeedsWait`);
* :func:`abort_on_timeout` — give up on a parked operation whose blocker
  never finished.

Callers must serialise all three against the engine (the threaded
server's mutex, or the asyncio server's single-threaded loop) — unless
the engine declares ``thread_safe`` (the sharded composite), which takes
its own per-shard locks internally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.bounds import TransactionBounds
from repro.engine.api import Engine
from repro.engine.results import Granted, MustWait, Rejected
from repro.engine.timestamps import Timestamp
from repro.engine.transactions import TransactionState
from repro.errors import InvalidOperation, UnknownObjectError

__all__ = [
    "NeedsWait",
    "submit_request",
    "submit_batch",
    "retry_operation",
    "abort_on_timeout",
    "attach_id",
    "try_cached_read",
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


def try_cached_read(
    manager: Engine,
    message: dict[str, Any],
    sessions: dict[int, TransactionState],
) -> dict[str, Any] | None:
    """Serve a read from the snapshot cache, bypassing the engine path.

    Returns a complete response dict on a cache hit, or ``None`` when the
    request is not a cacheable read (wrong op, unknown transaction,
    malformed object id) or the cache declined (unpublished object, bound
    does not fit, read-your-writes) — the caller then falls through to
    the normal :func:`submit_request` path, which re-executes the read
    under the engine critical section.

    The hit path never mutates the live database and never aborts, so —
    unlike :func:`submit_request` — callers may invoke it *outside* the
    engine critical section, provided operations of one transaction stay
    ordered (both servers already serialise per connection).
    """
    if manager.snapshot is None or message.get("op") != "read":
        return None
    txn = sessions.get(message.get("txn", -1))
    if txn is None:
        return None
    try:
        object_id = int(message["object"])
    except (KeyError, TypeError, ValueError):
        return None
    outcome = manager.read_cached(txn, object_id)
    if outcome is None:
        return None
    return {
        "ok": True,
        "value": outcome.value,
        "inconsistency": outcome.inconsistency,
        "esr_case": outcome.esr_case,
    }


def submit_request(
    manager: Engine,
    message: dict[str, Any],
    sessions: dict[int, TransactionState],
) -> dict[str, Any] | NeedsWait:
    """Execute one request; never blocks (waits surface as NeedsWait)."""
    op = message.get("op")
    txn = None
    try:
        if op in ("read", "write", "commit", "abort"):
            txn = sessions.get(message.get("txn", -1))
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

    The asyncio server's off-loop dispatch hands a whole drained tick's
    worth of one connection's messages to the executor lane in a single
    hop, so the per-submission thread handoff amortises across the
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
            return {
                "ok": True,
                "value": outcome.value,
                "inconsistency": outcome.inconsistency,
                "esr_case": outcome.esr_case,
            }
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
