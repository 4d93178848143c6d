"""Client library for the networked prototype.

:class:`RemoteConnection` is one client site: it holds the TCP
connection, synchronises its virtual clock against the server at connect
time, and generates site-stamped timestamps.  :class:`RemoteTransaction`
exposes blocking ``read``/``write`` — satisfying the
:class:`~repro.lang.eval.Session` protocol, so parsed transaction
programs run against a live server via :func:`repro.lang.eval.execute` —
and raises :class:`~repro.errors.TransactionAborted` when the server
rejects an operation.  :meth:`RemoteConnection.run_program` adds the
paper's client loop: resubmit with a fresh timestamp until commit.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.errors import ProtocolError, TransactionAborted
from repro.lang.ast import Program
from repro.lang.compiler import compile_program
from repro.lang.eval import ExecutionResult, execute
from repro.net.clock import VirtualClock
from repro.net.protocol import CODECS, JSON_CODEC, FrameReader

__all__ = ["RemoteConnection", "RemoteTransaction"]


# -- what the blocking and the asyncio client share ---------------------------


def begin_request(
    kind: str,
    bounds: TransactionBounds | EpsilonLevel | float,
    timestamp: Timestamp,
    group_limits: dict[str, float] | None,
    object_limits: dict[int, float] | None,
) -> tuple[float, dict[str, Any]]:
    """``(limit, message)`` for one ``begin``; ``bounds`` may be a limit
    number, a :class:`TransactionBounds`, or an :class:`EpsilonLevel`."""
    if isinstance(bounds, EpsilonLevel):
        bounds = bounds.transaction
    if isinstance(bounds, TransactionBounds):
        limit = bounds.import_limit if kind == "query" else bounds.export_limit
    else:
        limit = float(bounds)
    return limit, {
        "op": "begin",
        "kind": kind,
        "limit": limit,
        "timestamp": list(timestamp),
        "group_limits": group_limits or {},
        "object_limits": {str(k): v for k, v in (object_limits or {}).items()},
    }


def begun_transaction(response: dict[str, Any]) -> int:
    """The id a ``begin`` response assigned, or the refusal as an error."""
    if not response.get("ok"):
        raise ProtocolError(
            f"begin failed: {response.get('error')!r} {response.get('detail')!r}"
        )
    return int(response["txn"])


def check_response(txn: Any, response: dict[str, Any]) -> None:
    """Raise what a refused operation of ``txn`` means; an ``aborted``
    also marks it finished.  Both clients' transaction classes bind this
    as their ``_check`` method."""
    if response.get("ok"):
        return
    error = response.get("error")
    if error == "aborted":
        txn.finished = True
        raise TransactionAborted(
            response.get("detail") or "transaction aborted by server",
            transaction_id=txn.txn_id,
            reason=response.get("reason"),
        )
    raise ProtocolError(f"server error {error!r}: {response.get('detail')!r}")


class RemoteTransaction:
    """A live transaction on a remote server (a blocking Session)."""

    _check = check_response

    def __init__(
        self,
        connection: "RemoteConnection",
        txn_id: int,
        kind: str,
        limit: float = 0.0,
    ):
        self._connection = connection
        self.txn_id = txn_id
        self.kind = kind
        self.limit = limit
        self.finished = False
        #: Inconsistency imported/exported so far, as reported per op.
        self.inconsistency = 0.0
        # Min/max viewed per object, for the section 5.3.2 aggregate check.
        self._ranges: dict[int, tuple[float, float]] = {}

    def read(self, object_id: int) -> float:
        response = self._connection._request(
            {"op": "read", "txn": self.txn_id, "object": object_id}
        )
        self._check(response)
        self.inconsistency += float(response.get("inconsistency") or 0.0)
        value = float(response["value"])
        low, high = self._ranges.get(object_id, (value, value))
        self._ranges[object_id] = (min(low, value), max(high, value))
        return value

    def aggregate_guard(self, name: str, object_ids: list[int]) -> None:
        """Client-side section 5.3.2 check for non-sum aggregates."""
        from repro.core.accounting import ValueRange
        from repro.core.aggregates import aggregate_bounds

        ranges = {}
        for object_id in object_ids:
            pair = self._ranges.get(object_id)
            if pair is None:
                continue
            value_range = ValueRange(pair[0])
            value_range.observe(pair[1])
            ranges[object_id] = value_range
        if not ranges:
            return
        envelope = aggregate_bounds(name, ranges)
        if not envelope.within(self.limit):
            self.abort()
            raise TransactionAborted(
                f"{name} result inconsistency {envelope.inconsistency:g} "
                f"exceeds TIL {self.limit:g}",
                transaction_id=self.txn_id,
                reason="aggregate-bound-violation",
            )

    def write(self, object_id: int, value: float) -> None:
        response = self._connection._request(
            {"op": "write", "txn": self.txn_id, "object": object_id, "value": value}
        )
        self._check(response)
        self.inconsistency += float(response.get("inconsistency") or 0.0)

    def commit(self) -> None:
        response = self._connection._request(
            {"op": "commit", "txn": self.txn_id}
        )
        self._check(response)
        self.finished = True

    def abort(self) -> None:
        if self.finished:
            return
        response = self._connection._request({"op": "abort", "txn": self.txn_id})
        self._check(response)
        self.finished = True

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.finished:
            if exc_type is None:
                self.commit()
            else:
                try:
                    self.abort()
                except (ProtocolError, OSError):
                    pass


class RemoteConnection:
    """One client site connected to a transaction server."""

    def __init__(
        self,
        host: str,
        port: int,
        site: int = 1,
        timeout: float = 60.0,
        codec: str = "json",
    ):
        if codec not in CODECS:
            raise ValueError(
                f"unknown codec {codec!r}; choose from {sorted(CODECS)}"
            )
        self.site = site
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # Requests are tiny; don't let Nagle hold one back for an ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._codec = JSON_CODEC
        self._reader = FrameReader(self._sock)
        self._next_id = 0
        #: The codec actually in effect after negotiation.  Stays
        #: ``"json"`` when the server declines (or predates) ``hello``.
        self.negotiated_codec = "json"
        self.clock = VirtualClock()
        self._synchronize_clock()
        if codec != JSON_CODEC.name:
            self._request_codec(codec)
        self._timestamps = TimestampGenerator(site=site, clock=self.clock.now)

    # -- plumbing -----------------------------------------------------------------

    def _request_codec(self, name: str) -> None:
        # An old server answers hello with ``unknown-op`` — not ok, so the
        # connection simply stays on JSON and everything keeps working.
        response = self._request({"op": "hello", "codecs": [name]})
        if response.get("ok") and response.get("codec") == name:
            self._codec = CODECS[name]
            self._reader.switch(self._codec)
            self.negotiated_codec = name

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        codec = self._codec
        rid = None
        if codec is not JSON_CODEC:
            # Binary fixed layouts carry a correlation id; this client is
            # strictly serial, so tag each request and verify the echo.
            self._next_id += 1
            rid = self._next_id
            message = dict(message)
            message["id"] = rid
        self._sock.sendall(codec.encode_request(message))
        response = self._reader.read_message()
        if response is None:
            raise ProtocolError("server closed the connection")
        if rid is not None:
            echoed = response.pop("id", None)
            if echoed != rid:
                raise ProtocolError(
                    f"response id {echoed!r} does not match request id {rid}"
                )
        return response

    def _synchronize_clock(self) -> None:
        sent = time.time()
        response = self._request({"op": "time"})
        received = time.time()
        if not response.get("ok"):
            raise ProtocolError("server refused the time request")
        self.clock.synchronize(float(response["time"]), sent, received)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transactions ----------------------------------------------------------------

    def begin(
        self,
        kind: str,
        bounds: TransactionBounds | EpsilonLevel | float = 0.0,
        group_limits: dict[str, float] | None = None,
        object_limits: dict[int, float] | None = None,
        timestamp: Timestamp | None = None,
    ) -> RemoteTransaction:
        """Begin a transaction; ``bounds`` may be a limit number, a
        :class:`TransactionBounds`, or an :class:`EpsilonLevel`.

        ``timestamp`` overrides the synchronized-clock timestamp — tests
        use it to pin the ordering between transactions from different
        connections, whose clocks may disagree by a few milliseconds.
        """
        if timestamp is None:
            timestamp = self._timestamps.next()
        limit, message = begin_request(
            kind, bounds, timestamp, group_limits, object_limits
        )
        txn_id = begun_transaction(self._request(message))
        return RemoteTransaction(self, txn_id, kind, limit=limit)

    def run_program(
        self,
        program: Program,
        max_retries: int = 1000,
        backoff_base: float = 0.001,
        backoff_cap: float = 0.25,
        backoff_seed: int | None = None,
    ) -> tuple[ExecutionResult, int]:
        """The paper's client loop: resubmit until the program commits.

        Aborted attempts back off with capped exponential delays —
        ``min(backoff_cap, backoff_base * 2**attempt)`` scaled by a
        deterministic jitter factor in [0.5, 1.0) drawn from a
        ``random.Random`` seeded with ``backoff_seed`` (default: this
        connection's site id, so concurrent sites desynchronise without
        losing reproducibility) — instead of resubmitting in a tight
        loop.  After ``max_retries`` aborted attempts the final
        :class:`~repro.errors.TransactionAborted` is raised with reason
        ``"retry-exhausted"``.

        Returns the final :class:`ExecutionResult` and the number of
        aborted attempts that preceded the commit.
        """
        import random

        compiled = compile_program(program)
        jitter = random.Random(
            self.site if backoff_seed is None else backoff_seed
        )
        restarts = 0
        while True:
            txn = self.begin(
                compiled.kind,
                compiled.bounds,
                group_limits=compiled.group_limits,
                object_limits=compiled.object_limits,
            )
            try:
                result = execute(program, txn)
            except TransactionAborted:
                restarts += 1
                if restarts > max_retries:
                    raise TransactionAborted(
                        f"program did not commit within {max_retries} retries",
                        reason="retry-exhausted",
                    ) from None
                delay = min(
                    backoff_cap, backoff_base * (2.0 ** (restarts - 1))
                )
                time.sleep(delay * (0.5 + 0.5 * jitter.random()))
                continue
            if result.aborted_by_program:
                txn.abort()
            else:
                txn.commit()
            return result, restarts
