"""The transaction manager: begin / read / write / commit / abort.

This is the server's brain (paper section 6): it owns the database, the
concurrency-control decisions (SR or ESR), the wait registry, and the
performance counters.  It is runtime-agnostic — purely synchronous calls
that never block; waiting and retrying are the hosting runtime's job:

* :meth:`read` / :meth:`write` return a
  :class:`~repro.engine.results.Granted`,
  :class:`~repro.engine.results.MustWait` or
  :class:`~repro.engine.results.Rejected` outcome;
* a ``MustWait`` means "retry this exact operation after the blocking
  transaction completes" — subscribe via :attr:`waits` (the paper's
  "wait based protocol", section 4);
* a ``Rejected`` outcome has **already aborted the transaction** (the
  paper's protocol: a failed operation aborts the transaction, which the
  client resubmits under a fresh timestamp).

Protocols: ``"esr"`` runs the enhanced decisions of
:mod:`repro.engine.esr`; ``"sr"`` runs the plain strict-TSO baseline.
ESR with all bounds at zero admits only zero-divergence relaxations and is
behaviourally the SR case of the paper's experiments.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.database import Database
from repro.engine.esr import esr_read_decision, esr_write_decision
from repro.engine.history import HistoryRecorder
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_CLIENT_ABORT
from repro.engine.results import Granted, MustWait, Outcome, Rejected
from repro.engine.scheduler import WaitRegistry
from repro.engine.snapshot import SnapshotStore, snapshot_read
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.engine.tso import sr_read_decision, sr_write_decision
from repro.errors import InvalidOperation, SpecificationError

__all__ = ["PROTOCOLS", "TransactionManager"]

PROTOCOLS = ("esr", "sr")

#: ``begin``'s ``kind`` argument, resolved without an enum call.
_KINDS = {member.value: member for member in TransactionKind}
_KINDS.update({member: member for member in TransactionKind})

_NO_BOUNDS = TransactionBounds()
_ACTIVE = TransactionStatus.ACTIVE


class TransactionManager:
    """Coordinates transactions over one :class:`Database`."""

    def __init__(
        self,
        database: Database,
        protocol: str = "esr",
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        snapshot_cache: bool = False,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        if protocol not in PROTOCOLS:
            raise SpecificationError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOLS}"
            )
        self.database = database
        self.protocol = protocol
        self._esr = protocol == "esr"
        # Operations look ids up without a call and fall back to
        # Database.get only to raise UnknownObjectError.
        self._objects = database.by_id()
        #: The unified history seam: every decision is reported here and
        #: the metrics totals are *derived* from those reports (see
        #: :mod:`repro.engine.history`).  A sharded composite hands each
        #: inner engine a shard-tagged view of its shared recorder.
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = HistoryRecorder(metrics, record=record_history)
        self.metrics = self.recorder.metrics
        self.waits = WaitRegistry()
        self._timestamps = timestamps if timestamps is not None else TimestampGenerator()
        self._next_id = 1
        self._active: dict[int, TransactionState] = {}
        #: Opt-in snapshot read cache (ESR only): committed state is
        #: published beside the live objects so bounded-staleness query
        #: reads can be served via :meth:`read_cached` without the full
        #: engine decision path (and, in the servers, without the engine
        #: critical section).
        if snapshot_cache and protocol == "esr":
            self.snapshot: SnapshotStore | None = SnapshotStore(database.catalog)
            self.snapshot.bootstrap(database)
        else:
            self.snapshot = None

    # -- lifecycle ---------------------------------------------------------------

    def begin(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None = None,
        timestamp: Timestamp | None = None,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
    ) -> TransactionState:
        """Start a transaction; assigns its id and (if needed) timestamp."""
        kind = _KINDS.get(kind) or TransactionKind(kind.lower())
        if bounds is None:
            bounds = _NO_BOUNDS
        elif isinstance(bounds, EpsilonLevel):
            bounds = bounds.transaction
        if timestamp is None:
            timestamp = self._timestamps.next()
        txn = TransactionState(
            transaction_id=self._next_id,
            kind=kind,
            timestamp=timestamp,
            bounds=bounds,
            catalog=self.database.catalog,
            group_limits=group_limits,
            object_limits=object_limits,
        )
        self._next_id += 1
        self._active[txn.transaction_id] = txn
        self.recorder.begin(txn)
        return txn

    def adopt(self, txn: TransactionState) -> None:
        """Register an externally-built transaction as active here.

        Used by :class:`~repro.engine.sharded.ShardedEngine`, which
        allocates transaction ids and timestamps globally and hands each
        shard a sibling :class:`TransactionState` sharing the global
        transaction's accounts.
        """
        self._active[txn.transaction_id] = txn

    def active_transactions(self) -> tuple[TransactionState, ...]:
        return tuple(self._active.values())

    # -- operations -----------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        """Submit a Read; applies effects on success, aborts on rejection."""
        if txn.status is not _ACTIVE:
            txn.require_active()
        obj = self._objects.get(object_id)
        if obj is None:
            obj = self.database.get(object_id)
        timestamp = txn.timestamp
        is_query = txn.is_query
        if is_query:
            # The value the read would have returned without concurrent
            # updates: the divergence base of Cases 1 and 2 and what the
            # reader registry keeps for a later Case 3.
            proper = obj.proper_value_for(timestamp)
            if self._esr:
                outcome = esr_read_decision(obj, txn, proper)
            else:
                outcome = sr_read_decision(obj, txn)
        else:
            # An update ET's read is never relaxed: SR decides it under both.
            proper = 0.0
            outcome = sr_read_decision(obj, txn)
        kind = type(outcome)
        if kind is Granted:
            obj.record_read(txn.transaction_id, timestamp, is_query, proper)
            txn.read_set.add(object_id)
            txn.operations += 1
            if outcome.esr_case is not None:
                txn.inconsistent_operations += 1
            if is_query and outcome.value is not None:
                txn.account.observe_value(object_id, outcome.value)
            self.recorder.read(txn, object_id, outcome)
        elif kind is MustWait:
            self.recorder.wait(
                txn, "read", object_id, outcome.blocking_transaction
            )
        else:
            self._reject(txn, "read", object_id, outcome)
        return outcome

    def read_cached(self, txn: TransactionState, object_id: int) -> Granted | None:
        """Try to serve a query read from the snapshot cache.

        Returns a :class:`Granted` when the snapshot holds the object and
        the staleness (plus any in-flight uncommitted delta) fits the
        transaction's whole bound hierarchy, charging exactly as
        :meth:`read` would; returns ``None`` when the caller should fall
        back to :meth:`read`.  Never aborts and never waits — the cache
        is a pure fast path.  Unlike :meth:`read`, a cache hit does not
        touch the live object (no read-timestamp bump, no query-reader
        registration), so it cannot trigger Case-3 export charges.
        """
        store = self.snapshot
        if store is None:
            return None
        outcome = snapshot_read(store, txn, object_id)
        if outcome is not None:
            # The event carries the staleness the cache actually charged
            # (``outcome.inconsistency``), flagged as cache-served.
            self.recorder.read(txn, object_id, outcome, cached=True)
        return outcome

    def write(self, txn: TransactionState, object_id: int, value: float) -> Outcome:
        """Submit a Write; stages it on success, aborts on rejection."""
        if txn.status is not _ACTIVE:
            txn.require_active()
        if not txn.is_update:
            raise InvalidOperation(
                f"query transaction {txn.transaction_id} cannot write",
                txn.transaction_id,
            )
        obj = self._objects.get(object_id)
        if obj is None:
            obj = self.database.get(object_id)
        if self._esr:
            outcome = esr_write_decision(obj, txn, value)
        else:
            outcome = sr_write_decision(obj, txn)
        kind = type(outcome)
        if kind is Granted:
            obj.stage_write(txn.transaction_id, txn.timestamp, value)
            if self.snapshot is not None:
                self.snapshot.note_pending(obj)
            txn.write_set.add(object_id)
            txn.operations += 1
            if outcome.esr_case is not None:
                txn.inconsistent_operations += 1
            self.recorder.write(txn, object_id, value, outcome)
        elif kind is MustWait:
            self.recorder.wait(
                txn, "write", object_id, outcome.blocking_transaction
            )
        else:
            self._reject(txn, "write", object_id, outcome)
        return outcome

    def _reject(
        self,
        txn: TransactionState,
        op: str,
        object_id: int | None,
        outcome: Rejected,
    ) -> None:
        self.recorder.rejection(txn, op, object_id, outcome)
        self._finish(txn, TransactionStatus.ABORTED, outcome.reason)

    # -- completion ------------------------------------------------------------------

    def commit(self, txn: TransactionState) -> None:
        """Commit: promote staged writes, release readers, wake waiters."""
        if txn.status is not _ACTIVE:
            txn.require_active()
        self._promote(txn)
        total = txn.account.total  # a query's import, an update's export
        if txn.is_query:
            self.recorder.commit(txn, total, 0.0)
        else:
            self.recorder.commit(txn, 0.0, total)
        self._finish(txn, TransactionStatus.COMMITTED, None)

    def _promote(self, txn: TransactionState) -> None:
        """Promote staged writes to committed state (the commit effects)."""
        for object_id in txn.write_set:
            obj = self._objects[object_id]
            obj.commit_write()
            if self.snapshot is not None:
                self.snapshot.publish(obj)

    def complete(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None = None,
    ) -> None:
        """Apply a completion decided elsewhere, without recording metrics.

        The sharded composite decides commit/abort once globally and then
        completes each shard's sibling through this hook: state effects
        (write promotion or shadow restore, reader release, lock release,
        wait wake-ups) happen per shard, while commit/abort counters are
        recorded exactly once by the composite.
        """
        if status is TransactionStatus.COMMITTED:
            self._promote(txn)
        self._finish(txn, status, reason, record=False)

    def abort(
        self, txn: TransactionState, reason: str = REASON_CLIENT_ABORT
    ) -> None:
        """Abort: restore shadow values, release readers, wake waiters.

        Idempotent for transactions the manager already aborted (a
        rejection auto-aborts; a client calling ``abort`` afterwards is a
        no-op).  Aborting a committed transaction is an error.
        """
        if txn.status is TransactionStatus.ABORTED:
            return
        if txn.status is TransactionStatus.COMMITTED:
            raise InvalidOperation(
                f"cannot abort committed transaction {txn.transaction_id}",
                txn.transaction_id,
            )
        self._finish(txn, TransactionStatus.ABORTED, reason)

    def _finish(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
        record: bool = True,
    ) -> None:
        if status is TransactionStatus.ABORTED:
            for object_id in txn.write_set:
                obj = self._objects[object_id]
                if obj.writer_id == txn.transaction_id:
                    obj.abort_write()
                    if self.snapshot is not None:
                        self.snapshot.clear_pending(obj)
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        if txn.is_query:
            for object_id in txn.read_set:
                self._objects[object_id].forget_reader(txn.transaction_id)
        txn.status = status
        self._active.pop(txn.transaction_id, None)
        self.waits.fire(txn.transaction_id)

    def __repr__(self) -> str:
        return (
            f"TransactionManager(protocol={self.protocol!r}, "
            f"active={len(self._active)}, objects={len(self.database)})"
        )
