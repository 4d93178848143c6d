"""Two-phase-locking divergence control — the Wu et al. alternative.

The paper builds ESR on timestamp ordering; its reference [21] builds
the same correctness notion on strict 2PL ("divergence control").  This
manager implements that engine behind the *same interface* as
:class:`~repro.engine.manager.TransactionManager` — begin / read /
write / commit / abort returning Granted / MustWait / Rejected, waits
routed through a :class:`~repro.engine.scheduler.WaitRegistry` — so the
simulator and the networked server host either engine unchanged, and
the two can be compared head-to-head on identical workloads.

Lock semantics:

* reads take S locks, writes take X locks, all held to end of
  transaction (strict 2PL); aborts restore shadow values;
* **import relaxation** — a query whose S request hits an update's X
  lock may *read through* the lock (no lock taken): it sees the staged
  value, charging ``|staged - committed|`` against its
  OIL/group/TIL hierarchy.  This is the lock-world twin of the paper's
  case 2;
* **export relaxation** — an update whose X request hits query S locks
  may write *past* them, charging ``|new value - what the
  readers saw|`` (max over readers, the paper's rule) against its
  OEL/group/TEL.  The twin of case 3;
* update reads, and write-write conflicts, are never relaxed (the
  paper's consistent-update-ET setting);
* unlike TSO's age-ordered waits, 2PL waits can deadlock.  Before a
  transaction parks, the manager walks the wait-for relation; if the
  new edge would close a cycle the requester is rejected (deadlock
  victim) and restarts with the client's usual resubmission loop.

Rejections for deadlock carry reason ``"deadlock"`` — a category the
TSO engine never produces, which the comparison benchmark surfaces.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.core.divergence import export_divergence, import_divergence
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.locks import LockTable
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_CLIENT_ABORT, REASON_DEADLOCK
from repro.engine.results import (
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Outcome,
    Rejected,
)
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import InvalidOperation

__all__ = ["REASON_DEADLOCK", "TwoPhaseManager"]


class TwoPhaseManager:
    """Strict-2PL divergence control over one :class:`Database`."""

    def __init__(
        self,
        database: Database,
        relaxed: bool = True,
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        self.database = database
        #: With ``relaxed`` False this is plain strict 2PL (the SR
        #: baseline in lock form); bounds are ignored entirely.
        self.relaxed = relaxed
        #: Registry name (see :mod:`repro.engine.api`).
        self.protocol = "2pl" if relaxed else "2pl-sr"
        #: No snapshot read cache on the lock-based engines.
        self.snapshot = None
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = HistoryRecorder(metrics, record=record_history)
        self.metrics = self.recorder.metrics
        self.waits = WaitRegistry()
        self.locks = LockTable()
        self._timestamps = (
            timestamps if timestamps is not None else TimestampGenerator()
        )
        self._next_id = 1
        self._active: dict[int, TransactionState] = {}

    # -- lifecycle ------------------------------------------------------------------

    def begin(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None = None,
        timestamp: Timestamp | None = None,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
    ) -> TransactionState:
        """Start a transaction (interface-compatible with the TSO manager)."""
        if isinstance(kind, str):
            kind = TransactionKind(kind.lower())
        if bounds is None:
            bounds = TransactionBounds()
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
        """Register an externally-built transaction (sharding hook)."""
        self._active[txn.transaction_id] = txn

    def active_transactions(self) -> tuple[TransactionState, ...]:
        return tuple(self._active.values())

    def read_cached(self, txn: TransactionState, object_id: int) -> None:
        """No snapshot cache on the 2PL engines — always fall back."""
        return None

    # -- deadlock handling -----------------------------------------------------------

    def _park_or_break(
        self, txn: TransactionState, blocker: int, op: str, object_id: int
    ) -> Outcome:
        """Wait on ``blocker`` unless that edge would close a cycle."""
        seen = {txn.transaction_id}
        node: int | None = blocker
        while node is not None:
            if node in seen:
                outcome = Rejected(
                    REASON_DEADLOCK,
                    detail=(
                        f"waiting for transaction {blocker} would deadlock "
                        f"transaction {txn.transaction_id}"
                    ),
                )
                self._reject(txn, op, object_id, outcome)
                return outcome
            seen.add(node)
            node = self.waits.waiting_on(node)
        self.recorder.wait(txn, op, object_id, blocker)
        return MustWait(blocker)

    # -- operations -------------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        """Submit a read; S lock, or an import-relaxed read-through."""
        txn.require_active()
        obj = self.database.get(object_id)
        blocker = self.locks.acquire_shared(txn.transaction_id, object_id)
        if blocker is None:
            value = (
                obj.uncommitted_value
                if obj.writer_id == txn.transaction_id
                else obj.committed_value
            )
            return self._granted_read(txn, obj, Granted(value=value))
        account = txn.import_account if self.relaxed else None
        if account is not None:
            # Import relaxation: read through the writer's X lock.
            present = obj.present_value
            proper = obj.committed_value
            d = import_divergence(present, proper)
            oil = txn.effective_object_limit(
                object_id, obj.bounds.import_limit
            )
            charge = account.admit(object_id, d, oil)
            if charge.admitted:
                case = CASE_READ_UNCOMMITTED if d > 0 else None
                return self._granted_read(
                    txn, obj, Granted(value=present, inconsistency=d, esr_case=case)
                )
        return self._park_or_break(txn, blocker, "read", object_id)

    def write(self, txn: TransactionState, object_id: int, value: float) -> Outcome:
        """Submit a write; X lock, or an export-relaxed write-past."""
        txn.require_active()
        if not txn.is_update:
            raise InvalidOperation(
                f"query transaction {txn.transaction_id} cannot write",
                txn.transaction_id,
            )
        obj = self.database.get(object_id)
        blocker = self.locks.acquire_exclusive(txn.transaction_id, object_id)
        if blocker is None:
            return self._granted_write(txn, obj, value, Granted())
        blocking_txn = self._active.get(blocker)
        if (
            self.relaxed
            and blocking_txn is not None
            and blocking_txn.is_query
            and self.locks.exclusive_holder(object_id)
            in (None, txn.transaction_id)
        ):
            # Export relaxation: every blocking holder is a query reader;
            # charge the worst divergence this write exports to them.
            readers = [
                self._active[holder]
                for holder in self.locks.shared_holders(object_id)
                if holder != txn.transaction_id
                and self._active.get(holder) is not None
            ]
            if all(reader.is_query for reader in readers):
                seen_values = list(obj.query_readers.values()) or [
                    obj.committed_value
                ]
                d = export_divergence(value, seen_values)
                oel = txn.effective_object_limit(
                    object_id, obj.bounds.export_limit
                )
                charge = txn.account.admit(object_id, d, oel)
                if charge.admitted:
                    granted = self.locks.acquire_exclusive(
                        txn.transaction_id,
                        object_id,
                        ignore={r.transaction_id for r in readers},
                    )
                    assert granted is None
                    case = CASE_LATE_WRITE if d > 0 else None
                    return self._granted_write(
                        txn, obj, value, Granted(inconsistency=d, esr_case=case)
                    )
                # Export budget exhausted: unlike a late TSO write, a lock
                # conflict is curable by waiting for the readers to finish.
        return self._park_or_break(txn, blocker, "write", object_id)

    # -- effects --------------------------------------------------------------------

    def _granted_read(
        self, txn: TransactionState, obj, outcome: Granted
    ) -> Granted:
        proper = obj.committed_value if txn.is_query else 0.0
        obj.record_read(
            txn.transaction_id, txn.timestamp, txn.is_query, proper
        )
        txn.read_set.add(obj.object_id)
        txn.operations += 1
        if outcome.esr_case is not None:
            txn.inconsistent_operations += 1
        if txn.is_query and outcome.value is not None:
            txn.account.observe_value(obj.object_id, outcome.value)
        self.recorder.read(txn, obj.object_id, outcome)
        return outcome

    def _granted_write(
        self, txn: TransactionState, obj, value: float, outcome: Granted
    ) -> Granted:
        obj.stage_write(txn.transaction_id, txn.timestamp, value)
        txn.write_set.add(obj.object_id)
        txn.operations += 1
        if outcome.esr_case is not None:
            txn.inconsistent_operations += 1
        self.recorder.write(txn, obj.object_id, value, outcome)
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

    # -- completion -------------------------------------------------------------------

    def commit(self, txn: TransactionState) -> None:
        txn.require_active()
        self._promote(txn)
        self.recorder.commit(txn)
        self._finish(txn, TransactionStatus.COMMITTED, None)

    def _promote(self, txn: TransactionState) -> None:
        for object_id in txn.write_set:
            self.database.get(object_id).commit_write()

    def complete(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None = None,
    ) -> None:
        """Apply a completion decided by the sharded composite (no metrics)."""
        if status is TransactionStatus.COMMITTED:
            self._promote(txn)
        self._finish(txn, status, reason, record=False)

    def abort(
        self, txn: TransactionState, reason: str = REASON_CLIENT_ABORT
    ) -> None:
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
                obj = self.database.get(object_id)
                if obj.writer_id == txn.transaction_id:
                    obj.abort_write()
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        if txn.is_query:
            for object_id in txn.read_set:
                self.database.get(object_id).forget_reader(txn.transaction_id)
        self.locks.release_all(txn.transaction_id)
        txn.status = status
        self._active.pop(txn.transaction_id, None)
        self.waits.fire(txn.transaction_id)

    def __repr__(self) -> str:
        return (
            f"TwoPhaseManager(relaxed={self.relaxed}, "
            f"active={len(self._active)}, objects={len(self.database)})"
        )
