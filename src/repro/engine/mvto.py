"""Multi-version timestamp ordering — the baseline section 5.1 contrasts.

The paper keeps a per-object list of the last 20 committed writes and is
careful to say its scheme "is not the same as multi-version timestamp
ordering (MVTO).  In the MVTO case, timestamped versions are maintained
so that if a read operation arrives late, based on the versions, the
value written by the last write with a timestamp lesser than this read
is returned.  However in our case, the value read is the value of the
current instance of the object … the [older] value is only used in
determining the amount of inconsistency."

This module implements that contrasted system, behind the same manager
interface as the TSO and 2PL engines, so the three can be compared on
identical workloads:

* a read returns the newest *committed* version older than the reader's
  timestamp — late readers silently get old data instead of either
  aborting (SR) or importing bounded inconsistency (ESR).  Query reads
  therefore never abort and never wait;
* each version tracks the largest read timestamp that observed it; a
  write is rejected when it would invalidate such an observation
  (a reader with a newer timestamp already read the version this write
  would supersede);
* a write older than an existing committed version is also rejected
  (no rewriting history);
* writes conflict on uncommitted writes as usual (strict: wait).

MVTO queries are perfectly serializable — but the answer they give is
*as of the query's start*, growing staler the longer the query runs.
ESR's pitch against MVTO is exactly that trade: bounded-error *current*
data versus exact *old* data (plus MVTO's version storage).  The
comparison benchmark measures both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_CLIENT_ABORT
from repro.engine.results import (
    Granted,
    MustWait,
    Outcome,
    Rejected,
    REASON_LATE_WRITE,
)
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import GENESIS, Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import InvalidOperation, UnknownObjectError

__all__ = ["MVTOManager"]


@dataclass
class _Version:
    """One committed version: write timestamp, value, newest read stamp."""

    wts: Timestamp
    value: float
    rts: Timestamp


class _MVObject:
    """Version chain plus at most one staged (uncommitted) write.

    Chains are trimmed to ``max_versions`` (oldest first) — the storage
    cost the paper's scheme avoids by keeping only the current instance;
    a reader older than everything retained gets the oldest version.
    """

    __slots__ = (
        "versions",
        "writer_id",
        "staged_wts",
        "staged_value",
        "max_versions",
    )

    def __init__(self, initial: float, max_versions: int = 64):
        self.versions: list[_Version] = [_Version(GENESIS, initial, GENESIS)]
        self.writer_id: int | None = None
        self.staged_wts: Timestamp = GENESIS
        self.staged_value = 0.0
        self.max_versions = max(1, max_versions)

    def version_for(self, ts: Timestamp) -> _Version:
        """Newest committed version with wts < ts (chain is wts-sorted)."""
        for version in reversed(self.versions):
            if version.wts < ts:
                return version
        return self.versions[0]

    def install(self, wts: Timestamp, value: float) -> None:
        """Insert a committed version keeping the chain sorted by wts."""
        index = len(self.versions)
        while index > 0 and self.versions[index - 1].wts > wts:
            index -= 1
        self.versions.insert(index, _Version(wts, value, GENESIS))
        if len(self.versions) > self.max_versions:
            del self.versions[: len(self.versions) - self.max_versions]

    @property
    def latest_value(self) -> float:
        return self.versions[-1].value


class MVTOManager:
    """Multi-version timestamp ordering over one :class:`Database`.

    Interface-compatible with the TSO and 2PL managers.  Transaction
    bounds are accepted and ignored — MVTO is a serializable system; it
    needs no epsilon.  The manager keeps its own version store seeded
    from the database and writes committed values back through the
    database objects so snapshots remain coherent.
    """

    def __init__(
        self,
        database: Database,
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        self.database = database
        #: Registry name (see :mod:`repro.engine.api`).
        self.protocol = "mvto"
        #: No snapshot read cache — MVTO's version store is its own cache.
        self.snapshot = None
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = HistoryRecorder(metrics, record=record_history)
        self.metrics = self.recorder.metrics
        self.waits = WaitRegistry()
        self._timestamps = (
            timestamps if timestamps is not None else TimestampGenerator()
        )
        self._next_id = 1
        self._active: dict[int, TransactionState] = {}
        self._store: dict[int, _MVObject] = {
            object_id: _MVObject(database.get(object_id).committed_value)
            for object_id in database.object_ids()
        }

    def _object(self, object_id: int) -> _MVObject:
        try:
            return self._store[object_id]
        except KeyError:
            raise UnknownObjectError(f"no object with id {object_id}") from None

    # -- lifecycle ------------------------------------------------------------------

    def begin(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None = None,
        timestamp: Timestamp | None = None,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
    ) -> TransactionState:
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
        """No snapshot cache on MVTO — always fall back to :meth:`read`."""
        return None

    # -- operations -------------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        """Version-appropriate read; never waits or aborts for queries.

        An update reading must still see *its own* staged write; reads of
        other transactions' uncommitted data do not exist in MVTO (only
        committed versions are readable), which is what makes the read
        path wait-free.
        """
        txn.require_active()
        obj = self._object(object_id)
        if obj.writer_id == txn.transaction_id:
            value = obj.staged_value
        else:
            version = obj.version_for(txn.timestamp)
            value = version.value
            if txn.timestamp > version.rts:
                version.rts = txn.timestamp
        txn.read_set.add(object_id)
        txn.operations += 1
        outcome = Granted(value=value)
        self.recorder.read(txn, object_id, outcome)
        return outcome

    def write(self, txn: TransactionState, object_id: int, value: float) -> Outcome:
        txn.require_active()
        if not txn.is_update:
            raise InvalidOperation(
                f"query transaction {txn.transaction_id} cannot write",
                txn.transaction_id,
            )
        obj = self._object(object_id)
        if obj.writer_id is not None and obj.writer_id != txn.transaction_id:
            if txn.timestamp > obj.staged_wts:
                self.recorder.wait(txn, "write", object_id, obj.writer_id)
                return MustWait(obj.writer_id)
            outcome = Rejected(
                REASON_LATE_WRITE,
                detail=(
                    f"write ts {txn.timestamp} is older than pending write "
                    f"ts {obj.staged_wts} on object {object_id}"
                ),
            )
            self._reject(txn, object_id, outcome)
            return outcome
        predecessor = obj.version_for(txn.timestamp)
        if predecessor.rts > txn.timestamp:
            # A newer reader already observed the predecessor: installing
            # this version would retroactively invalidate that read.
            outcome = Rejected(
                REASON_LATE_WRITE,
                detail=(
                    f"version of object {object_id} read at "
                    f"{predecessor.rts} cannot be superseded by write ts "
                    f"{txn.timestamp}"
                ),
            )
            self._reject(txn, object_id, outcome)
            return outcome
        obj.writer_id = txn.transaction_id
        obj.staged_wts = txn.timestamp
        obj.staged_value = float(value)
        txn.write_set.add(object_id)
        txn.operations += 1
        outcome = Granted()
        self.recorder.write(txn, object_id, value, outcome)
        return outcome

    def _reject(
        self, txn: TransactionState, object_id: int, outcome: Rejected
    ) -> None:
        self.recorder.rejection(txn, "write", object_id, outcome)
        self._finish(txn, TransactionStatus.ABORTED, outcome.reason)

    # -- completion -------------------------------------------------------------------

    def commit(self, txn: TransactionState) -> None:
        txn.require_active()
        self._promote(txn)
        self.recorder.commit(txn, imported=0.0, exported=0.0)
        self._finish(txn, TransactionStatus.COMMITTED, None)

    def _promote(self, txn: TransactionState) -> None:
        for object_id in txn.write_set:
            obj = self._object(object_id)
            if obj.writer_id != txn.transaction_id:
                continue
            obj.install(obj.staged_wts, obj.staged_value)
            obj.writer_id = None
            # Mirror the newest value into the plain database object so
            # snapshots and examples see a coherent committed state.
            db_obj = self.database.get(object_id)
            db_obj.stage_write(txn.transaction_id, obj.staged_wts, obj.latest_value)
            db_obj.commit_write()

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
                obj = self._object(object_id)
                if obj.writer_id == txn.transaction_id:
                    obj.writer_id = None
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        txn.status = status
        self._active.pop(txn.transaction_id, None)
        self.waits.fire(txn.transaction_id)

    def __repr__(self) -> str:
        return (
            f"MVTOManager(active={len(self._active)}, "
            f"objects={len(self._store)})"
        )
