"""ESR-enhanced timestamp-ordering decisions (paper Figure 3).

The enhancement admits, subject to the inconsistency bounds, three kinds of
operations that plain strict TSO would reject or delay:

**Case 1 — late read of committed data.**  A query read arrives with a
timestamp older than the object's last committed write.  SR rejects it;
ESR lets it read the *present* (newer) value, charging the distance to the
*proper* value (the newest committed write older than the query).

**Case 2 — read of uncommitted data.**  A query read finds a pending
uncommitted write.  SR waits (or rejects, if the read is also late); ESR
lets it read the staged value immediately, charging the distance to the
proper value.

**Case 3 — late write past a query read.**  An update's write arrives with
a timestamp older than the object's read timestamp, where that read came
from a query ET.  SR rejects it; ESR lets the write proceed, charging the
update's export account with the divergence this write exports to the
still-uncommitted query readers of the object (maximum over readers under
the paper's rule).

Update-transaction *reads* are consistent — their writes depend on their
reads — and follow the plain SR decision.  Write-write conflicts are never
relaxed.

Admission charges the transaction's inconsistency account (object level,
then every group on the object's path, then the transaction level) as a
side effect; a rejected admission leaves the account untouched.
"""

from __future__ import annotations

from repro.core.divergence import export_divergence, import_divergence
from repro.engine.objects import DataObject
from repro.engine.results import (
    CASE_LATE_READ,
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Outcome,
    Rejected,
    REASON_BOUND_VIOLATION,
    REASON_LATE_READ,
    REASON_LATE_WRITE,
)
from repro.engine.transactions import TransactionState

__all__ = ["esr_read_decision", "esr_write_decision"]


def esr_read_decision(
    obj: DataObject, txn: TransactionState, proper: float
) -> Outcome:
    """Decide a query ET's read under ESR-enhanced TSO.

    The query imports against its TIL.  ``proper`` is its proper value on
    ``obj`` (:meth:`~repro.engine.objects.DataObject.proper_value_for`),
    the divergence base of Cases 1 and 2.  Update ETs read consistently
    (their writes depend on their reads): their reads are decided by
    :func:`~repro.engine.tso.sr_read_decision` under both protocols.
    """
    if obj.writer_id is not None and obj.writer_id != txn.transaction_id:
        # Case 2: a concurrent update has an uncommitted write staged.
        present, case = obj.uncommitted_value, CASE_READ_UNCOMMITTED
    elif obj.writer_id == txn.transaction_id:
        return Granted(obj.uncommitted_value)
    elif txn.timestamp < obj.committed_write_ts:
        # Case 1: the read is late — a newer write already committed.
        present, case = obj.committed_value, CASE_LATE_READ
    else:
        # In-order read of committed data: consistent, nothing to charge.
        return Granted(obj.committed_value)

    d = import_divergence(present, proper)
    oil = txn.effective_object_limit(obj.object_id, obj.bounds.import_limit)
    charge = txn.account.admit(obj.object_id, d, oil)
    if charge.admitted:
        return Granted(present, d, case if d > 0 else None)
    if case is CASE_READ_UNCOMMITTED:
        # Bound violated: fall back to the SR behaviour — wait if the read
        # is younger than the pending write (the writer may yet abort and
        # restore a readable value), reject if it is late anyway.
        if txn.timestamp > obj.writer_ts:
            return MustWait(obj.writer_id)
        return Rejected(
            REASON_BOUND_VIOLATION,
            detail=(
                f"uncommitted read of object {obj.object_id} carries "
                f"inconsistency {d:g} past the {charge.violated_level} limit "
                f"(uncommitted write by transaction {obj.writer_id}, "
                f"delta {abs(present - obj.committed_value):g})"
            ),
            violated_level=charge.violated_level,
        )
    if charge.violated_level is not None:
        return Rejected(
            REASON_BOUND_VIOLATION,
            detail=(
                f"late read of object {obj.object_id} carries "
                f"inconsistency {d:g} past the "
                f"{charge.violated_level} limit"
            ),
            violated_level=charge.violated_level,
        )
    return Rejected(
        REASON_LATE_READ,
        detail=(
            f"read ts {txn.timestamp} is older than committed write "
            f"ts {obj.committed_write_ts} on object {obj.object_id}"
        ),
    )


def esr_write_decision(
    obj: DataObject, txn: TransactionState, new_value: float
) -> Outcome:
    """Decide a write under ESR-enhanced TSO (update ETs only).

    The only relaxed situation is case 3 — a write late with respect to a
    *query* read.  Write-write conflicts and writes late with respect to
    committed writes follow the SR decision unchanged.
    """
    if obj.writer_id is not None and obj.writer_id != txn.transaction_id:
        if txn.timestamp > obj.writer_ts:
            return MustWait(obj.writer_id)
        return Rejected(
            REASON_LATE_WRITE,
            detail=(
                f"write ts {txn.timestamp} is older than pending write "
                f"ts {obj.writer_ts} on object {obj.object_id}"
            ),
        )
    if txn.timestamp < obj.committed_write_ts:
        return Rejected(
            REASON_LATE_WRITE,
            detail=(
                f"write ts {txn.timestamp} is older than committed write "
                f"ts {obj.committed_write_ts} on object {obj.object_id}"
            ),
        )
    if txn.timestamp < obj.read_ts:
        if not obj.last_reader_was_query:
            # The newer read came from an update ET; update reads are
            # consistent, so this conflict cannot be relaxed.
            return Rejected(
                REASON_LATE_WRITE,
                detail=(
                    f"write ts {txn.timestamp} is older than an update-ET "
                    f"read ts {obj.read_ts} on object {obj.object_id}"
                ),
            )
        # Case 3: the write would export inconsistency to the concurrent
        # (still uncommitted) query readers of this object.
        oel = txn.effective_object_limit(obj.object_id, obj.bounds.export_limit)
        d = export_divergence(new_value, obj.query_readers.values())
        charge = txn.account.admit(obj.object_id, d, oel)
        if charge.admitted:
            return Granted(None, d, CASE_LATE_WRITE if d > 0 else None)
        return Rejected(
            REASON_BOUND_VIOLATION,
            detail=(
                f"late write on object {obj.object_id} exports "
                f"inconsistency {d:g} past the {charge.violated_level} limit"
            ),
            violated_level=charge.violated_level,
        )
    # In-order write with no pending conflict.
    return Granted()
