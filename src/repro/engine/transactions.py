"""Transaction state: kinds, status, and per-transaction accounting.

The paper restricts attention to two kinds of epsilon transactions:

* **query ETs** — read-only, may import bounded inconsistency (TIL);
* **update ETs** — read/write, must read consistently (their writes depend
  on their reads), may export bounded inconsistency (TEL).

A :class:`TransactionState` ties together the identity (id, kind,
timestamp), the limits it declared at BEGIN (transaction bounds, optional
group limits, optional per-object limit overrides), its inconsistency
account for the relevant direction, and the read/write sets the engine
needs for commit/abort processing.
"""

from __future__ import annotations

import enum
from typing import Mapping

from repro.core.accounting import Direction, InconsistencyAccount
from repro.core.bounds import TransactionBounds
from repro.core.hierarchy import GroupCatalog
from repro.engine.timestamps import Timestamp
from repro.errors import InvalidOperation

__all__ = ["TransactionKind", "TransactionStatus", "TransactionState"]


class TransactionKind(enum.Enum):
    QUERY = "query"
    UPDATE = "update"


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionState:
    """All server-side state for one in-flight epsilon transaction."""

    def __init__(
        self,
        transaction_id: int,
        kind: TransactionKind,
        timestamp: Timestamp,
        bounds: TransactionBounds,
        catalog: GroupCatalog,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
    ):
        self.transaction_id = transaction_id
        self.kind = kind
        self.timestamp = timestamp
        self.bounds = bounds
        self.status = TransactionStatus.ACTIVE
        #: The kind as two flags, read on every operation.
        self.is_query = kind is TransactionKind.QUERY
        self.is_update = not self.is_query
        #: Per-object OIL/OEL overrides declared at BEGIN (paper 3.2.2: the
        #: server-side object limits "could be overridden by explicitly
        #: specifying the object limits in the specification stage").
        self.object_limits: dict[int, float] = dict(object_limits or {})
        if self.is_query:
            self.account = InconsistencyAccount(
                Direction.IMPORT, catalog, bounds.import_limit, group_limits
            )
            self.import_account: InconsistencyAccount | None = self.account
        else:
            self.account = InconsistencyAccount(
                Direction.EXPORT, catalog, bounds.export_limit, group_limits
            )
            # Update ETs read consistently (their writes depend on their
            # reads), so they carry no import account: an import limit
            # they declare is never spent.
            self.import_account = None
        #: Objects this transaction has read (object ids).
        self.read_set: set[int] = set()
        #: Objects this transaction has staged writes on (object ids).
        self.write_set: set[int] = set()
        #: Operations executed so far (reads + writes that were granted).
        self.operations = 0
        #: Of those, how many were admitted through an ESR relaxation case.
        self.inconsistent_operations = 0
        #: Abort reason, for diagnostics (None while active/committed).
        self.abort_reason: str | None = None

    # -- guards ---------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    def require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise InvalidOperation(
                f"transaction {self.transaction_id} is {self.status.value}",
                self.transaction_id,
            )

    def effective_object_limit(self, object_id: int, server_limit: float) -> float:
        """The OIL/OEL to apply for this transaction on this object.

        A per-transaction override declared at BEGIN replaces the
        server-side object limit; otherwise the server limit applies.
        """
        return self.object_limits.get(object_id, server_limit)

    # -- convenience for results ------------------------------------------------

    @property
    def imported(self) -> float:
        """Total inconsistency imported (0 for consistent update ETs)."""
        if self.import_account is None:
            return 0.0
        return self.import_account.total

    @property
    def exported(self) -> float:
        """Total inconsistency exported (updates; 0 for queries)."""
        return self.account.total if self.is_update else 0.0

    def __repr__(self) -> str:
        return (
            f"TransactionState(id={self.transaction_id}, "
            f"{self.kind.value}, ts={self.timestamp}, "
            f"{self.status.value}, ops={self.operations})"
        )
