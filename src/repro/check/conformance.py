"""Replay a recorded history against a fresh bound hierarchy.

The checker rebuilds, per transaction, exactly the accounting the engine
performed live — an :class:`~repro.core.accounting.InconsistencyAccount`
in each relevant direction, over a :class:`~repro.core.hierarchy.
GroupCatalog` reconstructed from the history header — and re-admits
every recorded charge bottom-up (object limit, then every group on the
object's path, then the transaction limit).  Exactly-at-limit semantics
are inherited from the ledger itself: the same ``usage + amount >
limit`` comparison runs here as ran live, so a conformant history
replays with zero violations and a corrupted one (say an over-limit
charge spliced into the log) is flagged at the first level it breaks.

Two invariant families are checked:

* **per-event admission** — each read/write event's ``inconsistency``
  must be admissible by the fresh hierarchy at the moment it is
  replayed, under the event's effective object limit (the BEGIN
  override when declared, the header's server-side OIL/OEL otherwise);
* **commit totals** — a commit event's ``imported``/``exported`` must
  equal the replayed account totals *bit-exactly* (same additions, same
  order — see the package docstring), so even a one-ULP discrepancy
  between the engine's ledger and its reported totals is caught.

Lifecycle anomalies (events for unknown transactions, double
completion, operations after completion, charged reads on transactions
with no import account) are violations too: they indicate the engine
recorded an impossible execution.  Softer oddities — unknown abort
reasons, rejection-reason aborts with no paired reject event,
transactions left unfinished — are reported as warnings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.accounting import Direction, InconsistencyAccount
from repro.core.bounds import UNBOUNDED
from repro.core.hierarchy import GroupCatalog
from repro.engine.history import (
    EVENT_ABORT,
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_READ,
    EVENT_REJECT,
    EVENT_WAIT,
    EVENT_WRITE,
    HistoryEvent,
    HistoryLog,
)
from repro.engine.reasons import ALL_REASONS, REJECTION_REASONS
from repro.errors import SpecificationError

__all__ = ["Violation", "CheckResult", "check_log"]


@dataclass(frozen=True)
class Violation:
    """One conformance failure found during replay."""

    #: Machine-readable kind: ``over-limit-charge``,
    #: ``commit-total-mismatch``, ``orphan-event``,
    #: ``double-completion``, ``uncharged-account``,
    #: ``serialization-cycle``.
    kind: str
    #: Transaction the violating event belongs to (0 for global).
    txn: int
    #: Index of the violating event in the log (-1 for global).
    index: int
    message: str
    #: Hierarchy level that broke, for admission failures.
    level: str | None = None


@dataclass
class CheckResult:
    """Everything :func:`check_log` learned about one history."""

    name: str
    events: int = 0
    transactions: int = 0
    committed: int = 0
    aborted: int = 0
    violations: list[Violation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: CPU seconds spent checking (``time.process_time`` delta).
    cpu: float = 0.0
    #: ``True``/``False`` when the epsilon-0 serializability check ran,
    #: ``None`` when the history carries bounds and the check is moot.
    serializable: bool | None = None
    #: The offending cycle (transaction ids) when not serializable.
    cycle: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def label(self) -> str:
        """Short result string for the report table."""
        if self.violations:
            n = len(self.violations)
            return f"{n} violation{'s' if n != 1 else ''}"
        if self.serializable is False:
            return "Not serializable"
        if self.serializable is True:
            return "Conformant, serializable"
        return "Conformant"


class _TxnReplay:
    """Fresh accounts and lifecycle state for one replayed transaction."""

    __slots__ = (
        "kind",
        "import_account",
        "export_account",
        "object_limits",
        "finished",
        "rejected",
    )

    def __init__(self, event: HistoryEvent, catalog: GroupCatalog):
        self.kind = event.txn_kind or "update"
        self.object_limits: dict[int, float] = dict(event.object_limits or {})
        self.finished: str | None = None
        self.rejected = False
        group_limits = event.group_limits
        import_limit = (
            event.import_limit if event.import_limit is not None else 0.0
        )
        export_limit = (
            event.export_limit if event.export_limit is not None else 0.0
        )
        # Mirrors TransactionState: a query only imports, an update ET
        # (consistent reads) only exports.
        self.import_account: InconsistencyAccount | None = None
        self.export_account: InconsistencyAccount | None = None
        if self.kind == "query":
            self.import_account = InconsistencyAccount(
                Direction.IMPORT, catalog, import_limit, group_limits
            )
        else:
            self.export_account = InconsistencyAccount(
                Direction.EXPORT, catalog, export_limit, group_limits
            )

    @property
    def imported(self) -> float:
        return self.import_account.total if self.import_account else 0.0

    @property
    def exported(self) -> float:
        return self.export_account.total if self.export_account else 0.0


def _rebuild_catalog(header: Mapping[str, Any]) -> GroupCatalog:
    """Reconstruct the group catalog the history ran against."""
    catalog = GroupCatalog()
    groups = dict(header.get("groups") or {})
    # Parents may serialise after their children; insert in passes.
    remaining = dict(groups)
    while remaining:
        progressed = False
        for name in list(remaining):
            parent = remaining[name]
            if parent is None or catalog.has_group(parent):
                catalog.add_group(name, parent)
                del remaining[name]
                progressed = True
        if not progressed:
            raise SpecificationError(
                f"history header declares unreachable groups: "
                f"{sorted(remaining)}"
            )
    for object_id, group in (header.get("assignment") or {}).items():
        catalog.assign(int(object_id), group)
    return catalog


def _object_bounds(
    header: Mapping[str, Any],
) -> dict[int, tuple[float, float]]:
    out: dict[int, tuple[float, float]] = {}
    for object_id, pair in (header.get("object_bounds") or {}).items():
        out[int(object_id)] = (float(pair[0]), float(pair[1]))
    return out


def check_log(
    log: HistoryLog,
    name: str = "history",
    serializability: bool | None = None,
) -> CheckResult:
    """Replay ``log`` and report every conformance violation.

    ``serializability`` forces the epsilon-0 DSG check on (``True``) or
    off (``False``); the default ``None`` runs it exactly when every
    transaction declared zero bounds (the history claims strictness).
    Event order is replay order; histories recorded across concurrent
    client connections interleave in recording order, which per-object
    matches decision order for the in-process engines (events are
    appended inside the owning critical section).
    """
    started = time.process_time()
    result = CheckResult(name=name, events=len(log.events))
    catalog = _rebuild_catalog(log.header)
    bounds = _object_bounds(log.header)
    txns: dict[int, _TxnReplay] = {}
    strict = True

    def violate(
        kind: str,
        event: HistoryEvent,
        index: int,
        message: str,
        level: str | None = None,
    ) -> None:
        result.violations.append(
            Violation(kind, event.txn, index, message, level)
        )

    for index, event in enumerate(log.events):
        if event.kind == EVENT_BEGIN:
            if event.txn in txns and txns[event.txn].finished is None:
                violate(
                    "orphan-event",
                    event,
                    index,
                    f"transaction {event.txn} begun twice",
                )
                continue
            txns[event.txn] = _TxnReplay(event, catalog)
            result.transactions += 1
            if (
                (event.import_limit or 0.0) != 0.0
                or (event.export_limit or 0.0) != 0.0
                or event.group_limits
                or event.object_limits
            ):
                strict = False
            continue

        replay = txns.get(event.txn)
        if replay is None:
            violate(
                "orphan-event",
                event,
                index,
                f"{event.kind} event for unknown transaction {event.txn}",
            )
            continue

        if event.kind in (EVENT_READ, EVENT_WRITE):
            if replay.finished is not None:
                violate(
                    "orphan-event",
                    event,
                    index,
                    f"{event.kind} on {replay.finished} "
                    f"transaction {event.txn}",
                )
                continue
            amount = event.inconsistency
            if amount == 0.0:
                continue
            is_read = event.kind == EVENT_READ
            account = (
                replay.import_account if is_read else replay.export_account
            )
            if account is None:
                violate(
                    "uncharged-account",
                    event,
                    index,
                    f"transaction {event.txn} has no "
                    f"{'import' if is_read else 'export'} account but "
                    f"event {index} charges {amount:g}",
                )
                continue
            object_id = event.object_id
            server = bounds.get(
                object_id if object_id is not None else -1,
                (UNBOUNDED, UNBOUNDED),
            )
            server_limit = server[0] if is_read else server[1]
            effective = replay.object_limits.get(
                object_id if object_id is not None else -1, server_limit
            )
            outcome = account.admit(
                object_id if object_id is not None else -1,
                amount,
                effective,
            )
            if not outcome.admitted:
                violate(
                    "over-limit-charge",
                    event,
                    index,
                    f"event {index} ({event.kind} of object {object_id} "
                    f"by transaction {event.txn}) charges {amount:g}, "
                    f"which the {outcome.violated_level!r} level rejects "
                    f"(attempted {outcome.attempted:g} > "
                    f"limit {outcome.limit:g})",
                    level=outcome.violated_level,
                )
        elif event.kind == EVENT_WAIT:
            continue
        elif event.kind == EVENT_REJECT:
            replay.rejected = True
            if event.reason not in REJECTION_REASONS:
                result.warnings.append(
                    f"event {index}: reject with non-rejection reason "
                    f"{event.reason!r}"
                )
        elif event.kind == EVENT_COMMIT:
            if replay.finished is not None:
                violate(
                    "double-completion",
                    event,
                    index,
                    f"transaction {event.txn} commits after "
                    f"{replay.finished}",
                )
                continue
            replay.finished = "commit"
            result.committed += 1
            recorded_in = (
                event.imported if event.imported is not None else 0.0
            )
            recorded_out = (
                event.exported if event.exported is not None else 0.0
            )
            if recorded_in != replay.imported:
                violate(
                    "commit-total-mismatch",
                    event,
                    index,
                    f"transaction {event.txn} committed with "
                    f"imported={recorded_in!r} but its events charge "
                    f"{replay.imported!r}",
                )
            if recorded_out != replay.exported:
                violate(
                    "commit-total-mismatch",
                    event,
                    index,
                    f"transaction {event.txn} committed with "
                    f"exported={recorded_out!r} but its events charge "
                    f"{replay.exported!r}",
                )
        elif event.kind == EVENT_ABORT:
            if replay.finished is not None:
                violate(
                    "double-completion",
                    event,
                    index,
                    f"transaction {event.txn} aborts after "
                    f"{replay.finished}",
                )
                continue
            replay.finished = "abort"
            result.aborted += 1
            if event.reason not in ALL_REASONS:
                result.warnings.append(
                    f"event {index}: unknown abort reason {event.reason!r}"
                )
            elif event.reason in REJECTION_REASONS and not replay.rejected:
                result.warnings.append(
                    f"event {index}: abort reason {event.reason!r} has no "
                    f"paired reject event for transaction {event.txn}"
                )
        else:
            result.warnings.append(
                f"event {index}: unknown event kind {event.kind!r}"
            )

    unfinished = [
        txn for txn, replay in txns.items() if replay.finished is None
    ]
    if unfinished:
        result.warnings.append(
            f"{len(unfinished)} transaction(s) never completed: "
            f"{sorted(unfinished)[:10]}"
        )

    run_dsg = serializability if serializability is not None else strict
    if run_dsg:
        from repro.check.dsg import serialization_cycle

        cycle = serialization_cycle(log.events)
        if cycle:
            result.serializable = False
            result.cycle = cycle
            result.violations.append(
                Violation(
                    "serialization-cycle",
                    cycle[0],
                    -1,
                    "epsilon-0 history is not serializable: cycle "
                    + " -> ".join(str(txn) for txn in cycle),
                )
            )
        else:
            result.serializable = True

    result.cpu = time.process_time() - started
    return result
