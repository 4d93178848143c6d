"""The unified history seam: one append-only event log per engine.

Every engine (bare managers, the thread-sharded composite, the
process-sharded engine) reports its decisions to a
:class:`HistoryRecorder` instead of poking ``MetricsCollector`` counters
directly.  The recorder *derives* the metrics from the reported events —
one choke point produces both — so the figure-level totals and the
recorded history can never disagree.

Recording is off by default and costs nothing but the derivation call
(one ``None`` check per operation otherwise).  When enabled, each hook
appends one compact positional row — only the fields that kind of
decision carries — and :class:`HistoryEvent` objects, the public and
serialised view, are built from the rows when the history is *read*
(:meth:`HistoryRecorder.events`).  An event carries what the offline
conformance checker (:mod:`repro.check`) needs to replay it against a
fresh ledger: the ESR case and inconsistency charge, the shard that
executed it, the begin-time bound declarations, commit-time
imported/exported divergence, and both a wall-clock and the
transaction's logical timestamp.

Sharding notes:

* the thread-sharded composite shares one recorder across its inner
  engines through :meth:`HistoryRecorder.for_shard` views, so per-object
  events are appended *inside* the owning shard's critical section and
  per-object event order matches decision order;
* the process-sharded engine records in the parent: worker decisions
  (esr case, charge, value) already travel back over the binary shard
  channel as op outcomes, and the parent's absorb path — the single
  place worker replies are applied — turns them into events tagged with
  the shard id.  Worker-side collectors stay discarded, exactly as
  their metrics always were.

Events serialise one-per-line as JSON (:class:`HistoryLog`), with a
header describing the database the history ran against (object bounds,
group catalog), which is everything the checker needs to re-run the
hierarchy admission of every charge.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.core.hierarchy import ROOT_GROUP
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_UNKNOWN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database
    from repro.engine.results import Granted, Rejected
    from repro.engine.transactions import TransactionState

__all__ = [
    "EVENT_BEGIN",
    "EVENT_READ",
    "EVENT_WRITE",
    "EVENT_WAIT",
    "EVENT_REJECT",
    "EVENT_COMMIT",
    "EVENT_ABORT",
    "HistoryEvent",
    "HistoryRecorder",
    "HistoryLog",
    "derive_metrics",
]

EVENT_BEGIN = "begin"
EVENT_READ = "read"
EVENT_WRITE = "write"
EVENT_WAIT = "wait"
EVENT_REJECT = "reject"
EVENT_COMMIT = "commit"
EVENT_ABORT = "abort"

#: Current on-disk format version (the header's ``version`` field).
HISTORY_FORMAT_VERSION = 1


@dataclass(slots=True)
class HistoryEvent:
    """One recorded engine decision.

    Only ``kind``, ``txn`` and ``wall`` are always present; the rest are
    populated per event kind (see the field comments).  Serialisation
    drops default-valued fields, so a typical read event is ~6 keys.
    """

    kind: str
    txn: int
    #: Wall-clock (or simulated-clock) seconds when the event happened.
    wall: float
    #: The transaction's logical timestamp ``(ticks, site, seq)``.
    ts: tuple[float, int, int] | None = None
    #: ``"query"`` or ``"update"`` (begin and commit events).
    txn_kind: str | None = None
    #: Which shard's engine executed the operation (None when unsharded).
    shard: int | None = None
    object_id: int | None = None
    value: float | None = None
    #: ESR relaxation case admitted, if any (read/write events).
    esr_case: str | None = None
    #: Divergence charged to the transaction's account by this operation.
    inconsistency: float = 0.0
    #: True when the read was served by the snapshot cache; the charge is
    #: then the observed staleness the cache admitted.
    cached: bool = False
    #: For wait/reject events: which operation ("read"/"write") stalled.
    op: str | None = None
    #: For wait events: the transaction being waited on.
    blocking: int | None = None
    #: For reject/abort events.
    reason: str | None = None
    detail: str | None = None
    violated_level: str | None = None
    #: Begin events: the declared bound hierarchy.
    import_limit: float | None = None
    export_limit: float | None = None
    group_limits: dict[str, float] | None = None
    object_limits: dict[int, float] | None = None
    #: Commit events: total divergence imported/exported by the txn.
    imported: float | None = None
    exported: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """A compact dict (default-valued fields dropped)."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "txn": self.txn,
            "wall": self.wall,
        }
        if self.ts is not None:
            out["ts"] = list(self.ts)
        for key in (
            "txn_kind",
            "shard",
            "object_id",
            "value",
            "esr_case",
            "op",
            "blocking",
            "reason",
            "detail",
            "violated_level",
            "import_limit",
            "export_limit",
            "group_limits",
            "object_limits",
            "imported",
            "exported",
        ):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.inconsistency:
            out["inconsistency"] = self.inconsistency
        if self.cached:
            out["cached"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HistoryEvent":
        ts = data.get("ts")
        object_limits = data.get("object_limits")
        return cls(
            kind=data["kind"],
            txn=int(data["txn"]),
            wall=float(data.get("wall", 0.0)),
            ts=tuple(ts) if ts is not None else None,
            txn_kind=data.get("txn_kind"),
            shard=data.get("shard"),
            object_id=data.get("object_id"),
            value=data.get("value"),
            esr_case=data.get("esr_case"),
            inconsistency=float(data.get("inconsistency", 0.0)),
            cached=bool(data.get("cached", False)),
            op=data.get("op"),
            blocking=data.get("blocking"),
            reason=data.get("reason"),
            detail=data.get("detail"),
            violated_level=data.get("violated_level"),
            import_limit=data.get("import_limit"),
            export_limit=data.get("export_limit"),
            group_limits=data.get("group_limits"),
            object_limits=(
                {int(k): float(v) for k, v in object_limits.items()}
                if object_limits
                else None
            ),
            imported=data.get("imported"),
            exported=data.get("exported"),
        )


# -- the stored rows -----------------------------------------------------------
#
# The record path stores one positional tuple per decision and nothing
# else: ``(kind, txn, wall, ts, shard)`` followed by the fields that kind
# carries, in the order below.  :func:`_materialise` is the only reader.
#
#   begin   kind*, import_limit, export_limit, group_limits, object_limits
#   read    object_id, value [, esr_case, inconsistency [, cached]]
#   write   object_id, value [, esr_case, inconsistency]
#   wait    object_id, op, blocking
#   reject  object_id, op, reason, detail, violated_level
#   commit  kind*, imported, exported
#   abort   kind*, reason
#
# A read or write that charged nothing — most of them — stops after
# ``value``; the bracketed tail is there when an ESR case admitted the
# operation or the snapshot cache served it.  ``kind*`` is the
# ``TransactionKind`` member (its ``.value`` is looked up when the event
# is materialised); ``ts`` and the values are the objects the engine
# already holds, so a row allocates the tuple and its ``wall`` float —
# plus, on a begin that declares them, its own copy of the group and
# object limits.  A tuple of atoms leaves cyclic-GC tracking at its
# first collection, which an event object with 22 slots never does.


def _materialise(row: tuple) -> HistoryEvent:
    """The :class:`HistoryEvent` one stored row stands for."""
    kind = row[0]
    if kind == EVENT_READ or kind == EVENT_WRITE:
        if len(row) == 7:
            _, txn, wall, ts, shard, object_id, value = row
            return HistoryEvent(kind, txn, wall, ts, None, shard, object_id, value)
        # The tail is esr_case, inconsistency[, cached]: the constructor's
        # next positional fields.
        return HistoryEvent(kind, row[1], row[2], row[3], None, row[4], *row[5:])
    if kind == EVENT_BEGIN:
        (
            _, txn, wall, ts, shard, txn_kind, import_limit, export_limit,
            group_limits, object_limits,
        ) = row
        return HistoryEvent(
            kind, txn, wall, ts, txn_kind.value, shard,
            import_limit=import_limit,
            export_limit=export_limit,
            group_limits=group_limits,
            object_limits=object_limits,
        )
    if kind == EVENT_COMMIT:
        _, txn, wall, ts, shard, txn_kind, imported, exported = row
        return HistoryEvent(
            kind, txn, wall, ts, txn_kind.value, shard,
            imported=imported, exported=exported,
        )
    if kind == EVENT_ABORT:
        _, txn, wall, ts, shard, txn_kind, reason = row
        return HistoryEvent(
            kind, txn, wall, ts, txn_kind.value, shard, reason=reason
        )
    if kind == EVENT_WAIT:
        _, txn, wall, ts, shard, object_id, op, blocking = row
        return HistoryEvent(
            kind, txn, wall, ts, None, shard, object_id, op=op, blocking=blocking
        )
    _, txn, wall, ts, shard, object_id, op, reason, detail, violated_level = row
    return HistoryEvent(
        kind, txn, wall, ts, None, shard, object_id,
        op=op, reason=reason, detail=detail, violated_level=violated_level,
    )


class HistoryRecorder:
    """The single recording entry point engines report events through.

    Derives the :class:`MetricsCollector` totals from the reported
    events and, when ``record=True``, appends one compact row per report
    (layouts above).  With recording off the event branch is one
    ``is None`` check — the metrics derivation is the same work the
    engines used to do inline.  :class:`HistoryEvent` objects come into
    being only in :meth:`events`, when somebody reads the history.

    Thread-safety matches the metrics collector it wraps: the sharded
    composite hands in its lock-wrapped collector, and every event goes
    in with a single ``list.append`` call (atomic under the GIL).
    """

    __slots__ = ("metrics", "clock", "_rows")

    def __init__(
        self,
        metrics: MetricsCollector | None = None,
        record: bool = False,
        clock: Callable[[], float] = time.time,
    ):
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: Supplies the ``wall`` field of recorded events; the DES
        #: simulator points this at the simulated clock.
        self.clock = clock
        self._rows: list[tuple] | None = [] if record else None

    # -- introspection -------------------------------------------------------

    @property
    def recording(self) -> bool:
        return self._rows is not None

    def events(self) -> tuple[HistoryEvent, ...]:
        """The events recorded so far (empty when recording is off).

        Materialised from the stored rows on every call; the snapshot of
        the list is taken first, so shards may keep appending meanwhile.
        """
        if self._rows is None:
            return ()
        return tuple(map(_materialise, tuple(self._rows)))

    def reset(self) -> None:
        """Zero the derived metrics and drop recorded events together.

        Measurement phases reset through this (not ``metrics.reset()``)
        so the history never describes more work than the counters.
        Rows are self-contained, so transactions open across a reset
        still yield complete events afterwards.
        """
        self.metrics.reset()
        if self._rows is not None:
            self._rows.clear()

    def for_shard(self, shard: int) -> "_ShardRecorder":
        """A view that tags every reported event with ``shard``."""
        return _ShardRecorder(self, shard)

    # -- recording hooks (one per engine decision) ---------------------------

    def begin(self, txn: "TransactionState", shard: int | None = None) -> None:
        rows = self._rows
        if rows is None:
            return
        bounds = txn.bounds
        rows.append(
            (
                EVENT_BEGIN,
                txn.transaction_id,
                self.clock(),
                txn.timestamp,
                shard,
                txn.kind,
                bounds.import_limit,
                bounds.export_limit,
                txn.account.declared_group_limits(),
                dict(txn.object_limits) if txn.object_limits else None,
            )
        )

    def read(
        self,
        txn: "TransactionState",
        object_id: int,
        outcome: "Granted",
        cached: bool = False,
        shard: int | None = None,
    ) -> None:
        self.metrics.record_read(outcome.esr_case)
        rows = self._rows
        if rows is None:
            return
        row = (
            EVENT_READ,
            txn.transaction_id,
            self.clock(),
            txn.timestamp,
            shard,
            object_id,
            outcome.value,
        )
        charge = outcome.inconsistency
        if cached:
            row += (outcome.esr_case, charge, True)
        elif charge or outcome.esr_case is not None:
            row += (outcome.esr_case, charge)
        rows.append(row)

    def write(
        self,
        txn: "TransactionState",
        object_id: int,
        value: float,
        outcome: "Granted",
        shard: int | None = None,
    ) -> None:
        self.metrics.record_write(outcome.esr_case)
        rows = self._rows
        if rows is None:
            return
        row = (
            EVENT_WRITE,
            txn.transaction_id,
            self.clock(),
            txn.timestamp,
            shard,
            object_id,
            value,
        )
        charge = outcome.inconsistency
        if charge or outcome.esr_case is not None:
            row += (outcome.esr_case, charge)
        rows.append(row)

    def wait(
        self,
        txn: "TransactionState",
        op: str,
        object_id: int,
        blocking: int,
        shard: int | None = None,
    ) -> None:
        self.metrics.record_wait()
        rows = self._rows
        if rows is None:
            return
        rows.append(
            (
                EVENT_WAIT,
                txn.transaction_id,
                self.clock(),
                txn.timestamp,
                shard,
                object_id,
                op,
                blocking,
            )
        )

    def rejection(
        self,
        txn: "TransactionState",
        op: str,
        object_id: int | None,
        outcome: "Rejected",
        shard: int | None = None,
    ) -> None:
        self.metrics.record_rejection()
        rows = self._rows
        if rows is None:
            return
        rows.append(
            (
                EVENT_REJECT,
                txn.transaction_id,
                self.clock(),
                txn.timestamp,
                shard,
                object_id,
                op,
                outcome.reason,
                outcome.detail or None,
                outcome.violated_level,
            )
        )

    def commit(
        self,
        txn: "TransactionState",
        imported: float | None = None,
        exported: float | None = None,
        shard: int | None = None,
    ) -> None:
        if imported is None:
            imported = txn.imported
        if exported is None:
            exported = txn.exported
        self.metrics.record_commit(txn.is_query, imported, exported)
        rows = self._rows
        if rows is None:
            return
        rows.append(
            (
                EVENT_COMMIT,
                txn.transaction_id,
                self.clock(),
                txn.timestamp,
                shard,
                txn.kind,
                imported,
                exported,
            )
        )

    def abort(
        self,
        txn: "TransactionState",
        reason: str | None,
        shard: int | None = None,
    ) -> None:
        reason = reason or REASON_UNKNOWN
        self.metrics.record_abort(reason)
        rows = self._rows
        if rows is None:
            return
        rows.append(
            (
                EVENT_ABORT,
                txn.transaction_id,
                self.clock(),
                txn.timestamp,
                shard,
                txn.kind,
                reason,
            )
        )


class _ShardRecorder:
    """A :class:`HistoryRecorder` view tagging events with one shard id.

    The sharded composites hand one of these to each inner engine so
    events report which shard's critical section produced them; all
    state (metrics, the event list) lives in the shared parent recorder.
    """

    __slots__ = ("_recorder", "_shard", "metrics")

    def __init__(self, recorder: HistoryRecorder, shard: int):
        self._recorder = recorder
        self._shard = shard
        self.metrics = recorder.metrics

    @property
    def recording(self) -> bool:
        return self._recorder.recording

    @property
    def clock(self) -> Callable[[], float]:
        return self._recorder.clock

    def for_shard(self, shard: int) -> "_ShardRecorder":
        return _ShardRecorder(self._recorder, shard)

    def begin(self, txn, shard: int | None = None) -> None:
        self._recorder.begin(txn, shard=self._shard)

    def read(self, txn, object_id, outcome, cached=False, shard=None) -> None:
        self._recorder.read(
            txn, object_id, outcome, cached=cached, shard=self._shard
        )

    def write(self, txn, object_id, value, outcome, shard=None) -> None:
        self._recorder.write(
            txn, object_id, value, outcome, shard=self._shard
        )

    def wait(self, txn, op, object_id, blocking, shard=None) -> None:
        self._recorder.wait(txn, op, object_id, blocking, shard=self._shard)

    def rejection(self, txn, op, object_id, outcome, shard=None) -> None:
        self._recorder.rejection(
            txn, op, object_id, outcome, shard=self._shard
        )

    def commit(self, txn, imported=None, exported=None, shard=None) -> None:
        self._recorder.commit(
            txn, imported=imported, exported=exported, shard=self._shard
        )

    def abort(self, txn, reason, shard=None) -> None:
        self._recorder.abort(txn, reason, shard=self._shard)


@dataclass
class HistoryLog:
    """A recorded history plus the context needed to replay it.

    The header captures the static facts replay depends on: the protocol
    name, the per-object server-side bounds (OIL/OEL), and the group
    catalog (groups with parents, object→group assignment).  Everything
    dynamic is in the events.
    """

    header: dict[str, Any] = field(default_factory=dict)
    events: list[HistoryEvent] = field(default_factory=list)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_engine(cls, engine: Any) -> "HistoryLog":
        """Collect the recorded history out of a live engine."""
        recorder = getattr(engine, "recorder", None)
        events = list(recorder.events()) if recorder is not None else []
        return cls(
            header=describe_engine(engine),
            events=events,
        )

    # -- (de)serialisation ---------------------------------------------------

    def _lines(self) -> Iterator[str]:
        """Header, then one event per line, each newline-terminated.

        ``json.dumps`` per line, never ``json.dump(obj, fp)``: the latter
        walks the object in the pure-Python encoder, at over twice the
        time for the same bytes.
        """
        encode = json.JSONEncoder(separators=(",", ":")).encode
        yield encode(self.header) + "\n"
        for event in self.events:
            yield encode(event.to_dict()) + "\n"

    def dump(self, fp: IO[str]) -> None:
        """Write header + one event per line as JSON lines."""
        fp.writelines(self._lines())

    def dumps(self) -> str:
        return "".join(self._lines())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            self.dump(fp)

    @classmethod
    def loads(cls, text: str) -> "HistoryLog":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return cls()
        header = json.loads(lines[0])
        events = [HistoryEvent.from_dict(json.loads(line)) for line in lines[1:]]
        return cls(header=header, events=events)

    @classmethod
    def load(cls, path: str) -> "HistoryLog":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.loads(fp.read())

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"HistoryLog(events={len(self.events)}, "
            f"protocol={self.header.get('protocol')!r})"
        )


def describe_engine(engine: Any) -> dict[str, Any]:
    """Build a :class:`HistoryLog` header for a live engine."""
    database: "Database" = engine.database
    catalog = database.catalog
    groups: dict[str, str | None] = {}
    for name in catalog.groups():
        if name == ROOT_GROUP:
            continue
        parent = catalog.parent_of(name)
        groups[name] = None if parent == ROOT_GROUP else parent
    assignment: dict[str, str] = {}
    bounds: dict[str, list[float]] = {}
    for obj in database.objects():
        bounds[str(obj.object_id)] = [
            obj.bounds.import_limit,
            obj.bounds.export_limit,
        ]
        group = catalog.group_of(obj.object_id)
        if group != ROOT_GROUP:
            assignment[str(obj.object_id)] = group
    return {
        "version": HISTORY_FORMAT_VERSION,
        "protocol": getattr(engine, "protocol", None),
        "shards": getattr(engine, "shards", 1),
        "groups": groups,
        "assignment": assignment,
        "object_bounds": bounds,
    }


def derive_metrics(events: Iterable[HistoryEvent]) -> MetricsCollector:
    """Re-derive metrics totals from a recorded event stream.

    This is the checker's cross-validation tool: because live engines
    derive their collectors through the same per-event hooks, replaying
    the events through a fresh collector must land on identical totals.
    """
    metrics = MetricsCollector()
    for event in events:
        if event.kind == EVENT_READ:
            metrics.record_read(event.esr_case)
        elif event.kind == EVENT_WRITE:
            metrics.record_write(event.esr_case)
        elif event.kind == EVENT_WAIT:
            metrics.record_wait()
        elif event.kind == EVENT_REJECT:
            metrics.record_rejection()
        elif event.kind == EVENT_COMMIT:
            metrics.record_commit(
                event.txn_kind == "query",
                event.imported or 0.0,
                event.exported or 0.0,
            )
        elif event.kind == EVENT_ABORT:
            metrics.record_abort(event.reason or REASON_UNKNOWN)
    return metrics
