"""The epsilon-bounded snapshot read cache.

The paper's core lever is that queries tolerate a *quantified* amount of
inconsistency; this module turns that into a serving-layer fast path.  A
:class:`SnapshotStore` is maintained beside the live database: every
committed write publishes an immutable per-object record (value,
commit timestamp, cumulative divergence, recent version history), and
every staged/aborted uncommitted write publishes its in-flight delta.
Query reads can then be answered from the snapshot *without entering the
engine critical section* whenever the divergence the snapshot may carry —
the object's staleness relative to the reader's timestamp plus the
pending uncommitted delta — fits inside every level of the reader's
remaining bound hierarchy (OIL, group limits, TIL).

Correctness contract (enforced by the equivalence-oracle tests): a
cache-served read returns a value and an inconsistency charge that some
legal engine-path execution could also have produced.

* The served value is always the snapshot's committed value, which is the
  database's committed value at publish time — exactly what the engine
  returns for an in-order read, or for a Case-1 late read.
* The charge is ``|value - proper(ts)|`` computed over the same
  committed version window the engine uses — exactly the Case-1 charge
  (zero for in-order reads).
* When an uncommitted write is in flight, the engine's Case-2 would have
  served the *uncommitted* value; the cache instead serves the committed
  value, which corresponds to the legal execution in which the read
  arrived just before the write was staged.  The admission test is
  conservative — staleness *plus* the in-flight delta must fit — so by
  the triangle inequality the bounds also cover the Case-2 view the read
  did not take.
* Admission tests the conservative amount but charges only the observed
  staleness (:meth:`~repro.core.accounting.InconsistencyAccount.
  admit_bounded`), so the ledger, the successful-inconsistent-operation
  counts and the figure-level metrics stay consistent with the paper's
  accounting.

A cache-served read is *non-intrusive*: it does not bump the object's
read timestamp and does not register in the query-reader registry, so it
can never cause a Case-3 export charge or a late-write rejection — the
same property snapshot reads have in multiversion systems.  When any of
the preconditions fail — the object is unpublished, the bounds do not
fit, the transaction already wrote the object (read-your-writes), or the
transaction does not import — the caller falls back to the normal engine
read; the cache never rejects.

Concurrency discipline: all *mutation* (publish, pending, clear) happens
inside the engine critical section (the threaded server's mutex, the
non-blocking server's loop, an in-process caller's own thread).  Reads outside
the critical section see each object through one immutable record
fetched with a single dict lookup, so they can never observe a torn
value/timestamp pair.  Per-group and root in-flight divergence
aggregates are maintained incrementally along the catalog path on every
pending-delta change; they are observability (a group's aggregate is
the sum of the pending deltas of the objects whose catalog path holds
it) — admission itself uses the per-object record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hierarchy import ROOT_GROUP, GroupCatalog
from repro.engine.objects import DataObject, Version
from repro.engine.results import CASE_LATE_READ, Granted
from repro.engine.timestamps import Timestamp
from repro.perf import counters as _perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database
    from repro.engine.transactions import TransactionState

__all__ = ["PublishedObject", "SnapshotStore", "snapshot_read"]


class PublishedObject:
    """One object's published snapshot state — immutable once built.

    A new record replaces the old one in the store's dict on every
    committed write and on every pending-delta change; readers grab the
    record once and work on a consistent view.
    """

    __slots__ = (
        "object_id",
        "value",
        "commit_ts",
        "cumulative_divergence",
        "versions",
        "import_limit",
        "pending_writer",
        "pending_delta",
    )

    def __init__(
        self,
        object_id: int,
        value: float,
        commit_ts: Timestamp,
        cumulative_divergence: float,
        versions: tuple[Version, ...],
        import_limit: float,
        pending_writer: int | None = None,
        pending_delta: float = 0.0,
    ):
        self.object_id = object_id
        self.value = value
        self.commit_ts = commit_ts
        #: Total distance this object's committed value has travelled
        #: across publishes — an upper bound (triangle inequality) on the
        #: divergence between any two retained versions.
        self.cumulative_divergence = cumulative_divergence
        self.versions = versions
        self.import_limit = import_limit
        self.pending_writer = pending_writer
        #: Distance between the staged uncommitted value and the
        #: committed value, 0.0 while no write is in flight.
        self.pending_delta = pending_delta

    def proper_value_for(self, timestamp: Timestamp) -> float:
        """The proper value for a reader — same walk as the live object."""
        for version in reversed(self.versions):
            if version.timestamp < timestamp:
                return version.value
        return self.versions[0].value

    def __repr__(self) -> str:
        pending = (
            f", pending={self.pending_delta:g}"
            if self.pending_writer is not None
            else ""
        )
        return (
            f"PublishedObject(id={self.object_id}, value={self.value:g}, "
            f"ts={self.commit_ts}{pending})"
        )


class SnapshotStore:
    """The divergence-tracked snapshot beside one live database."""

    __slots__ = (
        "catalog",
        "_entries",
        "_inflight",
        "hits",
        "misses",
        "fallbacks",
        "divergence_charged",
    )

    def __init__(self, catalog: GroupCatalog):
        self.catalog = catalog
        self._entries: dict[int, PublishedObject] = {}
        #: Incremental per-group (and root) sum of pending uncommitted
        #: deltas of member objects.
        self._inflight: dict[str, float] = {ROOT_GROUP: 0.0}
        # Per-store tallies (process-wide twins live in repro.perf).
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.divergence_charged = 0.0

    # -- publication (engine critical section only) -------------------------

    def bootstrap(self, database: "Database") -> None:
        """Publish every object's current committed state."""
        for obj in database.objects():
            self.publish(obj)

    def publish(self, obj: DataObject) -> None:
        """Publish ``obj``'s committed state (startup, or after commit)."""
        previous = self._entries.get(obj.object_id)
        cumulative = 0.0
        if previous is not None:
            cumulative = previous.cumulative_divergence + abs(
                obj.committed_value - previous.value
            )
            if previous.pending_delta:
                self._shift_inflight(obj.object_id, -previous.pending_delta)
        self._entries[obj.object_id] = PublishedObject(
            obj.object_id,
            obj.committed_value,
            obj.committed_write_ts,
            cumulative,
            obj.versions(),
            obj.bounds.import_limit,
        )

    def note_pending(self, obj: DataObject) -> None:
        """Record a staged uncommitted write's in-flight delta."""
        entry = self._entries.get(obj.object_id)
        if entry is None:
            return
        delta = abs(obj.uncommitted_value - obj.committed_value)
        if entry.pending_delta:
            self._shift_inflight(obj.object_id, -entry.pending_delta)
        self._entries[obj.object_id] = PublishedObject(
            entry.object_id,
            entry.value,
            entry.commit_ts,
            entry.cumulative_divergence,
            entry.versions,
            entry.import_limit,
            obj.writer_id,
            delta,
        )
        if delta:
            self._shift_inflight(obj.object_id, delta)

    def clear_pending(self, obj: DataObject) -> None:
        """Drop the in-flight delta (the staged write aborted)."""
        entry = self._entries.get(obj.object_id)
        if entry is None or entry.pending_writer is None:
            return
        if entry.pending_delta:
            self._shift_inflight(obj.object_id, -entry.pending_delta)
        self._entries[obj.object_id] = PublishedObject(
            entry.object_id,
            entry.value,
            entry.commit_ts,
            entry.cumulative_divergence,
            entry.versions,
            entry.import_limit,
        )

    def _shift_inflight(self, object_id: int, delta: float) -> None:
        inflight = self._inflight
        for group in self.catalog.path(object_id):
            inflight[group] = inflight.get(group, 0.0) + delta

    # -- introspection ------------------------------------------------------

    def entry(self, object_id: int) -> PublishedObject | None:
        return self._entries.get(object_id)

    def group_inflight(self, group: str) -> float:
        """Sum of pending uncommitted deltas over the group's subtree."""
        return self._inflight.get(group, 0.0)

    @property
    def root_inflight(self) -> float:
        return self._inflight.get(ROOT_GROUP, 0.0)

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "divergence_charged": self.divergence_charged,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SnapshotStore(objects={len(self._entries)}, hits={self.hits}, "
            f"fallbacks={self.fallbacks})"
        )


def snapshot_read(
    store: SnapshotStore, txn: "TransactionState", object_id: int
) -> Granted | None:
    """Serve one query read from the snapshot, or None to take the engine.

    Mirrors the engine's decision shape: an in-order read of a clean
    object is consistent and free; a stale (or pending-shadowed) read is
    admitted iff staleness + in-flight delta fits every remaining level
    of the bound hierarchy, and charges exactly the observed staleness.
    Every outcome that is not a hit is a *downgrade*, never a rejection —
    the engine path stays the authority on aborts and waits.
    """
    # Only a query carries an import account, and a query stages no
    # writes: an update (own staged writes included) takes the engine.
    account = txn.import_account
    if account is None or not txn.is_active:
        store.fallbacks += 1
        _perf.cache_fallbacks += 1
        return None
    entry = store._entries.get(object_id)
    if entry is None:
        store.misses += 1
        _perf.cache_misses += 1
        return None
    if txn.timestamp < entry.commit_ts:
        staleness = abs(entry.value - entry.proper_value_for(txn.timestamp))
    else:
        staleness = 0.0
    guarded = staleness + entry.pending_delta
    if guarded > 0.0:
        oil = txn.effective_object_limit(object_id, entry.import_limit)
        charge = account.admit_bounded(object_id, guarded, staleness, oil)
        if not charge.admitted:
            store.fallbacks += 1
            _perf.cache_fallbacks += 1
            return None
    txn.read_set.add(object_id)
    txn.operations += 1
    case = CASE_LATE_READ if staleness > 0.0 else None
    if case is not None:
        txn.inconsistent_operations += 1
        store.divergence_charged += staleness
        _perf.cache_divergence_charged += staleness
    account.observe_value(object_id, entry.value)
    store.hits += 1
    _perf.cache_hits += 1
    return Granted(value=entry.value, inconsistency=staleness, esr_case=case)
