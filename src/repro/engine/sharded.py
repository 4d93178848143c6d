"""The shard composite: one engine over N shards, in threads or processes.

:class:`ShardedEngine` is the only class that implements the
:class:`~repro.engine.api.Engine` protocol for ``shards > 1``.  It
partitions one database by object key (``object_id % shards``) into
shard-local :class:`~repro.engine.database.Database` views that *alias*
the real objects, and owns everything that exists once per transaction
whatever the topology: id and timestamp allocation, the global
:class:`TransactionState` hosts hold on to, its inconsistency accounts,
the commit/abort decision and its fan-out, the completing window, and
the one wait registry.

**The shard seam.**  Each shard slot holds a backend with four calls:

* ``operate(txn, op, object_id, value) -> Outcome`` — run one read or
  write of the global transaction on this shard, record it, and leave
  the global accounts holding whatever it charged.  A ``Rejected``
  outcome means the backend already recorded the rejection and the
  abort and finished its own copy of the transaction;
* ``complete(txn, status, reason)`` — apply a completion decided by the
  composite (no-op for a transaction the shard never saw);
* ``wait_edge(waiter, transaction)`` — a waiter parked behind
  ``transaction``, or (``waiter is None``) ``transaction`` completed;
* ``close()``.

There are two backends.  :class:`_LocalShard` (here) is a lock, an
ordinary inner engine built by :func:`~repro.engine.api.build_unsharded`
over the shard's view, and lazily built *sibling* transactions — same
id, timestamp and kind as the global one, whose ``account`` /
``import_account`` / ``object_limits`` **are** the global transaction's
(a query's ``import_account`` is its ``account``; an update has none).
:class:`~repro.engine.procshard.WorkerShard` runs the same inner engine
in a forked worker process behind a socketpair and keeps the worker's
copy of the accounts delta-synced with the parent's (see
:mod:`repro.engine.procshard` for that transport).  Raising
:class:`~repro.errors.ShardChannelError` from ``operate`` or
``complete`` is how a backend says its shard's state is lost.

**Bound accounting is identical on both.**  OIL/OEL are decided where
they always were, inside the per-object admission the shard's inner
engine runs.  TIL/TEL and group limits span shards, so the accounts
that carry them live once, in the parent, on the global transaction:
in-process siblings charge them directly under one per-transaction lock
(:meth:`~repro.core.accounting.InconsistencyAccount.install_lock`),
workers charge a synced copy and ship the delta back.  The same ledger
code runs either way, so exactly-at-limit admission is untouched.

**Completion.**  Commit/abort is decided once here and applied to every
touched shard through ``complete``; the commit/abort event and counters
are recorded exactly once here.  The global maps are popped *first*, so
a waiter subscribing afterwards sees the blocker as inactive.

**Waits.**  All in-process inner engines share one
:class:`_SharedWaitRegistry`; workers never park anything (``MustWait``
propagates to the parent).  ``subscribe`` fires the callback at once
when the blocker is no longer globally active — closing the race where
it completes between an operation returning ``MustWait`` and the host
subscribing — and backs off while the blocker's completion is still
being applied shard by shard.  Parked edges and completions are passed
to every backend's ``wait_edge`` so 2PL's deadlock walk inside a worker
sees cross-shard cycles.  Two transactions parking simultaneously on
different shards can still slip past the check, which is why the
servers keep their ``wait_timeout`` guard (the standard distributed-2PL
position).

**Failover is a backend swap.**  When a worker shard is lost the
composite closes it, builds a :class:`_LocalShard` over that slot's
view — the parent's objects, which every commit reply has kept current
— aborts every transaction that had touched the shard (reason
``"shard-failover"``: staged writes, read timestamps and version history
died with the worker), and keeps serving.  A failed-over shard simply
*is* a thread shard.

With ``shards=1`` the composite is behaviourally identical to the bare
manager on deterministic workloads (pinned by the golden-determinism
equivalence tests) — it adds one lock acquisition per operation and
nothing else.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable, Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.api import build_unsharded, validate_protocol_options
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_CLIENT_ABORT, REASON_SHARD_FAILOVER
from repro.engine.results import Granted, Outcome, Rejected
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import InvalidOperation, ShardChannelError
from repro.perf import counters as _perf

__all__ = ["ShardedEngine"]


class _LockedMetrics(MetricsCollector):
    """A metrics collector safe to share across shard threads."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def record_read(self, esr_case: str | None) -> None:
        with self._lock:
            super().record_read(esr_case)

    def record_write(self, esr_case: str | None) -> None:
        with self._lock:
            super().record_write(esr_case)

    def record_wait(self) -> None:
        with self._lock:
            super().record_wait()

    def record_rejection(self) -> None:
        with self._lock:
            super().record_rejection()

    def record_commit(
        self, is_query: bool, imported: float, exported: float
    ) -> None:
        with self._lock:
            super().record_commit(is_query, imported, exported)

    def record_abort(self, reason: str) -> None:
        with self._lock:
            super().record_abort(reason)


#: Self-fire backoff while a multi-shard completion is in flight: first
#: retry sleeps the initial quantum, each further retry doubles it up to
#: the cap.  The cap keeps the waiter responsive (a completion holds a
#: shard lock for microseconds, not milliseconds); the growth stops the
#: subscribe-retry loop from spinning a core when the blocker's slowest
#: shard takes long to complete.
_SELF_FIRE_BACKOFF_INITIAL = 0.0001
_SELF_FIRE_BACKOFF_CAP = 0.005


class _SharedWaitRegistry(WaitRegistry):
    """The one wait registry of a composite, shared by every in-process
    inner engine.

    Thread-safe, and subscription-time aware of completion: if the
    blocking transaction is no longer globally active when a waiter
    subscribes, the callback fires immediately instead of being parked
    forever (the subscriber raced the completion).

    While the blocker's completion is still being applied shard by shard
    (``is_completing``), consecutive self-fires for the same waiter sleep
    a capped exponential backoff first — the retry loop stays a *bounded*
    busy retry instead of a core-burning spin when the blocker commits
    late on one of its other shards.

    ``on_park(waiter, blocker)`` is told, outside the lock, about every
    wait-for edge that actually parked.
    """

    def __init__(
        self,
        is_active: Callable[[int], bool],
        is_completing: Callable[[int], bool],
        on_park: Callable[[int, int], None] = lambda waiter, blocker: None,
    ) -> None:
        super().__init__()
        self._lock = threading.RLock()
        self._is_active = is_active
        self._is_completing = is_completing
        self._on_park = on_park
        #: (waiter, blocker) -> consecutive self-fires against an
        #: in-flight completion, driving the backoff schedule.
        self._self_fires: dict[tuple[int | None, int], int] = {}

    def subscribe(
        self,
        blocking_transaction: int,
        callback: Callable[[], None],
        waiter_transaction: int | None = None,
    ) -> None:
        parked = False
        backoff = 0.0
        with self._lock:
            if self._is_active(blocking_transaction):
                self._self_fires.pop(
                    (waiter_transaction, blocking_transaction), None
                )
                super().subscribe(
                    blocking_transaction,
                    callback,
                    waiter_transaction=waiter_transaction,
                )
                parked = True
            elif self._is_completing(blocking_transaction):
                key = (waiter_transaction, blocking_transaction)
                count = self._self_fires.get(key, 0)
                self._self_fires[key] = count + 1
                backoff = min(
                    _SELF_FIRE_BACKOFF_INITIAL * (2**count),
                    _SELF_FIRE_BACKOFF_CAP,
                )
        if parked:
            if waiter_transaction is not None:
                self._on_park(waiter_transaction, blocking_transaction)
            return
        if backoff > 0.0:
            time.sleep(backoff)
        callback()

    def fire(self, completed_transaction: int) -> int:
        with self._lock:
            callbacks = self._waiters.pop(completed_transaction, ())
            self._drop_edges(completed_transaction)
            done = [
                key
                for key in self._self_fires
                if key[1] == completed_transaction
            ]
            for key in done:
                del self._self_fires[key]
        for callback in callbacks:
            callback()
        return len(callbacks)

    def waiting_on(self, waiter_transaction: int) -> int | None:
        with self._lock:
            return self._waiting_on.get(waiter_transaction)

    def pending_waiters(self) -> int:
        with self._lock:
            return sum(len(cbs) for cbs in self._waiters.values())


class _AggregateSnapshot:
    """Read-only union view over the shards' snapshot stores."""

    def __init__(self, stores: tuple) -> None:
        self.stores = stores

    def stats(self) -> dict[str, float]:
        totals = {
            "hits": 0.0,
            "misses": 0.0,
            "fallbacks": 0.0,
            "divergence_charged": 0.0,
        }
        for store in self.stores:
            for key, value in store.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    @property
    def hits(self) -> float:
        return sum(store.hits for store in self.stores)

    def __len__(self) -> int:
        return sum(len(store) for store in self.stores)

    def __repr__(self) -> str:
        return f"_AggregateSnapshot(shards={len(self.stores)})"


class _LocalShard:
    """The in-process shard backend: a lock, an inner engine, siblings."""

    #: No worker process behind this shard.
    pid = None

    def __init__(self, engine) -> None:
        self.engine = engine
        self.lock = threading.Lock()
        #: Global txn id -> this shard's twin of the transaction.
        self._siblings: dict[int, TransactionState] = {}

    def operate(
        self, txn: TransactionState, op: str, object_id: int, value: float
    ) -> Outcome:
        with self.lock:
            sibling = self._siblings.get(txn.transaction_id)
            if sibling is None:
                sibling = self._adopt(txn)
            if op == "read":
                outcome = self.engine.read(sibling, object_id)
            else:
                outcome = self.engine.write(sibling, object_id, value)
            if sibling.status is not TransactionStatus.ACTIVE:
                # A rejection auto-aborted (and finished) the sibling.
                del self._siblings[txn.transaction_id]
        return outcome

    def _adopt(self, txn: TransactionState) -> TransactionState:
        """Build the per-shard twin of ``txn`` on first touch.

        Called under the shard's lock.  A transaction's operations are
        serialised by its client connection, so sibling creation for one
        transaction is single-threaded.
        """
        sibling = TransactionState(
            transaction_id=txn.transaction_id,
            kind=txn.kind,
            timestamp=txn.timestamp,
            bounds=txn.bounds,
            catalog=self.engine.database.catalog,
        )
        # The accounts *are* the global transaction's — every shard
        # charges the same TIL/GIL ledger (under its lock).
        sibling.account = txn.account
        sibling.import_account = txn.import_account
        sibling.object_limits = txn.object_limits
        self._siblings[txn.transaction_id] = sibling
        self.engine.adopt(sibling)
        return sibling

    def complete(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
    ) -> None:
        with self.lock:
            sibling = self._siblings.pop(txn.transaction_id, None)
            if sibling is not None:
                self.engine.complete(sibling, status, reason)

    def wait_edge(self, waiter: int | None, transaction: int) -> None:
        """Nothing to mirror: the inner engine shares the registry itself."""

    def close(self) -> None:
        """Nothing to release."""


def _close_shards(shards: list) -> None:
    """weakref.finalize hook: never leak worker processes."""
    for shard in shards:
        try:
            shard.close()
        except Exception:
            pass


class ShardedEngine:
    """N shards behind the one :class:`~repro.engine.api.Engine`
    interface, with cross-shard hierarchical bound accounting."""

    #: Hosts holding a global engine mutex may skip it for this engine —
    #: every entry point takes the locks it needs itself.
    thread_safe = True

    def __init__(
        self,
        database: Database,
        protocol: str = "esr",
        *,
        shards: int,
        processes: bool = False,
        snapshot_cache: bool = False,
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        self._spec = validate_protocol_options(
            protocol,
            snapshot_cache=snapshot_cache,
            shards=shards,
            processes=processes,
        )
        self.database = database
        self.protocol = protocol
        self.shards = shards
        #: Why ``processes=True`` was not honoured (set by
        #: :func:`~repro.engine.api.create_engine`), else None.
        self.process_degraded: str | None = None
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = HistoryRecorder(
                metrics if metrics is not None else _LockedMetrics(),
                record=record_history,
            )
        self.metrics = self.recorder.metrics
        self._timestamps = (
            timestamps if timestamps is not None else TimestampGenerator()
        )
        self._next_id = 1
        #: Guards id/timestamp allocation and the global transaction maps.
        self._txn_lock = threading.Lock()
        self._active: dict[int, TransactionState] = {}
        #: Global txn id -> shards it has operated on (completion fan-out).
        self._touched: dict[int, set[int]] = {}
        #: Transactions popped from ``_active`` whose per-shard completion
        #: is still being applied — waiters self-firing against these back
        #: off instead of spinning (see :class:`_SharedWaitRegistry`).
        self._completing: set[int] = set()
        self.waits = _SharedWaitRegistry(
            self._is_globally_active, self._is_completing, self._wait_edge
        )
        # Partition: shard-local Database views aliasing the real objects
        # (and sharing the real catalog).  A fork copy-on-writes them into
        # the workers; the parent's originals stay behind as the
        # committed-state mirror a failed-over shard is rebuilt on.
        self._databases = [
            Database(
                catalog=database.catalog,
                version_window=database.version_window,
            )
            for _ in range(shards)
        ]
        for obj in database.objects():
            self._databases[obj.object_id % shards].adopt_object(obj)
        self._snapshot_cache = snapshot_cache
        self._failed: list[int] = []
        self._failover_lock = threading.RLock()
        self._closed = False
        self._finalizer = None
        if processes:
            from repro.engine.procshard import fork_shards

            self._shards = fork_shards(self._databases, protocol, self.recorder)
            self._finalizer = weakref.finalize(
                self, _close_shards, list(self._shards)
            )
        else:
            self._shards = [self._local_shard(i) for i in range(shards)]
        if snapshot_cache:
            self.snapshot = _AggregateSnapshot(
                tuple(shard.engine.snapshot for shard in self._shards)
            )
        else:
            self.snapshot = None

    def _local_shard(self, index: int) -> _LocalShard:
        inner = build_unsharded(
            self._databases[index],
            self._spec,
            snapshot_cache=self._snapshot_cache,
            recorder=self.recorder.for_shard(index),
            timestamps=self._timestamps,
        )
        inner.waits = self.waits
        return _LocalShard(inner)

    # -- routing ---------------------------------------------------------------

    def shard_of(self, object_id: int) -> int:
        return object_id % self.shards

    def worker_pids(self) -> tuple[int | None, ...]:
        """One worker process id per shard (None once a shard has failed
        over); empty when the engine was built on threads."""
        if self._finalizer is None:
            return ()
        return tuple(shard.pid for shard in self._shards)

    def failed_shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._failed))

    def _is_globally_active(self, transaction_id: int) -> bool:
        return transaction_id in self._active

    def _is_completing(self, transaction_id: int) -> bool:
        return transaction_id in self._completing

    def _wait_edge(self, waiter: int | None, transaction: int) -> None:
        for shard in self._shards:
            shard.wait_edge(waiter, transaction)

    # -- lifecycle -------------------------------------------------------------

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
        with self._txn_lock:
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
            # TIL/TEL and group totals span shards: make the ledger's
            # check-and-charge atomic across concurrent shard threads.
            txn.account.install_lock(threading.RLock())
            self._active[txn.transaction_id] = txn
            self._touched[txn.transaction_id] = set()
        self.recorder.begin(txn)
        return txn

    def active_transactions(self) -> tuple[TransactionState, ...]:
        return tuple(self._active.values())

    # -- operations -------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        return self._operate(txn, "read", object_id, 0.0)

    def write(
        self, txn: TransactionState, object_id: int, value: float
    ) -> Outcome:
        if not txn.is_update:
            raise InvalidOperation(
                f"query transaction {txn.transaction_id} cannot write",
                txn.transaction_id,
            )
        return self._operate(txn, "write", object_id, value)

    def read_cached(
        self, txn: TransactionState, object_id: int
    ) -> Granted | None:
        """Snapshot-cache fast path, pre-lock — routed to the shard's store.

        Safe without the shard lock for the same reason the unsharded
        fast path is safe without the engine mutex: the store publishes
        immutable records, the transaction's account is (here) locked,
        and one transaction's operations are serialised by its
        connection.  The cache only exists on in-process shards
        (``validate_protocol_options`` rejects it with ``processes``).
        """
        if self.snapshot is None:
            return None
        return self._shards[object_id % self.shards].engine.read_cached(
            txn, object_id
        )

    def _operate(
        self, txn: TransactionState, op: str, object_id: int, value: float
    ) -> Outcome:
        touched = self._touched.get(txn.transaction_id)
        if touched is None:
            # Finished (the entry goes first): say how, if it is known yet.
            txn.require_active()
            raise InvalidOperation(
                f"transaction {txn.transaction_id} is not active",
                txn.transaction_id,
            )
        shard = object_id % self.shards
        # Marked before the call: a backend that raises may still have
        # built its copy of the transaction, and must get the completion.
        touched.add(shard)
        try:
            outcome = self._shards[shard].operate(txn, op, object_id, value)
        except ShardChannelError:
            return self._shard_failed(txn, shard)
        if isinstance(outcome, Granted):
            # Mirror the shard outcome onto the global transaction state
            # exactly as a bare manager would have recorded it on itself.
            if op == "read":
                txn.read_set.add(object_id)
            else:
                txn.write_set.add(object_id)
            txn.operations += 1
            if outcome.esr_case is not None:
                txn.inconsistent_operations += 1
        elif isinstance(outcome, Rejected):
            # The backend already recorded the rejection and the abort
            # and finished its own copy; propagate the abort to every
            # other touched shard and close out the global transaction.
            self._finish_global(
                txn,
                TransactionStatus.ABORTED,
                outcome.reason,
                record=False,
                already_finished=shard,
            )
        return outcome

    # -- completion --------------------------------------------------------------

    def commit(self, txn: TransactionState) -> None:
        txn.require_active()
        self._finish_global(txn, TransactionStatus.COMMITTED, None, record=True)

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
        self._finish_global(txn, TransactionStatus.ABORTED, reason, record=True)

    def _finish_global(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
        record: bool,
        already_finished: int | None = None,
    ) -> None:
        """Decide the completion once, apply it to every touched shard.

        The global maps are popped *first* (under the txn lock), so any
        waiter subscribing after this point sees the blocker as inactive
        and self-fires; waiters subscribed before it are woken by the
        per-shard fires and the final fire below.
        """
        with self._txn_lock:
            self._completing.add(txn.transaction_id)
            touched = self._touched.pop(txn.transaction_id, ())
            self._active.pop(txn.transaction_id, None)
        for shard in sorted(touched):
            if shard == already_finished:
                continue
            try:
                self._shards[shard].complete(txn, status, reason)
            except ShardChannelError:
                # The shard's staged effects are gone; what it had
                # committed before survives in the parent's objects.
                self._failover(shard)
        if status is TransactionStatus.ABORTED:
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        elif record:
            self.recorder.commit(txn)
        txn.status = status
        self.waits.fire(txn.transaction_id)
        self._wait_edge(None, txn.transaction_id)
        self._completing.discard(txn.transaction_id)

    # -- shard loss --------------------------------------------------------------

    def _shard_failed(self, txn: TransactionState, shard: int) -> Rejected:
        """An op hit a lost shard: fail the shard over, abort the txn."""
        self._failover(shard)
        if txn.is_active:
            self._finish_global(
                txn,
                TransactionStatus.ABORTED,
                REASON_SHARD_FAILOVER,
                record=True,
            )
        return Rejected(
            REASON_SHARD_FAILOVER,
            detail=(
                f"shard {shard} worker died; the shard continues in-process"
            ),
        )

    def _failover(self, shard: int) -> None:
        """Swap a lost worker shard for an in-process one over the mirror.

        Committed state survives (every commit reply updated the parent's
        objects); whatever lived only inside the worker — staged writes,
        read timestamps, reader registries, version history — is gone, so
        every transaction that touched the shard is aborted with
        ``"shard-failover"`` and restarts under a fresh timestamp.
        """
        with self._failover_lock:
            if shard in self._failed or self._closed:
                return
            self._shards[shard].close(timeout=0.2)
            _perf.shard_failovers += 1
            self._shards[shard] = self._local_shard(shard)
            self._failed.append(shard)
        for txn in list(self._active.values()):
            touched = self._touched.get(txn.transaction_id)
            if touched is not None and shard in touched and txn.is_active:
                self._finish_global(
                    txn,
                    TransactionStatus.ABORTED,
                    REASON_SHARD_FAILOVER,
                    record=True,
                    already_finished=shard,
                )

    # -- teardown ----------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down (idempotent); never leaves orphans."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()
        if self._finalizer is not None:
            self._finalizer.detach()

    def __repr__(self) -> str:
        failed = f", failed_over={len(self._failed)}" if self._failed else ""
        return (
            f"ShardedEngine(protocol={self.protocol!r}, "
            f"shards={self.shards}, active={len(self._active)}, "
            f"objects={len(self.database)}{failed})"
        )
