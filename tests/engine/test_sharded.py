"""Tests for the sharded engine composite.

Three angles:

* **Equivalence** — a deterministic single-threaded operation trace must
  produce bit-identical outcomes, metrics, and committed state whether it
  runs on a bare manager, on ``ShardedEngine(shards=1)``, or on any other
  shard count (single-threaded, shard routing must be unobservable).
* **Cross-shard bound accounting** — TIL and GIL span shards through the
  shared ledger, and exactly-at-limit admission semantics must hold even
  when the charges land on different shards.
* **Concurrency oracle** — under real threads, no transaction may ever
  exceed its bound at any level of the hierarchy, and committed state must
  be traceable to committed writes.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.bounds import TransactionBounds
from repro.engine.api import (
    PROTOCOLS,
    create_engine,
    protocol_spec,
    validate_protocol_options,
)
from repro.engine.database import Database
from repro.engine.manager import TransactionManager
from repro.engine.mvto import MVTOManager
from repro.engine.results import Granted, MustWait, Rejected
from repro.engine.sharded import (
    _SELF_FIRE_BACKOFF_CAP,
    _SharedWaitRegistry,
    ShardedEngine,
)
from repro.engine.transactions import TransactionStatus
from repro.engine.twopl import TwoPhaseManager
from repro.errors import SpecificationError

from .topology import TOPOLOGIES, build_engine


def _database(n_objects: int = 12, value: float = 1_000.0) -> Database:
    db = Database()
    for index in range(n_objects):
        db.create_object(index, value=value)
    return db


# The one shard composite runs on three topologies — thread shards,
# worker-process shards, and worker-process shards with shard 0 failed
# over (an in-process backend inside a worker-backed composite);
# everything in this module that drives a composite runs against all
# three.
@pytest.fixture(params=list(TOPOLOGIES.values()), ids=list(TOPOLOGIES))
def proc_mode(request):
    return request.param


@pytest.fixture
def make_engine():
    created: list = []

    def make(database, protocol, **kwargs):
        engine = build_engine(database, protocol, **kwargs)
        created.append(engine)
        return engine

    yield make
    for engine in created:
        engine.close()


# ---------------------------------------------------------------------------
# Deterministic trace equivalence
# ---------------------------------------------------------------------------


def _make_trace(seed: int, n_ops: int = 400, n_objects: int = 12, n_slots: int = 4):
    """A reproducible mixed workload over a handful of transaction slots."""
    rng = random.Random(seed)
    ops = []
    live: dict[int, str] = {}
    for _ in range(n_ops):
        slot = rng.randrange(n_slots)
        if slot not in live:
            kind = rng.choice(["query", "update"])
            limit = rng.choice([0.0, 25.0, 400.0, 1e9])
            ops.append(("begin", slot, kind, limit))
            live[slot] = kind
        else:
            roll = rng.random()
            if roll < 0.55:
                object_id = rng.randrange(n_objects)
                if live[slot] == "update" and rng.random() < 0.5:
                    value = round(rng.uniform(0.0, 2_000.0), 1)
                    ops.append(("write", slot, object_id, value))
                else:
                    ops.append(("read", slot, object_id))
            elif roll < 0.8:
                ops.append(("commit", slot))
                del live[slot]
            else:
                ops.append(("abort", slot))
                del live[slot]
    for slot in live:
        ops.append(("commit", slot))
    return ops


def _drive(manager, trace):
    """Run a trace single-threaded; return (outcome log, metrics, state)."""
    log = []
    txns = {}
    for step in trace:
        op = step[0]
        if op == "begin":
            _, slot, kind, limit = step
            if kind == "query":
                bounds = TransactionBounds(import_limit=limit)
            else:
                bounds = TransactionBounds(export_limit=limit)
            txn = manager.begin(kind, bounds)
            txns[slot] = txn
            log.append(("begin", kind, txn.transaction_id))
        elif op in ("read", "write"):
            txn = txns[step[1]]
            if not txn.is_active:
                log.append(("dead", step[1]))
                continue
            if op == "read":
                outcome = manager.read(txn, step[2])
            else:
                outcome = manager.write(txn, step[2], step[3])
            log.append(
                (
                    op,
                    step[2],
                    type(outcome).__name__,
                    getattr(outcome, "value", None),
                    getattr(outcome, "inconsistency", None),
                    getattr(outcome, "esr_case", None),
                    getattr(outcome, "reason", None),
                )
            )
            if isinstance(outcome, MustWait):
                # A single-threaded driver cannot wait on itself.
                manager.abort(txn, "trace-wait")
        elif op == "commit":
            txn = txns.pop(step[1])
            if txn.is_active:
                manager.commit(txn)
                log.append(("commit", txn.transaction_id, txn.status))
            else:
                log.append(("finished", txn.transaction_id, txn.status))
        else:
            txn = txns.pop(step[1])
            if txn.is_active:
                manager.abort(txn)
                log.append(("abort", txn.transaction_id))
            else:
                log.append(("finished", txn.transaction_id, txn.status))
    state = {
        object_id: manager.database.get(object_id).committed_value
        for object_id in sorted(manager.database.object_ids())
    }
    return log, manager.metrics.snapshot(), state


BARE_TYPES = {
    "esr": TransactionManager,
    "sr": TransactionManager,
    "2pl": TwoPhaseManager,
    "2pl-sr": TwoPhaseManager,
    "mvto": MVTOManager,
}


class TestTraceEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_one_shard_matches_bare_manager(self, protocol):
        trace = _make_trace(7)
        bare = create_engine(_database(), protocol)
        assert isinstance(bare, BARE_TYPES[protocol])
        # ``create_engine`` only builds the composite above one shard, so
        # construct the degenerate single-shard composite directly.
        sharded = ShardedEngine(_database(), protocol, shards=1)
        assert _drive(bare, trace) == _drive(sharded, trace)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("shards", [2, 5])
    def test_shard_count_unobservable_single_threaded(
        self, protocol, shards, proc_mode, make_engine
    ):
        trace = _make_trace(11)
        baseline = _drive(create_engine(_database(), protocol), trace)
        routed = _drive(
            make_engine(
                _database(), protocol, shards=shards, processes=proc_mode
            ),
            trace,
        )
        assert baseline == routed

    def test_trace_exercises_every_outcome_kind(self):
        # Guard against the equivalence tests silently degenerating.
        log, _, _ = _drive(create_engine(_database(), "esr"), _make_trace(7))
        names = {entry[2] for entry in log if entry[0] in ("read", "write")}
        assert {"Granted", "Rejected"} <= names


# ---------------------------------------------------------------------------
# Cross-shard hierarchical bounds, exactly-at-limit semantics
# ---------------------------------------------------------------------------


class TestCrossShardBounds:
    """Objects 0 and 1 land on different shards (``object_id % 2``); a
    writer that began *after* the query commits divergence 50 to object 0
    and 30 to object 1, making the query's reads late reads of committed
    data (ESR case 1) whose import charges span shards.  Runs against
    both composites: in process mode the charges land in different
    worker *processes* and must still share one exact ledger."""

    def _commit_late_writes(self, engine):
        writer = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(writer, 0, 150.0), Granted)  # d = 50
        assert isinstance(engine.write(writer, 1, 130.0), Granted)  # d = 30
        engine.commit(writer)

    def test_til_spans_shards_exactly_at_limit(self, proc_mode, make_engine):
        engine = make_engine(
            _database(4, value=100.0), "esr", shards=2, processes=proc_mode
        )
        # 50 + 30 == 80: exactly at the limit must be admitted.
        query = engine.begin("query", TransactionBounds(import_limit=80.0))
        self._commit_late_writes(engine)
        first = engine.read(query, 0)
        assert isinstance(first, Granted) and first.inconsistency == 50.0
        assert first.esr_case == "late-read-committed"
        second = engine.read(query, 1)
        assert isinstance(second, Granted) and second.inconsistency == 30.0
        engine.commit(query)
        assert query.imported == 80.0

    def test_til_spans_shards_just_over_limit(self, proc_mode, make_engine):
        engine = make_engine(
            _database(4, value=100.0), "esr", shards=2, processes=proc_mode
        )
        query = engine.begin("query", TransactionBounds(import_limit=79.0))
        self._commit_late_writes(engine)
        assert isinstance(engine.read(query, 0), Granted)
        second = engine.read(query, 1)
        assert isinstance(second, Rejected)
        assert second.reason == "bound-violation"
        assert not query.is_active

    def test_oil_is_shard_local(self, proc_mode, make_engine):
        engine = make_engine(
            _database(4, value=100.0), "esr", shards=2, processes=proc_mode
        )
        # Per-object caps: exactly 50 admits object 0's divergence, 29
        # rejects object 1's 30; the TIL stays unbounded throughout.
        query = engine.begin(
            "query",
            TransactionBounds(import_limit=1e9),
            object_limits={0: 50.0, 1: 29.0},
        )
        self._commit_late_writes(engine)
        assert isinstance(engine.read(query, 0), Granted)
        rejected = engine.read(query, 1)
        assert isinstance(rejected, Rejected)
        assert rejected.reason == "bound-violation"

    def test_gil_spans_shards(self, proc_mode, make_engine):
        def build():
            db = Database()
            db.catalog.add_group("hot")
            for index in range(4):
                db.create_object(
                    index, value=100.0, group="hot" if index < 2 else None
                )
            return make_engine(db, "esr", shards=2, processes=proc_mode)

        # Group budget of exactly 80 admits both reads (objects 0 and 1
        # live on different shards but share the group ledger) ...
        engine = build()
        roomy = engine.begin(
            "query",
            TransactionBounds(import_limit=1e9),
            group_limits={"hot": 80.0},
        )
        self._commit_late_writes(engine)
        assert isinstance(engine.read(roomy, 0), Granted)
        assert isinstance(engine.read(roomy, 1), Granted)
        engine.commit(roomy)
        # ... and a budget of 79 rejects the second read.
        engine = build()
        tight = engine.begin(
            "query",
            TransactionBounds(import_limit=1e9),
            group_limits={"hot": 79.0},
        )
        self._commit_late_writes(engine)
        assert isinstance(engine.read(tight, 0), Granted)
        rejected = engine.read(tight, 1)
        assert isinstance(rejected, Rejected)
        assert rejected.reason == "bound-violation"

    def test_tel_spans_shards_for_late_writes(self, proc_mode, make_engine):
        engine = make_engine(
            _database(4, value=100.0), "esr", shards=2, processes=proc_mode
        )
        # A query with a pinned-future timestamp reads objects on both
        # shards, so later writes are ESR case 3 (late write past a query
        # read) and charge the writer's export account across shards.
        from repro.engine.timestamps import Timestamp

        query = engine.begin(
            "query",
            TransactionBounds(import_limit=1e9),
            timestamp=Timestamp(float("inf"), site=9),
        )
        assert isinstance(engine.read(query, 0), Granted)
        assert isinstance(engine.read(query, 1), Granted)
        writer = engine.begin("update", TransactionBounds(export_limit=80.0))
        first = engine.write(writer, 0, 150.0)  # exports 50 to the query
        assert isinstance(first, Granted) and first.esr_case == "late-write"
        second = engine.write(writer, 1, 130.0)  # 50 + 30 == 80: admitted
        assert isinstance(second, Granted)
        engine.commit(writer)
        assert writer.exported == 80.0
        over = engine.begin("update", TransactionBounds(export_limit=79.0))
        assert isinstance(engine.write(over, 0, 150.0), Granted)
        rejected = engine.write(over, 1, 130.0)
        assert isinstance(rejected, Rejected)
        assert rejected.reason == "bound-violation"
        engine.abort(query)


# ---------------------------------------------------------------------------
# Threaded oracle: the hierarchy holds under real concurrency
# ---------------------------------------------------------------------------


class TestThreadedOracle:
    N_OBJECTS = 16
    N_THREADS = 6
    TXNS_PER_THREAD = 40

    def _worker(self, engine, seed, finished, errors):
        rng = random.Random(seed)
        try:
            for _ in range(self.TXNS_PER_THREAD):
                limit = rng.choice([0.0, 50.0, 200.0, 1e9])
                if rng.random() < 0.5:
                    txn = engine.begin(
                        "query", TransactionBounds(import_limit=limit)
                    )
                else:
                    txn = engine.begin(
                        "update", TransactionBounds(export_limit=limit)
                    )
                committed_writes = []
                for _ in range(rng.randrange(1, 6)):
                    object_id = rng.randrange(self.N_OBJECTS)
                    if txn.is_update and rng.random() < 0.5:
                        value = rng.uniform(0.0, 2_000.0)
                        outcome = engine.write(txn, object_id, value)
                        if isinstance(outcome, Granted):
                            committed_writes.append((object_id, value))
                    else:
                        outcome = engine.read(txn, object_id)
                    if isinstance(outcome, MustWait):
                        engine.abort(txn, "oracle-wait")
                        break
                    if isinstance(outcome, Rejected):
                        break
                if txn.is_active:
                    if rng.random() < 0.85:
                        engine.commit(txn)
                    else:
                        engine.abort(txn)
                if txn.status is not TransactionStatus.COMMITTED:
                    committed_writes = []
                finished.append((limit, txn, committed_writes))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def test_bounds_hold_under_threads(self, proc_mode, make_engine):
        engine = make_engine(
            _database(self.N_OBJECTS, value=1_000.0),
            "esr",
            shards=4,
            processes=proc_mode,
        )
        finished: list = []
        errors: list = []
        threads = [
            threading.Thread(
                target=self._worker, args=(engine, 100 + i, finished, errors)
            )
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(finished) == self.N_THREADS * self.TXNS_PER_THREAD
        assert engine.active_transactions() == ()
        slack = 1e-9
        writes_by_object: dict[int, set[float]] = {}
        for limit, txn, committed_writes in finished:
            assert txn.status is not TransactionStatus.ACTIVE
            if txn.is_query:
                assert txn.imported <= limit + slack
            else:
                assert txn.exported <= limit + slack
            for object_id, value in committed_writes:
                writes_by_object.setdefault(object_id, set()).add(value)
        # Committed state is traceable: every final value is either the
        # initial value or something a committed transaction wrote.
        for object_id in range(self.N_OBJECTS):
            final = engine.database.get(object_id).committed_value
            candidates = writes_by_object.get(object_id, set()) | {1_000.0}
            assert final in candidates
        snapshot = engine.metrics.snapshot()
        assert snapshot.commits + snapshot.aborts == len(finished)


# ---------------------------------------------------------------------------
# Self-fire backoff: no busy-spin when the blocker commits late
# ---------------------------------------------------------------------------


class TestSelfFireBackoff:
    """``_SharedWaitRegistry.subscribe`` fires the callback immediately
    when the blocker is no longer active.  When the blocker is mid-
    completion (popped from the active map but still finishing its last
    shard), a waiter that retries on every self-fire used to spin through
    subscribe → retry → MustWait → subscribe as fast as the interpreter
    allowed.  Repeated self-fires against a *completing* blocker now
    sleep a capped exponential backoff first."""

    def _registry(self, active=(), completing=()):
        return _SharedWaitRegistry(
            lambda txn: txn in active, lambda txn: txn in completing
        )

    def test_self_fire_on_completed_blocker_is_immediate(self):
        registry = self._registry()  # blocker neither active nor completing
        fired = []
        started = time.perf_counter()
        for _ in range(50):
            registry.subscribe(9, lambda: fired.append(1), waiter_transaction=1)
        assert len(fired) == 50
        # No completing blocker, no backoff: 50 subscribes are instant.
        assert time.perf_counter() - started < _SELF_FIRE_BACKOFF_CAP * 10

    def test_repeated_self_fires_against_completing_blocker_back_off(self):
        registry = self._registry(completing={9})
        fired = []
        started = time.perf_counter()
        for _ in range(10):
            registry.subscribe(9, lambda: fired.append(1), waiter_transaction=1)
        elapsed = time.perf_counter() - started
        assert len(fired) == 10  # the callback always still fires
        # Doubling from 0.1 ms reaches the 5 ms cap within the loop, so
        # ten retries must have slept a measurable total (~28 ms) — the
        # unbacked-off loop ran in microseconds.
        assert elapsed >= _SELF_FIRE_BACKOFF_CAP
        assert registry._self_fires[(1, 9)] == 10

    def test_fire_resets_the_backoff_counter(self):
        registry = self._registry(completing={9})
        registry.subscribe(9, lambda: None, waiter_transaction=1)
        assert registry._self_fires[(1, 9)] == 1
        registry.fire(9)
        assert (1, 9) not in registry._self_fires

    def test_normal_park_resets_the_backoff_counter(self):
        active = {9}
        completing = set()
        registry = _SharedWaitRegistry(
            lambda txn: txn in active, lambda txn: txn in completing
        )
        completing.add(9)
        active.discard(9)
        registry.subscribe(9, lambda: None, waiter_transaction=1)
        assert registry._self_fires[(1, 9)] == 1
        # The blocker becomes active again (a fresh transaction id reusing
        # the slot is equivalent); a real park clears the stale counter.
        active.add(9)
        completing.discard(9)
        registry.subscribe(9, lambda: None, waiter_transaction=1)
        assert (1, 9) not in registry._self_fires

    def test_no_spin_when_blocker_commits_late(self, proc_mode, make_engine):
        """End-to-end: a server-style wait/retry loop against a writer
        whose commit stalls on another shard retries a bounded number of
        times instead of busy-spinning for the whole completion window."""
        engine = make_engine(
            _database(4, value=100.0), "esr", shards=2, processes=proc_mode
        )
        writer = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(writer, 0, 150.0), Granted)
        assert isinstance(engine.write(writer, 1, 130.0), Granted)

        # Make the writer's completion stall *inside* the completing
        # window: shard 0 finishes slowly while shard 1 (where the
        # waiter's object lives) stays pending behind it, so retries see
        # a blocker that is gone from the active map but not yet done.
        entered = threading.Event()
        backend = engine._shards[0]
        original_complete = backend.complete

        def slow_complete(txn, status, reason):
            if txn.transaction_id == writer.transaction_id:
                entered.set()
                time.sleep(0.15)
            return original_complete(txn, status, reason)

        backend.complete = slow_complete

        query = engine.begin("query", TransactionBounds(import_limit=0.0))
        committer = threading.Thread(target=engine.commit, args=(writer,))
        committer.start()
        try:
            assert entered.wait(2.0)
            retries = 0
            while True:
                outcome = engine.read(query, 1)
                if isinstance(outcome, Granted):
                    break
                assert isinstance(outcome, MustWait)
                retries += 1
                assert retries < 500, "waiter is busy-spinning"
                event = engine.waits.wait_event(
                    outcome.blocking_transaction,
                    waiter_transaction=query.transaction_id,
                )
                event.wait(1.0)
            assert outcome.value == 130.0
        finally:
            committer.join()
        engine.commit(query)
        # The 150 ms completion stall admits at most ~35 capped-backoff
        # retries; the pre-backoff loop spun thousands of times.
        assert retries < 100


# ---------------------------------------------------------------------------
# Registry and validation agreement (satellites 1 and 2)
# ---------------------------------------------------------------------------


class TestRegistryAgreement:
    def test_registry_contents(self):
        assert PROTOCOLS == ("esr", "sr", "2pl", "2pl-sr", "mvto")
        for name in PROTOCOLS:
            spec = protocol_spec(name)
            assert spec.name == name
            engine = create_engine(_database(2), name)
            assert isinstance(engine, BARE_TYPES[name])

    def test_unknown_protocol_rejected_everywhere(self):
        with pytest.raises(SpecificationError):
            protocol_spec("serializable")
        with pytest.raises(SpecificationError):
            create_engine(_database(2), "serializable")

    def test_snapshot_cache_requires_esr(self):
        validate_protocol_options("esr", snapshot_cache=True)
        for name in ("sr", "2pl", "2pl-sr", "mvto"):
            with pytest.raises(SpecificationError):
                validate_protocol_options(name, snapshot_cache=True)
            with pytest.raises(SpecificationError):
                create_engine(_database(2), name, snapshot_cache=True)

    def test_shard_count_validated(self):
        with pytest.raises(SpecificationError):
            validate_protocol_options("esr", shards=0)
        with pytest.raises(SpecificationError):
            create_engine(_database(2), "esr", shards=0)
