"""The epsilon snapshot read cache: store mechanics, fast-path reads,
bound-exactly-at-limit edges, and the engine-equivalence oracle."""

from __future__ import annotations

import random

import pytest

from repro.core.bounds import ObjectBounds, TransactionBounds
from repro.core.hierarchy import ROOT_GROUP, GroupCatalog
from repro.engine.database import Database
from repro.engine.manager import TransactionManager
from repro.engine.results import CASE_LATE_READ, Granted
from repro.engine.snapshot import SnapshotStore, snapshot_read


def grouped_database() -> Database:
    catalog = GroupCatalog()
    catalog.add_group("hot")
    catalog.add_group("cold")
    database = Database(catalog=catalog)
    for object_id in (1, 2, 3):
        database.create_object(object_id, 10.0 * object_id, group="hot")
    for object_id in (4, 5):
        database.create_object(object_id, 10.0 * object_id, group="cold")
    return database


def make_manager(database: Database | None = None) -> TransactionManager:
    return TransactionManager(
        database if database is not None else grouped_database(),
        snapshot_cache=True,
    )


class TestSnapshotStore:
    def test_bootstrap_publishes_every_object(self):
        manager = make_manager()
        store = manager.snapshot
        assert store is not None and len(store) == 5
        entry = store.entry(3)
        assert entry.value == 30.0
        assert entry.cumulative_divergence == 0.0
        assert entry.pending_delta == 0.0

    def test_disabled_by_default(self):
        assert TransactionManager(grouped_database()).snapshot is None

    def test_non_esr_protocol_never_builds_a_store(self):
        manager = TransactionManager(
            grouped_database(), protocol="sr", snapshot_cache=True
        )
        assert manager.snapshot is None

    def test_publish_accumulates_cumulative_divergence(self):
        manager = make_manager()
        for value in (13.0, 18.0):
            writer = manager.begin("update", TransactionBounds(export_limit=1e9))
            manager.write(writer, 1, value)
            manager.commit(writer)
        entry = manager.snapshot.entry(1)
        assert entry.value == 18.0
        assert entry.cumulative_divergence == 3.0 + 5.0

    def test_pending_write_tracked_and_cleared_on_commit(self):
        manager = make_manager()
        store = manager.snapshot
        writer = manager.begin("update", TransactionBounds(export_limit=1e9))
        manager.write(writer, 1, 14.0)
        assert store.entry(1).pending_delta == 4.0
        assert store.group_inflight("hot") == 4.0
        assert store.root_inflight == 4.0
        assert store.group_inflight("cold") == 0.0
        manager.commit(writer)
        assert store.entry(1).pending_delta == 0.0
        assert store.root_inflight == 0.0
        assert store.entry(1).value == 14.0

    def test_pending_write_cleared_on_abort(self):
        manager = make_manager()
        store = manager.snapshot
        writer = manager.begin("update", TransactionBounds(export_limit=1e9))
        manager.write(writer, 2, 99.0)
        assert store.entry(2).pending_delta == 79.0
        manager.abort(writer, "test")
        assert store.entry(2).pending_delta == 0.0
        assert store.root_inflight == 0.0
        assert store.entry(2).value == 20.0  # committed value untouched


class TestCachedReadFastPath:
    def test_clean_hit_is_free(self):
        manager = make_manager()
        query = manager.begin("query", TransactionBounds(import_limit=0.0))
        outcome = manager.read_cached(query, 1)
        assert outcome == Granted(value=10.0, inconsistency=0.0, esr_case=None)
        assert query.account.total == 0.0
        assert manager.snapshot.hits == 1

    def test_stale_hit_charges_exactly_case1(self):
        manager = make_manager()
        query = manager.begin("query", TransactionBounds(import_limit=100.0))
        writer = manager.begin("update", TransactionBounds(export_limit=1e9))
        manager.write(writer, 1, 16.0)
        manager.commit(writer)
        outcome = manager.read_cached(query, 1)
        # Served the committed snapshot (16), proper for the query's
        # older timestamp is 10 — a Case-1 late read charging 6.
        assert outcome == Granted(
            value=16.0, inconsistency=6.0, esr_case=CASE_LATE_READ
        )
        assert query.account.total == 6.0
        assert manager.snapshot.divergence_charged == 6.0

    def test_update_reads_fall_back(self):
        manager = make_manager()
        update = manager.begin("update", TransactionBounds(export_limit=1e9))
        assert manager.read_cached(update, 1) is None
        assert manager.snapshot.fallbacks == 1

    def test_own_write_falls_back(self):
        manager = make_manager()
        update = manager.begin(
            "update", TransactionBounds(import_limit=1e9, export_limit=1e9)
        )
        manager.write(update, 1, 11.0)
        # The snapshot only holds committed state; a transaction with a
        # staged write must read its own value through the engine (an
        # update's import limit does not make it a snapshot reader).
        assert manager.read_cached(update, 1) is None

    def test_finished_transaction_falls_back(self):
        manager = make_manager()
        query = manager.begin("query", TransactionBounds(import_limit=1e9))
        manager.commit(query)
        assert manager.read_cached(query, 1) is None

    def test_unpublished_object_is_a_miss(self):
        manager = make_manager()
        manager.database.create_object(99, 1.0)  # after bootstrap
        query = manager.begin("query", TransactionBounds(import_limit=1e9))
        assert manager.read_cached(query, 99) is None
        assert manager.snapshot.misses == 1

    def test_pending_delta_guards_but_never_charges(self):
        manager = make_manager()
        writer = manager.begin("update", TransactionBounds(export_limit=1e9))
        manager.write(writer, 1, 14.0)  # staged, uncommitted: delta 4
        tight = manager.begin("query", TransactionBounds(import_limit=3.0))
        assert manager.read_cached(tight, 1) is None  # guarded 4 > til 3
        assert tight.account.total == 0.0
        roomy = manager.begin("query", TransactionBounds(import_limit=4.0))
        outcome = manager.read_cached(roomy, 1)
        # Serves the *committed* value — consistent, so zero charge even
        # though the pending delta was tested against the bounds.
        assert outcome == Granted(value=10.0, inconsistency=0.0, esr_case=None)
        assert roomy.account.total == 0.0

    def test_fallback_leaves_no_partial_charge(self):
        manager = make_manager()
        query = manager.begin("query", TransactionBounds(import_limit=5.0))
        writer = manager.begin("update", TransactionBounds(export_limit=1e9))
        manager.write(writer, 1, 16.0)
        manager.commit(writer)
        assert manager.read_cached(query, 1) is None  # staleness 6 > til 5
        assert query.account.total == 0.0
        assert dict(query.account.level_snapshot())[ROOT_GROUP][0] == 0.0


class TestBoundExactlyAtLimit:
    """Inclusive admission at every level: usage + charge == limit fits."""

    def _stale_setup(self, manager: TransactionManager, **begin_kw):
        query = manager.begin("query", **begin_kw)
        writer = manager.begin("update", TransactionBounds(export_limit=1e9))
        manager.write(writer, 1, 16.0)  # staleness 6 for the older query
        manager.commit(writer)
        return query

    def test_til_exactly_at_limit_admits(self):
        manager = make_manager()
        query = self._stale_setup(
            manager, bounds=TransactionBounds(import_limit=6.0)
        )
        outcome = manager.read_cached(query, 1)
        assert outcome is not None and outcome.inconsistency == 6.0
        assert query.account.total == 6.0  # the TIL is now exhausted

    def test_til_just_under_falls_back(self):
        manager = make_manager()
        query = self._stale_setup(
            manager, bounds=TransactionBounds(import_limit=5.999)
        )
        assert manager.read_cached(query, 1) is None

    def test_oil_exactly_at_limit_admits(self):
        database = grouped_database()
        database.get(1).bounds = ObjectBounds(import_limit=6.0)
        manager = make_manager(database)
        query = self._stale_setup(
            manager, bounds=TransactionBounds(import_limit=1e9)
        )
        assert manager.read_cached(query, 1) is not None

    def test_oil_just_under_falls_back(self):
        database = grouped_database()
        database.get(1).bounds = ObjectBounds(import_limit=5.999)
        manager = make_manager(database)
        query = self._stale_setup(
            manager, bounds=TransactionBounds(import_limit=1e9)
        )
        assert manager.read_cached(query, 1) is None

    def test_per_transaction_oil_override_applies(self):
        database = grouped_database()
        database.get(1).bounds = ObjectBounds(import_limit=0.0)
        manager = make_manager(database)
        query = self._stale_setup(
            manager,
            bounds=TransactionBounds(import_limit=1e9),
            object_limits={1: 6.0},
        )
        assert manager.read_cached(query, 1) is not None

    def test_gil_exactly_at_limit_admits(self):
        manager = make_manager()
        query = self._stale_setup(
            manager,
            bounds=TransactionBounds(import_limit=1e9),
            group_limits={"hot": 6.0},
        )
        assert manager.read_cached(query, 1) is not None
        assert dict(query.account.level_snapshot())["hot"] == (6.0, 6.0)

    def test_gil_just_under_falls_back(self):
        manager = make_manager()
        query = self._stale_setup(
            manager,
            bounds=TransactionBounds(import_limit=1e9),
            group_limits={"hot": 5.999},
        )
        assert manager.read_cached(query, 1) is None
        assert dict(query.account.level_snapshot())["hot"][0] == 0.0


class TestEquivalenceOracle:
    """Property test: every cache-served read is one some legal engine
    execution could also produce.

    Over a randomized workload trace, each hit must (a) return the
    committed snapshot value at serve time, (b) carry exactly the Case-1
    charge for that value at the query's timestamp, and (c) leave every
    level of the bound hierarchy within its limit, with the usage having
    grown by exactly the charge.  Each fallback must leave the ledger
    untouched.
    """

    def test_randomized_trace(self):
        rng = random.Random(20260807)
        database = grouped_database()
        manager = make_manager(database)
        store = manager.snapshot
        object_ids = (1, 2, 3, 4, 5)
        queries = []

        def begin_query():
            til = rng.choice((0.0, 5.0, 25.0, 1e6))
            group_limits = (
                {"hot": rng.choice((0.0, 10.0, 50.0))}
                if rng.random() < 0.5
                else None
            )
            queries.append(
                manager.begin(
                    "query",
                    TransactionBounds(import_limit=til),
                    group_limits=group_limits,
                )
            )

        def writer_step():
            writer = manager.begin(
                "update", TransactionBounds(export_limit=1e9)
            )
            object_id = rng.choice(object_ids)
            manager.write(
                writer, object_id, round(rng.uniform(0.0, 60.0), 1)
            )
            if rng.random() < 0.25:
                manager.abort(writer, "oracle-chaos")
            else:
                manager.commit(writer)

        def finish_query():
            if queries:
                manager.commit(queries.pop(rng.randrange(len(queries))))

        def cached_read():
            if not queries:
                return
            txn = rng.choice(queries)
            object_id = rng.choice(object_ids)
            account = txn.import_account
            before = account.level_snapshot()
            total_before = account.total
            outcome = manager.read_cached(txn, object_id)
            entry = store.entry(object_id)
            if outcome is None:
                # Downgrade, never a rejection: the ledger is untouched.
                assert account.level_snapshot() == before
                assert account.total == total_before
                return
            # (a) the value is the committed snapshot at serve time.
            assert outcome.value == entry.value
            # (b) the charge is exactly the Case-1 staleness of that
            # value at the transaction's own timestamp.
            if txn.timestamp < entry.commit_ts:
                expected = abs(
                    entry.value - entry.proper_value_for(txn.timestamp)
                )
            else:
                expected = 0.0
            assert outcome.inconsistency == expected
            assert (outcome.esr_case == CASE_LATE_READ) == (expected > 0.0)
            assert account.total == total_before + expected
            # (c) every bounded level on the object's path grew by the
            # charge and stays within its limit — no level was
            # overdrawn to serve this; levels off the path are untouched.
            path = set(database.catalog.path(object_id))
            after = account.level_snapshot()
            for level, (usage, limit) in after.items():
                grew = expected if level in path else 0.0
                assert usage == pytest.approx(before[level][0] + grew)
                if level in path:
                    assert usage <= limit

        steps = {
            begin_query: 0.2,
            writer_step: 0.3,
            cached_read: 0.4,
            finish_query: 0.1,
        }
        actions, weights = zip(*steps.items())
        for _ in range(600):
            rng.choices(actions, weights)[0]()
        assert store.hits > 50  # the trace exercised the fast path
        assert store.fallbacks > 10  # ...and its bound guards


class TestSnapshotReadDirect:
    """snapshot_read unit edges not reachable through the manager."""

    def test_store_without_catalog_groups(self):
        database = Database()
        database.create_many((i, float(i)) for i in (1, 2))
        manager = TransactionManager(database, snapshot_cache=True)
        query = manager.begin("query", TransactionBounds(import_limit=0.0))
        outcome = snapshot_read(manager.snapshot, query, 2)
        assert outcome == Granted(value=2.0, inconsistency=0.0, esr_case=None)

    def test_stats_shape(self):
        manager = make_manager()
        stats = manager.snapshot.stats()
        assert set(stats) == {
            "hits",
            "misses",
            "fallbacks",
            "divergence_charged",
        }


def _expect(step: str, outcome) -> None:
    if outcome != Granted(value=1_000.0):
        raise RuntimeError(f"{step} gave {outcome!r}, not x = y = 1000")


def _cached_read_history(shards: int, bounds_above_zero: bool):
    """ROADMAP item 17's two histories on ``x = y = 1000``.

    Every bound 0: Q (ts 10) reads ``x`` through the cache; U (ts 5)
    reads ``x`` and ``y``, writes 900 and 1100 and commits; Q reads
    ``y`` and commits.  Bounds above 0: Q (ts 10, TIL 100) reads ``x``
    through the cache; U (ts 5, TEL 0) writes 1500 and commits.

    Returns U's write outcomes and the recorded log.  A step that does
    not go as written raises ``RuntimeError``, never ``AssertionError``:
    the strict xfails below can then be met only by U's write.
    """
    from repro.engine.api import create_engine
    from repro.engine.history import HistoryLog
    from repro.engine.timestamps import Timestamp

    database = Database()
    database.create_many((object_id, 1_000.0) for object_id in (1, 2))
    engine = create_engine(
        database, "esr", snapshot_cache=True, shards=shards, record_history=True
    )
    try:
        til = 100.0 if bounds_above_zero else 0.0
        q = engine.begin(
            "query", TransactionBounds(import_limit=til), timestamp=Timestamp(10.0)
        )
        _expect("Q's cached read of x", engine.read_cached(q, 1))
        u = engine.begin("update", TransactionBounds(), timestamp=Timestamp(5.0))
        if bounds_above_zero:
            writes = [engine.write(u, 1, 1_500.0)]
        else:
            _expect("U's read of x", engine.read(u, 1))
            _expect("U's read of y", engine.read(u, 2))
            writes = [engine.write(u, 1, 900.0), engine.write(u, 2, 1_100.0)]
        if u.is_active:
            engine.commit(u)
        if not bounds_above_zero and q.is_active:
            engine.read(q, 2)
        if q.is_active:
            engine.commit(q)
        return writes, HistoryLog.from_engine(engine)
    finally:
        close = getattr(engine, "close", None)
        if close:
            close()


class TestCachedReadLeavesNoTrace:
    """ROADMAP item 17: a cache-served read registers nothing on the live
    object, so a later late write escapes Case 3.  Pinned on the bare
    engine and on two thread shards until the cache is deleted."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 17: the snapshot cache's read leaves no read "
        "timestamp or reader entry, so U's late write is admitted",
    )
    @pytest.mark.parametrize("bounds_above_zero", [False, True])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_late_write_after_a_cached_read_is_refused(
        self, shards, bounds_above_zero
    ):
        writes, _log = _cached_read_history(shards, bounds_above_zero)
        assert type(writes[0]) is not Granted

    @pytest.mark.parametrize("bounds_above_zero", [False, True])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_history_runs_as_written(self, shards, bounds_above_zero):
        writes, log = _cached_read_history(shards, bounds_above_zero)
        assert len(writes) == (1 if bounds_above_zero else 2)
        reads = [event for event in log.events if event.kind == "read"]
        assert (reads[0].object_id, reads[0].cached) == (1, True)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_checker_flags_the_zero_bound_history(self, shards):
        from repro.check import check_log

        _writes, log = _cached_read_history(shards, bounds_above_zero=False)
        kinds = {violation.kind for violation in check_log(log).violations}
        assert "serialization-cycle" in kinds
