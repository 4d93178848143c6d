"""Engine corner cases that the main suites step around."""

from __future__ import annotations

import pytest

from repro.core.bounds import HIGH_EPSILON, TransactionBounds
from repro.engine.database import Database
from repro.engine.manager import TransactionManager
from repro.engine.objects import DataObject
from repro.engine.results import Granted
from repro.engine.timestamps import Timestamp


@pytest.fixture
def manager() -> TransactionManager:
    db = Database()
    db.create_many((i, 1_000.0) for i in range(1, 6))
    return TransactionManager(db)


class TestRepeatedAccess:
    def test_double_write_commits_one_version(self, manager):
        txn = manager.begin("update", HIGH_EPSILON)
        manager.write(txn, 1, 1_100.0)
        manager.write(txn, 1, 1_200.0)
        manager.commit(txn)
        obj = manager.database.get(1)
        assert obj.committed_value == 1_200.0
        # Only the final value became a version (single staged slot).
        committed = [v for v in obj.versions() if v.value in (1_100.0, 1_200.0)]
        assert [v.value for v in committed] == [1_200.0]

    def test_double_write_abort_restores_original(self, manager):
        txn = manager.begin("update", HIGH_EPSILON)
        manager.write(txn, 1, 1_100.0)
        manager.write(txn, 1, 1_200.0)
        manager.abort(txn)
        assert manager.database.get(1).committed_value == 1_000.0

    def test_repeated_read_same_object(self, manager):
        query = manager.begin("query", HIGH_EPSILON)
        first = manager.read(query, 1)
        second = manager.read(query, 1)
        assert first == second
        assert query.operations == 2

    def test_read_own_write_then_commit(self, manager):
        txn = manager.begin("update", HIGH_EPSILON)
        manager.write(txn, 2, 2_222.0)
        outcome = manager.read(txn, 2)
        assert outcome == Granted(value=2_222.0)
        manager.commit(txn)


class TestRepeatedImports:
    def test_import_accumulates_across_repeated_reads(self, manager):
        # Two reads of an object whose staged value changes between them:
        # each divergence charges the account separately (the paper's
        # worst case for multiple operations on one object).
        writer = manager.begin("update", HIGH_EPSILON)
        manager.write(writer, 3, 1_100.0)
        query = manager.begin("query", TransactionBounds(import_limit=500.0))
        assert manager.read(query, 3).inconsistency == 100.0
        manager.write(writer, 3, 1_300.0)
        assert manager.read(query, 3).inconsistency == 300.0
        assert query.imported == 400.0
        # Both extremes were recorded for aggregate envelopes.
        value_range = query.account.value_range(3)
        assert (value_range.minimum, value_range.maximum) == (1_100.0, 1_300.0)


class TestVersionWindowEdge:
    def test_window_one_still_serves_proper_values(self):
        db = Database(version_window=1)
        db.create_object(1, 1_000.0)
        manager = TransactionManager(db)
        query = manager.begin("query", HIGH_EPSILON)
        writer = manager.begin("update", HIGH_EPSILON)
        manager.write(writer, 1, 3_000.0)
        manager.commit(writer)
        outcome = manager.read(query, 1)
        assert isinstance(outcome, Granted)
        # With only one retained version the proper value degrades to the
        # newest committed write, so the measured divergence collapses.
        assert outcome.inconsistency == 0.0

    def test_default_window_measures_the_same_case(self):
        db = Database()  # window 20
        db.create_object(1, 1_000.0)
        manager = TransactionManager(db)
        query = manager.begin("query", HIGH_EPSILON)
        writer = manager.begin("update", HIGH_EPSILON)
        manager.write(writer, 1, 3_000.0)
        manager.commit(writer)
        outcome = manager.read(query, 1)
        assert outcome.inconsistency == 2_000.0


class TestTimestampTies:
    def test_equal_ticks_resolved_by_site(self):
        obj = DataObject(1, 500.0)
        obj.stage_write(9, Timestamp(10.0, 2, 1), 600.0)
        obj.commit_write()
        from repro.core.hierarchy import GroupCatalog
        from repro.engine.esr import esr_read_decision
        from repro.engine.transactions import TransactionKind, TransactionState

        reader = TransactionState(
            transaction_id=2,
            kind=TransactionKind.QUERY,
            timestamp=Timestamp(10.0, 1, 1),  # same ticks, lower site
            bounds=TransactionBounds(import_limit=1e9),
            catalog=GroupCatalog(),
        )
        outcome = esr_read_decision(
            obj, reader, obj.proper_value_for(reader.timestamp)
        )
        # Site 1 < site 2, so the reader is (deterministically) older and
        # its read is late — admitted through ESR with the divergence.
        assert isinstance(outcome, Granted)
        assert outcome.inconsistency == 100.0
