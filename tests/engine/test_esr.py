"""The ESR-enhanced decisions: the paper's three relaxation cases."""

from __future__ import annotations

import pytest

from repro.check import check_log
from repro.core.bounds import TransactionBounds
from repro.core.hierarchy import GroupCatalog
from repro.engine.database import Database
from repro.engine.esr import esr_read_decision, esr_write_decision
from repro.engine.history import HistoryLog
from repro.engine.objects import DataObject
from repro.engine.results import (
    CASE_LATE_READ,
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Rejected,
)
from repro.engine.timestamps import Timestamp
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)

from .topology import TOPOLOGIES, build_engine


def ts(t: float) -> Timestamp:
    return Timestamp(t, 0, 0)


def make_txn(
    kind: str, when: float, til: float = 0.0, tel: float = 0.0, txn_id: int = 1
) -> TransactionState:
    return TransactionState(
        transaction_id=txn_id,
        kind=TransactionKind(kind),
        timestamp=ts(when),
        bounds=TransactionBounds(import_limit=til, export_limit=tel),
        catalog=GroupCatalog(),
    )


def committed_write(obj: DataObject, writer: int, when: float, value: float):
    obj.stage_write(writer, ts(when), value)
    obj.commit_write()


class TestCase1LateRead:
    """A query read older than the last committed write."""

    def test_admitted_within_bounds(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 9, 20, 5_400.0)
        query = make_txn("query", 10, til=1_000.0)
        outcome = esr_read_decision(obj, query)
        # proper value for ts=10 is the initial 5000, present is 5400.
        assert outcome == Granted(
            value=5_400.0, inconsistency=400.0, esr_case=CASE_LATE_READ
        )
        assert query.account.total == 400.0

    def test_rejected_past_til(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 9, 20, 5_400.0)
        query = make_txn("query", 10, til=300.0)
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "bound-violation"
        assert query.account.total == 0.0

    def test_rejected_past_oil(self):
        from repro.core.bounds import ObjectBounds

        obj = DataObject(1, 5_000.0, ObjectBounds(import_limit=100.0))
        committed_write(obj, 9, 20, 5_400.0)
        query = make_txn("query", 10, til=1_000_000.0)
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Rejected)
        assert outcome.violated_level == "object"

    def test_per_transaction_oil_override(self):
        from repro.core.bounds import ObjectBounds

        obj = DataObject(1, 5_000.0, ObjectBounds(import_limit=100.0))
        committed_write(obj, 9, 20, 5_400.0)
        query = make_txn("query", 10, til=1_000_000.0)
        query.object_limits[1] = 500.0  # override the server-side OIL
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Granted)

    def test_zero_divergence_is_not_inconsistent(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 9, 20, 5_000.0)  # same value rewritten
        query = make_txn("query", 10, til=0.0)
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Granted)
        assert outcome.esr_case is None
        assert outcome.inconsistency == 0.0

    def test_proper_value_uses_version_list(self):
        obj = DataObject(1, 1_000.0)
        committed_write(obj, 2, 5, 2_000.0)
        committed_write(obj, 3, 20, 9_000.0)
        query = make_txn("query", 10, til=100_000.0)
        outcome = esr_read_decision(obj, query)
        # proper for ts=10 is the write at ts=5 (2000), present is 9000.
        assert outcome.inconsistency == 7_000.0


class TestCase1RejectionDetail:
    """Regression: the Case-1 rejection detail must never mention None.

    A rejected admit normally names the violated level, but an account
    that rejects without attributing a level (``violated_level is None``)
    used to produce the detail "past the None limit".  That path must
    instead report a plain late read with the timestamps involved.
    """

    def _late_read_setup(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 9, 20, 5_400.0)
        query = make_txn("query", 10, til=300.0)
        return obj, query

    def test_bound_violation_detail_names_the_level(self):
        obj, query = self._late_read_setup()
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "bound-violation"
        assert outcome.violated_level is not None
        assert f"past the {outcome.violated_level} limit" in outcome.detail
        assert "None" not in outcome.detail

    def test_unattributed_rejection_reports_late_read(self, monkeypatch):
        from repro.core.hierarchy import ChargeOutcome

        obj, query = self._late_read_setup()
        monkeypatch.setattr(
            query.account,
            "admit",
            lambda *args, **kwargs: ChargeOutcome(admitted=False),
        )
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "late-read"
        assert outcome.violated_level is None
        assert "read ts" in outcome.detail
        assert "object 1" in outcome.detail
        assert "None" not in outcome.detail


class TestCase2ReadUncommitted:
    """A query read of a pending uncommitted write."""

    def test_admitted_within_bounds(self):
        obj = DataObject(1, 5_000.0)
        obj.stage_write(9, ts(5), 5_300.0)
        query = make_txn("query", 10, til=1_000.0)
        outcome = esr_read_decision(obj, query)
        assert outcome == Granted(
            value=5_300.0, inconsistency=300.0, esr_case=CASE_READ_UNCOMMITTED
        )

    def test_bound_violation_falls_back_to_wait(self):
        obj = DataObject(1, 5_000.0)
        obj.stage_write(9, ts(5), 9_999.0)
        query = make_txn("query", 10, til=10.0)
        outcome = esr_read_decision(obj, query)
        assert outcome == MustWait(blocking_transaction=9)

    def test_bound_violation_on_late_read_rejects(self):
        obj = DataObject(1, 5_000.0)
        obj.stage_write(9, ts(20), 9_999.0)
        query = make_txn("query", 10, til=10.0)
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Rejected)

    def test_proper_value_excludes_the_pending_write(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 2, 5, 6_000.0)
        obj.stage_write(9, ts(8), 8_000.0)
        query = make_txn("query", 10, til=100_000.0)
        outcome = esr_read_decision(obj, query)
        # proper = committed 6000 (ts 5 < 10); present = staged 8000.
        assert outcome.inconsistency == 2_000.0

    def test_update_reads_are_never_relaxed(self):
        obj = DataObject(1, 5_000.0)
        obj.stage_write(9, ts(5), 5_300.0)
        update = make_txn("update", 10, tel=1_000_000.0, txn_id=2)
        outcome = esr_read_decision(obj, update)
        assert outcome == MustWait(blocking_transaction=9)

    def test_reading_own_write(self):
        obj = DataObject(1, 5_000.0)
        obj.stage_write(3, ts(10), 7_777.0)
        update = make_txn("update", 10, txn_id=3)
        assert esr_read_decision(obj, update) == Granted(value=7_777.0)


class TestCase2RejectionDetail:
    """Regression: a Case-2 rejection must identify the blocking writer.

    The detail used to stop at the violated level; diagnosing *why* a
    query was rejected needs the uncommitted writer's transaction id and
    how far its staged value has diverged from the committed one.
    """

    def _rejected(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 2, 15, 7_000.0)
        obj.stage_write(9, ts(20), 8_000.0)
        query = make_txn("query", 10, til=10.0)
        outcome = esr_read_decision(obj, query)
        assert isinstance(outcome, Rejected)
        return outcome

    def test_detail_names_the_writer_transaction(self):
        outcome = self._rejected()
        assert "uncommitted write by transaction 9" in outcome.detail

    def test_detail_reports_the_uncommitted_delta(self):
        # Inconsistency carried is |8000 - proper(10)| = 3000 but the
        # writer's own uncommitted delta is |8000 - 7000| = 1000; the
        # detail must report both, distinctly.
        outcome = self._rejected()
        assert "inconsistency 3000" in outcome.detail
        assert "delta 1000" in outcome.detail

    def test_detail_names_level_and_object(self):
        outcome = self._rejected()
        assert "object 1" in outcome.detail
        assert f"past the {outcome.violated_level} limit" in outcome.detail
        assert "None" not in outcome.detail


class TestCase3LateWrite:
    """An update write older than a query read's timestamp."""

    def _setup(self, til_reader_proper: float = 5_000.0) -> DataObject:
        obj = DataObject(1, til_reader_proper)
        # A query with a newer timestamp has read the object.
        obj.record_read(50, ts(20), True, til_reader_proper)
        return obj

    def test_admitted_within_bounds(self):
        obj = self._setup()
        update = make_txn("update", 10, tel=1_000.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 5_400.0)
        assert outcome == Granted(inconsistency=400.0, esr_case=CASE_LATE_WRITE)
        assert update.account.total == 400.0

    def test_export_is_max_over_readers(self):
        obj = DataObject(1, 5_000.0)
        obj.record_read(50, ts(20), True, 5_000.0)
        obj.record_read(51, ts(21), True, 4_000.0)
        update = make_txn("update", 10, tel=10_000.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 5_500.0)
        assert outcome.inconsistency == 1_500.0  # max(500, 1500)

    def test_rejected_past_tel(self):
        obj = self._setup()
        update = make_txn("update", 10, tel=100.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 5_400.0)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "bound-violation"

    def test_rejected_past_oel(self):
        from repro.core.bounds import ObjectBounds

        obj = DataObject(1, 5_000.0, ObjectBounds(export_limit=100.0))
        obj.record_read(50, ts(20), True, 5_000.0)
        update = make_txn("update", 10, tel=1_000_000.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 5_400.0)
        assert isinstance(outcome, Rejected)
        assert outcome.violated_level == "object"

    def test_not_relaxed_when_last_reader_was_update(self):
        obj = DataObject(1, 5_000.0)
        obj.record_read(50, ts(20), False, 5_000.0)
        update = make_txn("update", 10, tel=1_000_000.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 5_400.0)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "late-write"

    def test_committed_readers_export_nothing(self):
        # rts is newer but the reader registry is empty (query committed):
        # per the paper, export is measured against *uncommitted* readers.
        obj = DataObject(1, 5_000.0)
        obj.record_read(50, ts(20), True, 5_000.0)
        obj.forget_reader(50)
        update = make_txn("update", 10, tel=0.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 9_999.0)
        assert isinstance(outcome, Granted)
        assert outcome.inconsistency == 0.0

    def test_write_write_conflicts_never_relaxed(self):
        obj = DataObject(1, 5_000.0)
        obj.stage_write(9, ts(5), 6_000.0)
        update = make_txn("update", 10, tel=1_000_000.0, txn_id=2)
        assert esr_write_decision(obj, update, 7_000.0) == MustWait(9)
        late = make_txn("update", 2, tel=1_000_000.0, txn_id=3)
        assert isinstance(esr_write_decision(obj, late, 7_000.0), Rejected)

    def test_write_late_wrt_committed_write_rejected(self):
        obj = DataObject(1, 5_000.0)
        committed_write(obj, 9, 20, 6_000.0)
        update = make_txn("update", 10, tel=1_000_000.0, txn_id=2)
        assert isinstance(esr_write_decision(obj, update, 7_000.0), Rejected)

    def test_in_order_write_granted_without_charge(self):
        obj = DataObject(1, 5_000.0)
        obj.record_read(50, ts(5), True, 5_000.0)
        update = make_txn("update", 10, tel=0.0, txn_id=2)
        outcome = esr_write_decision(obj, update, 9_999.0)
        assert outcome == Granted()


#: The bare engine, then the shard composite on every topology.
ENGINES = {
    "bare": {},
    **{
        name: {"shards": 2, "processes": processes}
        for name, processes in TOPOLOGIES.items()
    },
}


@pytest.fixture(params=list(ENGINES.values()), ids=list(ENGINES))
def engine(request):
    db = Database()
    db.create_many((i, 1_000.0) for i in range(1, 4))
    engine = build_engine(db, **request.param)
    yield engine
    close = getattr(engine, "close", None)
    if close:
        close()


class TestStrictOrderingWaits:
    """Section 4: a conflict the bounds cannot absorb waits, on every
    engine shape — and an update ET's reads are always consistent."""

    def test_wait_policy_parks_the_reader(self, engine):
        writer = engine.begin("update")
        engine.write(writer, 1, 1_500.0)
        reader = engine.begin("query", TransactionBounds())
        outcome = engine.read(reader, 1)
        assert outcome == MustWait(writer.transaction_id)
        assert reader.is_active
        assert engine.metrics.waits == 1

    def test_default_updates_stay_consistent(self, engine):
        both = TransactionBounds(import_limit=10_000.0, export_limit=10_000.0)
        writer = engine.begin("update", both)
        engine.write(writer, 1, 1_500.0)
        # A non-zero import limit does not let an update read through.
        plain = engine.begin("update", both)
        outcome = engine.read(plain, 1)
        assert outcome == MustWait(writer.transaction_id)
        assert plain.import_account is None
        assert plain.imported == 0.0


def _lost_update_history(shape: dict, bound: float, query_commits_first: bool):
    """Updates T1 (ts 1) and T2 (ts 2) and query Q (ts 3) each read
    ``x = 1000``; then T1 writes 1010 and commits, and T2 writes 1020 and
    commits.  Returns the recorded log, which updates committed, and the
    final ``x``."""
    db = Database()
    db.create_object(1, 1_000.0)
    engine = build_engine(db, record_history=True, **shape)
    bounds = TransactionBounds(import_limit=bound, export_limit=bound)
    try:
        t1 = engine.begin("update", bounds, timestamp=ts(1))
        t2 = engine.begin("update", bounds, timestamp=ts(2))
        q = engine.begin("query", bounds, timestamp=ts(3))
        for txn in (t1, t2, q):
            assert isinstance(engine.read(txn, 1), Granted)
        if query_commits_first:
            engine.commit(q)
        committed = {}
        for txn, value in ((t1, 1_010.0), (t2, 1_020.0)):
            if isinstance(engine.write(txn, 1, value), Granted):
                engine.commit(txn)
            committed[txn] = txn.status is TransactionStatus.COMMITTED
        log = HistoryLog.from_engine(engine)
        final = engine.begin("query", timestamp=ts(10))
        x = engine.read(final, 1).value
        return log, committed[t1], committed[t2], x
    finally:
        close = getattr(engine, "close", None)
        if close:
            close()


#: ROADMAP item 1's two counterexamples: every bound 0 with Q committed
#: before the writes, and TIL/TEL 1e9 with Q still open.
LOST_UPDATE_HISTORIES = {
    "every-bound-0": (0.0, True),
    "unbounded": (1e9, False),
}


class TestLostUpdate:
    """Update ETs must stay serializable among themselves at any epsilon
    (the paper's contribution 2), on every engine shape."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: a late write older than an update reader "
        "is admitted as Case 3, so T2's write overwrites T1's",
    )
    @pytest.mark.parametrize("history", list(LOST_UPDATE_HISTORIES))
    @pytest.mark.parametrize("shape", list(ENGINES.values()), ids=list(ENGINES))
    def test_value_is_conserved(self, shape, history):
        _log, t1, t2, x = _lost_update_history(
            shape, *LOST_UPDATE_HISTORIES[history]
        )
        assert x == 1_000.0 + 10.0 * t1 + 20.0 * t2

    @pytest.mark.parametrize("shape", list(ENGINES.values()), ids=list(ENGINES))
    def test_checker_flags_the_zero_bound_history(self, shape):
        log, _t1, _t2, _x = _lost_update_history(
            shape, *LOST_UPDATE_HISTORIES["every-bound-0"]
        )
        kinds = {violation.kind for violation in check_log(log).violations}
        assert "serialization-cycle" in kinds
