"""The offline conformance checker against real and corrupted histories."""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import (
    check_log,
    render_report,
    serialization_cycle,
)
from repro.core.bounds import ObjectBounds, TransactionBounds
from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.history import (
    EVENT_READ,
    EVENT_WRITE,
    HistoryEvent,
    HistoryLog,
)
from repro.sim.system import SimulationConfig, run_simulation


def _bounded_db(n: int = 8) -> Database:
    db = Database()
    db.create_many(
        ((i, 100.0 * (i + 1)) for i in range(n)),
        bounds=ObjectBounds(import_limit=1e9, export_limit=1e9),
    )
    return db


def _recorded_run(**engine_kwargs) -> HistoryLog:
    engine = create_engine(
        _bounded_db(), "esr", record_history=True, **engine_kwargs
    )
    try:
        for round_index in range(4):
            writer = engine.begin("update", TransactionBounds(0.0, 500.0))
            engine.write(writer, round_index, 50.0 + round_index)
            engine.write(writer, round_index + 4, 60.0 + round_index)
            reader = engine.begin("query", TransactionBounds(500.0, 0.0))
            engine.read(reader, round_index)  # uncommitted: charged
            engine.commit(writer)
            engine.read(reader, round_index + 4)  # late: charged
            engine.commit(reader)
        return HistoryLog.from_engine(engine)
    finally:
        close = getattr(engine, "close", None)
        if close:
            close()


class TestCleanHistories:
    def test_bare_engine_history_is_conformant(self):
        result = check_log(_recorded_run(), name="bare")
        assert result.ok, result.violations
        assert result.committed == 8
        assert result.warnings == []

    def test_sharded_history_is_conformant(self):
        result = check_log(_recorded_run(shards=2), name="sharded")
        assert result.ok, result.violations

    def test_strict_history_is_conformant_and_serializable(self):
        engine = create_engine(_bounded_db(), "sr", record_history=True)
        t1 = engine.begin("update")
        engine.write(t1, 0, 1.0)
        engine.commit(t1)
        q = engine.begin("query")
        engine.read(q, 0)
        engine.commit(q)
        result = check_log(HistoryLog.from_engine(engine))
        assert result.ok
        assert result.serializable is True
        assert result.label == "Conformant, serializable"

    def test_snapshot_cache_reads_are_conformant(self):
        # Query reads go through read_cached, as both servers serve them,
        # and fall back to the engine on a miss.  Each query begins before
        # an update commits, so its cached read of that object is late
        # and charged the staleness.
        engine = create_engine(
            _bounded_db(), "esr", snapshot_cache=True, record_history=True
        )
        for round_index in range(4):
            reader = engine.begin("query", TransactionBounds(500.0, 0.0))
            writer = engine.begin("update", TransactionBounds(0.0, 500.0))
            engine.write(writer, round_index, 50.0 + round_index)
            engine.commit(writer)
            for object_id in (round_index, round_index + 4):
                if engine.read_cached(reader, object_id) is None:
                    engine.read(reader, object_id)
            engine.commit(reader)
        log = HistoryLog.from_engine(engine)
        cached = [e for e in log.events if e.kind == EVENT_READ and e.cached]
        assert any(e.inconsistency > 0.0 for e in cached)
        check = check_log(log, name="snapshot-cache")
        assert check.ok, check.violations
        assert check.committed == 8


class TestCorruptedHistories:
    def test_inflated_charge_is_flagged_at_a_level(self):
        log = _recorded_run()
        index, event = next(
            (i, e)
            for i, e in enumerate(log.events)
            if e.kind == EVENT_READ and e.inconsistency > 0.0
        )
        log.events[index] = dataclasses.replace(event, inconsistency=1e12)
        result = check_log(log, name="corrupted")
        kinds = {v.kind for v in result.violations}
        assert "over-limit-charge" in kinds
        assert "commit-total-mismatch" in kinds
        over = next(
            v for v in result.violations if v.kind == "over-limit-charge"
        )
        assert over.level is not None

    def test_one_ulp_commit_total_drift_is_caught(self):
        log = _recorded_run()
        index, event = next(
            (i, e)
            for i, e in enumerate(log.events)
            if e.kind == "commit" and (e.imported or 0.0) > 0.0
        )
        nudged = dataclasses.replace(
            event,
            imported=float(event.imported)
            + abs(float(event.imported)) * 2**-52,
        )
        log.events[index] = nudged
        result = check_log(log, name="drift")
        assert any(
            v.kind == "commit-total-mismatch" for v in result.violations
        )

    def test_spliced_event_for_unknown_transaction(self):
        log = _recorded_run()
        log.events.append(
            HistoryEvent(kind=EVENT_WRITE, txn=10_000, wall=0.0, object_id=0)
        )
        result = check_log(log, name="orphan")
        assert any(v.kind == "orphan-event" for v in result.violations)


class TestSerializationGraph:
    def _event(self, kind, txn, object_id=None):
        return HistoryEvent(kind=kind, txn=txn, wall=0.0, object_id=object_id)

    def test_write_skew_cycle_is_found(self):
        # T1 reads y, writes x; T2 reads x, writes y — classic write skew.
        events = [
            self._event("begin", 1),
            self._event("begin", 2),
            self._event("read", 1, 2),
            self._event("read", 2, 1),
            self._event("write", 1, 1),
            self._event("write", 2, 2),
            self._event("commit", 1),
            self._event("commit", 2),
        ]
        cycle = serialization_cycle(events)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2}

    def test_serial_history_is_acyclic(self):
        events = [
            self._event("begin", 1),
            self._event("write", 1, 1),
            self._event("commit", 1),
            self._event("begin", 2),
            self._event("read", 2, 1),
            self._event("write", 2, 2),
            self._event("commit", 2),
        ]
        assert serialization_cycle(events) is None

    def test_aborted_transactions_carry_no_dependencies(self):
        events = [
            self._event("begin", 1),
            self._event("write", 1, 1),
            self._event("abort", 1),
            self._event("begin", 2),
            self._event("read", 2, 1),
            self._event("commit", 2),
        ]
        assert serialization_cycle(events) is None


class TestSimulatorHistories:
    def test_simulated_history_is_conformant(self):
        config = SimulationConfig(
            mpl=3,
            til=500.0,
            tel=500.0,
            transactions_per_client=10,
            record_history=True,
        )
        result = run_simulation(config)
        assert result.history is not None
        check = check_log(result.history, name="sim")
        assert check.ok, check.violations
        assert check.committed == result.commits

    def test_history_off_by_default(self):
        config = SimulationConfig(mpl=2, transactions_per_client=5)
        assert run_simulation(config).history is None


class TestReport:
    def test_report_layout(self):
        good = check_log(_recorded_run(), name="clean")
        log = _recorded_run()
        index, event = next(
            (i, e)
            for i, e in enumerate(log.events)
            if e.kind == EVENT_READ and e.inconsistency > 0.0
        )
        log.events[index] = dataclasses.replace(event, inconsistency=1e12)
        bad = check_log(log, name="corrupt")
        report = render_report([good, bad])
        assert "|History|Result|CPU(s)|Valid?|" in report
        assert "| `clean` |Conformant|" in report
        assert "✅" in report and "❌" in report
        assert "## Summary" in report
        assert "- Conformant: 1" in report
        assert "## Violations" in report
        assert "[over-limit-charge]" in report
