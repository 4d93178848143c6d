"""The history seam: recording, derivation parity, exactly-once completion.

The recorder is the single choke-point every engine's lifecycle hooks go
through, so two invariants are pinned here:

* **derivation parity** — metrics derived from the recorded events equal
  the engine's own ``MetricsCollector`` snapshot (they come from the
  same hooks, so they can never disagree);
* **exactly-once completion** — every transaction gets exactly one
  commit *or* one abort event, on every engine shape and on every path
  (client abort, rejection auto-abort, composite absorption).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
from collections import Counter

import pytest

from repro.core.bounds import ObjectBounds, TransactionBounds
from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.history import (
    EVENT_ABORT,
    EVENT_COMMIT,
    EVENT_REJECT,
    HistoryEvent,
    HistoryLog,
    derive_metrics,
)
from repro.engine.procshard import process_sharding_unavailable
from repro.engine.reasons import REASON_CLIENT_ABORT, REJECTION_REASONS
from repro.engine.results import Granted, MustWait, Rejected

from .topology import build_engine


def _bounded_db(n: int = 8) -> Database:
    db = Database()
    db.create_many(
        ((i, 100.0 * (i + 1)) for i in range(n)),
        bounds=ObjectBounds(import_limit=1e9, export_limit=1e9),
    )
    return db


def _run_mixed_load(engine, extended: bool = False) -> None:
    """Commits, client aborts, and an ESR rejection, deterministically.

    ``extended`` adds the event shapes the basic load lacks — a begin
    that declares the whole bound hierarchy, a wait, an ESR-admitted
    read and a snapshot-cached one (needs :func:`_grouped_db`) — and
    runs on every protocol, so it asserts no outcome: the byte pins do.
    """
    # Plain committed update and query.
    t1 = engine.begin("update", TransactionBounds(0.0, 50.0))
    assert isinstance(engine.write(t1, 0, 123.0), Granted)
    engine.commit(t1)
    q1 = engine.begin("query", TransactionBounds(50.0, 0.0))
    assert isinstance(engine.read(q1, 0), Granted)
    engine.commit(q1)
    # Client abort.
    t2 = engine.begin("update")
    engine.write(t2, 1, 7.0)
    engine.abort(t2)
    # Rejection auto-abort: a zero-bound query whose read arrives after
    # a newer committed write (the paper's case 1) cannot absorb the
    # divergence and is rejected.
    strict = engine.begin("query", TransactionBounds(0.0, 0.0))
    writer = engine.begin("update", TransactionBounds(0.0, 1e9))
    engine.write(writer, 2, 999.0)
    engine.commit(writer)
    outcome = engine.read(strict, 2)
    if not extended:
        assert isinstance(outcome, Rejected)
        return
    if not isinstance(outcome, Rejected):
        engine.abort(strict)  # granted under 2PL and MVTO
    lax = engine.begin("query", TransactionBounds(1e6, 0.0))
    declared = engine.begin(
        "update",
        TransactionBounds(25.0, 75.0),
        group_limits={"hot": 40.0},
        object_limits={3: 5.0},
    )
    engine.write(declared, 3, 402.5)
    waiter = engine.begin("update", TransactionBounds(0.0, 10.0))
    parked = engine.read(waiter, 3)
    engine.commit(declared)
    if isinstance(parked, MustWait):
        engine.read(waiter, 3)
    engine.commit(waiter)
    # A late read of the committed write: ESR case 1 where relaxed.
    if not isinstance(engine.read(lax, 3), Rejected):
        if engine.read_cached(lax, 0) is None:
            engine.read(lax, 0)
        engine.commit(lax)


def _grouped_db() -> Database:
    db = _bounded_db()
    db.catalog.add_group("hot")
    db.catalog.assign(3, "hot")
    return db


def _completion_events(events) -> dict[int, Counter]:
    per_txn: dict[int, Counter] = {}
    for event in events:
        if event.kind in (EVENT_COMMIT, EVENT_ABORT):
            per_txn.setdefault(event.txn, Counter())[event.kind] += 1
    return per_txn


_needs_fork = pytest.mark.skipif(
    process_sharding_unavailable() == "no-fork",
    reason="process sharding needs the fork start method",
)

ENGINE_SHAPES = [
    pytest.param({}, id="bare"),
    pytest.param({"shards": 2}, id="sharded"),
    pytest.param(
        {"shards": 2, "processes": "force"}, id="procshard", marks=_needs_fork
    ),
    pytest.param(
        {"shards": 2, "processes": "failover"},
        id="procshard-failed-over",
        marks=_needs_fork,
    ),
]


class TestRecordingParity:
    @pytest.mark.parametrize("shape", ENGINE_SHAPES)
    def test_derived_metrics_match_collector(self, shape):
        engine = build_engine(
            _bounded_db(), "esr", record_history=True, **shape
        )
        try:
            _run_mixed_load(engine)
            log = HistoryLog.from_engine(engine)
            derived = derive_metrics(log.events)
            assert derived.snapshot() == engine.metrics.snapshot()
        finally:
            close = getattr(engine, "close", None)
            if close:
                close()

    @pytest.mark.parametrize("shape", ENGINE_SHAPES)
    def test_every_transaction_completes_exactly_once(self, shape):
        engine = build_engine(
            _bounded_db(), "esr", record_history=True, **shape
        )
        try:
            _run_mixed_load(engine)
            events = HistoryLog.from_engine(engine).events
            completions = _completion_events(events)
            # 5 transactions above, each with exactly one completion.
            assert len(completions) == 5
            for txn, counter in completions.items():
                assert sum(counter.values()) == 1, (
                    f"transaction {txn} completed {dict(counter)}"
                )
            # The counters agree with the metrics the engine kept.
            snapshot = engine.metrics.snapshot()
            commits = sum(c[EVENT_COMMIT] for c in completions.values())
            aborts = sum(c[EVENT_ABORT] for c in completions.values())
            assert commits == snapshot.commits
            assert aborts == snapshot.aborts
        finally:
            close = getattr(engine, "close", None)
            if close:
                close()

    @pytest.mark.parametrize("shape", ENGINE_SHAPES)
    def test_rejection_pairs_with_one_abort(self, shape):
        engine = build_engine(
            _bounded_db(), "esr", record_history=True, **shape
        )
        try:
            _run_mixed_load(engine)
            events = HistoryLog.from_engine(engine).events
            rejected = [e for e in events if e.kind == EVENT_REJECT]
            assert len(rejected) == 1
            assert rejected[0].reason in REJECTION_REASONS
            aborts = [
                e
                for e in events
                if e.kind == EVENT_ABORT and e.txn == rejected[0].txn
            ]
            assert len(aborts) == 1
            assert aborts[0].reason == rejected[0].reason
        finally:
            close = getattr(engine, "close", None)
            if close:
                close()


class TestRecorderBasics:
    def test_disabled_recorder_keeps_metrics_but_no_events(self):
        engine = create_engine(_bounded_db(), "esr")
        _run_mixed_load(engine)
        assert engine.metrics.snapshot().commits == 3
        assert HistoryLog.from_engine(engine).events == []

    def test_roundtrip_is_exact(self):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        _run_mixed_load(engine)
        log = HistoryLog.from_engine(engine)
        assert len(log) > 0
        again = HistoryLog.loads(log.dumps())
        assert again.header == log.header
        assert again.events == log.events

    def test_save_and_load(self, tmp_path):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        _run_mixed_load(engine)
        log = HistoryLog.from_engine(engine)
        path = tmp_path / "history.jsonl"
        log.save(str(path))
        assert HistoryLog.load(str(path)).events == log.events

    def test_default_abort_reason_is_client_abort(self):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        txn = engine.begin("update")
        engine.abort(txn)
        events = HistoryLog.from_engine(engine).events
        assert events[-1].kind == EVENT_ABORT
        assert events[-1].reason == REASON_CLIENT_ABORT

    def test_reset_clears_events_and_metrics_together(self):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        _run_mixed_load(engine)
        engine.recorder.reset()
        assert HistoryLog.from_engine(engine).events == []
        assert engine.metrics.snapshot().commits == 0
        # Recording continues after the reset.
        txn = engine.begin("update")
        engine.commit(txn)
        assert len(HistoryLog.from_engine(engine).events) == 2

    def test_sharded_events_carry_shard_ids(self):
        engine = create_engine(
            _bounded_db(), "esr", shards=2, record_history=True
        )
        t1 = engine.begin("update")
        engine.write(t1, 0, 1.0)  # shard 0
        engine.write(t1, 1, 2.0)  # shard 1
        engine.commit(t1)
        shards = {
            e.shard
            for e in HistoryLog.from_engine(engine).events
            if e.kind == "write"
        }
        assert shards == {0, 1}


def _pinned_history(protocol: str, shape: dict) -> HistoryLog:
    """The extended load's history under a clock fixed at zero."""
    options = dict(shape)
    if protocol == "esr" and not options.get("processes"):
        options["snapshot_cache"] = True
    engine = build_engine(
        _grouped_db(), protocol, record_history=True, **options
    )
    engine.recorder.clock = lambda: 0.0
    try:
        _run_mixed_load(engine, extended=True)
        return HistoryLog.from_engine(engine)
    finally:
        close = getattr(engine, "close", None)
        if close:
            close()


def _event(kind, txn, **fields) -> HistoryEvent:
    """Transaction ``n`` of the load has timestamp ``(n - 1, 0, n)``."""
    return HistoryEvent(
        kind=kind, txn=txn, wall=0.0, ts=(txn - 1.0, 0, txn), **fields
    )


#: The extended load on two thread shards (even objects on shard 0),
#: field by field; the unsharded engine records the same with no shard.
_SHARDED_EVENTS = [
    _event("begin", 1, txn_kind="update", import_limit=0.0, export_limit=50.0),
    _event("write", 1, shard=0, object_id=0, value=123.0),
    _event("commit", 1, txn_kind="update", imported=0.0, exported=0.0),
    _event("begin", 2, txn_kind="query", import_limit=50.0, export_limit=0.0),
    _event("read", 2, shard=0, object_id=0, value=123.0),
    _event("commit", 2, txn_kind="query", imported=0.0, exported=0.0),
    _event("begin", 3, txn_kind="update", import_limit=0.0, export_limit=0.0),
    _event("write", 3, shard=1, object_id=1, value=7.0),
    _event("abort", 3, txn_kind="update", reason="client-abort"),
    _event("begin", 4, txn_kind="query", import_limit=0.0, export_limit=0.0),
    _event("begin", 5, txn_kind="update", import_limit=0.0, export_limit=1e9),
    _event("write", 5, shard=0, object_id=2, value=999.0),
    _event("commit", 5, txn_kind="update", imported=0.0, exported=0.0),
    _event(
        "reject", 4, shard=0, object_id=2, op="read", reason="bound-violation",
        detail=(
            "late read of object 2 carries inconsistency 699 past the "
            "<transaction> limit"
        ),
        violated_level="<transaction>",
    ),
    _event("abort", 4, txn_kind="query", shard=0, reason="bound-violation"),
    _event("begin", 6, txn_kind="query", import_limit=1e6, export_limit=0.0),
    _event(
        "begin", 7, txn_kind="update", import_limit=25.0, export_limit=75.0,
        group_limits={"hot": 40.0}, object_limits={3: 5.0},
    ),
    _event("write", 7, shard=1, object_id=3, value=402.5),
    _event("begin", 8, txn_kind="update", import_limit=0.0, export_limit=10.0),
    _event("wait", 8, shard=1, object_id=3, op="read", blocking=7),
    _event("commit", 7, txn_kind="update", imported=0.0, exported=0.0),
    _event("read", 8, shard=1, object_id=3, value=402.5),
    _event("commit", 8, txn_kind="update", imported=0.0, exported=0.0),
    _event(
        "read", 6, shard=1, object_id=3, value=402.5,
        esr_case="late-read-committed", inconsistency=2.5,
    ),
    _event("read", 6, shard=0, object_id=0, value=123.0, cached=True),
    _event("commit", 6, txn_kind="query", imported=2.5, exported=0.0),
]

#: sha256 of ``HistoryLog.dumps()`` for the extended load, computed at
#: the commit before update ETs lost their import flag (the load's one
#: use of it dropped too, so both sides record the same decisions).
#: Every shape is in: driven from one thread, thread shards record
#: inside the one running critical section and worker shards answer one
#: op at a time, so the event order is the call order on all of them.
#: The two worker topologies agree because a failed-over shard records
#: as a thread shard does, and neither has a snapshot cache.
_PINNED_DUMPS = {
    "bare": "524b4f0a16789f6fb2ea9b55064512e3dfff3e362e89968f28cf1b4c54d95384",
    "sharded": "0be43ff5a3c4e57a024a0b4e26958494174309af3d0fe146e23399c677512c20",
    "procshard": "dee24d41374ff80a7438e0595e3c3a0a6bc429e855db6e9eb5a62603fa2ca060",
    "procshard-failed-over": (
        "dee24d41374ff80a7438e0595e3c3a0a6bc429e855db6e9eb5a62603fa2ca060"
    ),
    "sr": "cec7d0535f3333403a2bf1e70393f35a84c3f08901208531c66aaaa38851f8d5",
    "2pl": "150797dfa2fbe3e902222086e8ff754614a182e5893580dd696063776a35913b",
    "mvto": "67c16f1bdea7de9aa28010151df5c3825e5ea8ddde78dc90d90716e69bf4501f",
}


class TestStoredRowsKeepTheHistory:
    """What is stored changed; what a reader gets must not."""

    @pytest.mark.parametrize(
        "protocol, shape",
        [
            pytest.param("esr", p.values[0], id=p.id, marks=p.marks)
            for p in ENGINE_SHAPES
        ]
        + [pytest.param(name, {}, id=name) for name in ("sr", "2pl", "mvto")],
    )
    def test_dump_bytes_are_pinned(self, request, protocol, shape):
        text = _pinned_history(protocol, shape).dumps()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == _PINNED_DUMPS[request.node.callspec.id]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_every_field_of_every_event(self, shards):
        shape = {"shards": shards} if shards > 1 else {}
        expected = [
            event if shards > 1 else dataclasses.replace(event, shard=None)
            for event in _SHARDED_EVENTS
        ]
        events = _pinned_history("esr", shape).events
        assert {e.kind for e in events} == {
            "begin", "read", "write", "wait", "reject", "commit", "abort"
        }
        assert events == expected

    def test_reset_mid_flight_leaves_later_events_complete(self):
        """The simulator's warm-up resets with transactions open."""
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        engine.recorder.clock = lambda: 0.0
        txn = engine.begin("update", TransactionBounds(0.0, 50.0))
        engine.recorder.reset()
        engine.read(txn, 0)
        engine.commit(txn)
        assert HistoryLog.from_engine(engine).events == [
            _event("read", 1, object_id=0, value=100.0),
            _event("commit", 1, txn_kind="update", imported=0.0, exported=0.0),
        ]

    def test_dump_writes_what_dumps_returns(self):
        log = _pinned_history("esr", {})
        fp = io.StringIO()
        log.dump(fp)
        assert fp.getvalue() == log.dumps()
