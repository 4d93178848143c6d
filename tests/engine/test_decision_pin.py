"""Every outcome shape of the single-engine path, pinned field by field.

Each scenario drives a bare ``create_engine(..., protocol)`` with
explicit timestamps and records history.  The pins are the exact
``Granted`` / ``MustWait`` / ``Rejected`` each read or write answered
(fields, equality, ``repr`` and a pickle round trip) and a digest of the
recorded history, so a rewrite of the operation path that changes one
decision, one reject detail or one history row fails here.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.core.bounds import ObjectBounds, TransactionBounds
from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.results import Granted, MustWait, Rejected
from repro.engine.timestamps import Timestamp

X, GROUPED, OIL_BOUND = 1, 2, 3


def _database() -> Database:
    database = Database()
    database.catalog.add_group("g")
    database.create_object(X, 1000.0)
    database.create_object(GROUPED, 1000.0, group="g")
    database.create_object(OIL_BOUND, 1000.0, ObjectBounds(import_limit=50.0))
    return database


def _begin(name, kind, when, limit=0.0, **limits):
    return ("begin", name, kind, when, limit, limits)


def _read(name, object_id):
    return ("read", name, object_id)


def _write(name, object_id, value):
    return ("write", name, object_id, value)


def _commit(name):
    return ("commit", name)


def _late_read(value, til=1000.0, object_id=X, **limits):
    """U (ts 20) commits ``value`` on the object, then Q (ts 10) reads it."""
    return [
        _begin("Q", "query", 10, til, **limits),
        _begin("U", "update", 20),
        _write("U", object_id, value),
        _commit("U"),
        _read("Q", object_id),
    ]


def _uncommitted_read(value, query_ts=10, til=1000.0):
    """U (ts 5) stages ``value`` on x; Q reads x before U commits."""
    return [
        _begin("U", "update", 5),
        _write("U", X, value),
        _begin("Q", "query", query_ts, til),
        _read("Q", X),
    ]


def _late_write(value, tel=1000.0):
    """Q (ts 10) reads x; U (ts 5) then writes ``value`` on x."""
    return [
        _begin("Q", "query", 10, 1000.0),
        _read("Q", X),
        _begin("U", "update", 5, tel),
        _write("U", X, value),
    ]


SCENARIOS = {
    "in-order-read": [_begin("Q", "query", 10), _read("Q", X), _commit("Q")],
    "case1": _late_read(1100.0),
    "case1-zero": _late_read(1000.0),
    "case2": _uncommitted_read(1100.0),
    "case2-zero": _uncommitted_read(1000.0),
    "case2-late-past-til": _uncommitted_read(1100.0, query_ts=3, til=50.0),
    "case2-wait-past-til": _uncommitted_read(1100.0, til=50.0),
    "case3": _late_write(1100.0) + [_commit("U")],
    "case3-zero": _late_write(1000.0) + [_commit("U")],
    "reject-object": _late_read(1100.0, object_id=OIL_BOUND),
    "reject-group": _late_read(1100.0, object_id=GROUPED, group_limits={"g": 50.0}),
    "reject-transaction": _late_read(1100.0, til=50.0),
    "reject-export": _late_write(1100.0, tel=50.0),
    "update-late-read": [
        _begin("U1", "update", 5),
        _begin("U2", "update", 20),
        _write("U2", X, 1100.0),
        _commit("U2"),
        _read("U1", X),
    ],
    "must-wait-write": [
        _begin("U1", "update", 5),
        _write("U1", X, 1100.0),
        _begin("U2", "update", 10),
        _write("U2", X, 1200.0),
    ],
    "read-own-write": [
        _begin("U", "update", 5),
        _write("U", X, 1100.0),
        _read("U", X),
        _commit("U"),
    ],
}


def _run(protocol: str, steps) -> tuple[list, list]:
    database = _database()
    engine = create_engine(database, protocol, record_history=True)
    txns = {}
    outcomes = []
    for step in steps:
        op, name = step[0], step[1]
        if op == "begin":
            _, _, kind, when, limit, limits = step
            bounds = (
                TransactionBounds(import_limit=limit)
                if kind == "query"
                else TransactionBounds(export_limit=limit)
            )
            txns[name] = engine.begin(
                kind, bounds, timestamp=Timestamp(float(when), 0, 0), **limits
            )
        elif op == "read":
            outcomes.append(engine.read(txns[name], step[2]))
        elif op == "write":
            outcomes.append(engine.write(txns[name], step[2], step[3]))
        elif txns[name].is_active:
            engine.commit(txns[name])
    rows = [
        {k: v for k, v in event.to_dict().items() if k != "wall"}
        for event in engine.recorder.events()
    ]
    # What the bookkeeping left behind: each account's charges and value
    # ranges, each object's read state and reader registry.
    for name, txn in sorted(txns.items()):
        account = txn.account
        rows.append(
            {
                "txn": name,
                "status": txn.status.value,
                "ops": [txn.operations, txn.inconsistent_operations],
                "levels": account.level_snapshot(),
                "ranges": {
                    object_id: [r.minimum, r.maximum]
                    for object_id in account.observed_objects()
                    for r in [account.value_range(object_id)]
                },
            }
        )
    for obj in database.objects():
        rows.append(
            {
                "object": obj.object_id,
                "read_ts": list(obj.read_ts),
                "query_read": obj.last_reader_was_query,
                "readers": sorted(obj.query_readers.items()),
                "value": obj.present_value,
            }
        )
    return outcomes, rows


def _late(kind, txn_ts, other, other_ts, object_id=X):
    return (
        f"{kind} ts {txn_ts}@0.0 is older than {other} "
        f"ts {other_ts}@0.0 on object {object_id}"
    )


#: The last outcome of each scenario, per protocol.
EXPECTED = {
    "in-order-read": {
        "esr": Granted(value=1000.0),
        "sr": Granted(value=1000.0),
    },
    "case1": {
        "esr": Granted(
            value=1100.0, inconsistency=100.0, esr_case="late-read-committed"
        ),
        "sr": Rejected("late-read", _late("read", 10, "committed write", 20)),
    },
    "case1-zero": {
        "esr": Granted(value=1000.0),
        "sr": Rejected("late-read", _late("read", 10, "committed write", 20)),
    },
    "case2": {
        "esr": Granted(
            value=1100.0, inconsistency=100.0, esr_case="read-uncommitted"
        ),
        "sr": MustWait(1),
    },
    "case2-zero": {
        "esr": Granted(value=1000.0),
        "sr": MustWait(1),
    },
    "case2-late-past-til": {
        "esr": Rejected(
            "bound-violation",
            "uncommitted read of object 1 carries inconsistency 100 past the "
            "<transaction> limit (uncommitted write by transaction 1, delta 100)",
            "<transaction>",
        ),
        "sr": Rejected("late-read", _late("read", 3, "pending write", 5)),
    },
    "case2-wait-past-til": {
        "esr": MustWait(1),
        "sr": MustWait(1),
    },
    "case3": {
        "esr": Granted(inconsistency=100.0, esr_case="late-write"),
        "sr": Rejected("late-write", _late("write", 5, "read", 10)),
    },
    "case3-zero": {
        "esr": Granted(),
        "sr": Rejected("late-write", _late("write", 5, "read", 10)),
    },
    "reject-object": {
        "esr": Rejected(
            "bound-violation",
            "late read of object 3 carries inconsistency 100 past the object limit",
            "object",
        ),
        "sr": Rejected(
            "late-read", _late("read", 10, "committed write", 20, OIL_BOUND)
        ),
    },
    "reject-group": {
        "esr": Rejected(
            "bound-violation",
            "late read of object 2 carries inconsistency 100 past the g limit",
            "g",
        ),
        "sr": Rejected(
            "late-read", _late("read", 10, "committed write", 20, GROUPED)
        ),
    },
    "reject-transaction": {
        "esr": Rejected(
            "bound-violation",
            "late read of object 1 carries inconsistency 100 past the "
            "<transaction> limit",
            "<transaction>",
        ),
        "sr": Rejected("late-read", _late("read", 10, "committed write", 20)),
    },
    "reject-export": {
        "esr": Rejected(
            "bound-violation",
            "late write on object 1 exports inconsistency 100 past the "
            "<transaction> limit",
            "<transaction>",
        ),
        "sr": Rejected("late-write", _late("write", 5, "read", 10)),
    },
    "update-late-read": {
        "esr": Rejected("late-read", _late("read", 5, "committed write", 20)),
        "sr": Rejected("late-read", _late("read", 5, "committed write", 20)),
    },
    "must-wait-write": {
        "esr": MustWait(1),
        "sr": MustWait(1),
    },
    "read-own-write": {
        "esr": Granted(value=1100.0),
        "sr": Granted(value=1100.0),
    },
}

#: sha256 of the JSON lines of every scenario's history (``wall``
#: dropped) and the account and object state it left, scenario by
#: scenario in the order above, per protocol.
HISTORY_SHA256 = {
    "esr": "e2129e63744994d8d54d97acd3242000916711963d17ff954fb2234768c76144",
    "sr": "d17dbffa2b3f865638f3068513b9ac294220c63edb343f791643341f69e4eef1",
}


@pytest.mark.parametrize("protocol", ["esr", "sr"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_outcome_is_pinned(protocol, scenario):
    outcomes, _rows = _run(protocol, SCENARIOS[scenario])
    expected = EXPECTED[scenario][protocol]
    outcome = outcomes[-1]
    assert type(outcome) is type(expected)
    assert outcome == expected
    assert repr(outcome) == repr(expected)
    assert pickle.loads(pickle.dumps(outcome)) == outcome
    # Every earlier operation of the scenario set the stage and went in.
    assert all(type(earlier) is Granted for earlier in outcomes[:-1])


def test_outcome_repr_is_the_dataclass_repr():
    assert repr(Granted(value=1100.0, inconsistency=100.0, esr_case="late-read")) == (
        "Granted(value=1100.0, inconsistency=100.0, esr_case='late-read')"
    )
    assert repr(MustWait(7)) == "MustWait(blocking_transaction=7)"
    assert repr(Rejected("late-write", "d", "g")) == (
        "Rejected(reason='late-write', detail='d', violated_level='g')"
    )
    assert Granted() != Granted(value=0.0)
    assert Granted(value=1.0).was_inconsistent is False


@pytest.mark.parametrize("protocol", ["esr", "sr"])
def test_history_rows_are_pinned(protocol):
    digest = hashlib.sha256()
    for scenario in SCENARIOS:
        _outcomes, rows = _run(protocol, SCENARIOS[scenario])
        for row in rows:
            digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == HISTORY_SHA256[protocol]
