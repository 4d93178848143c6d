"""The perf counters, the profiler wrapper, and the deterministic cost pins."""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc

import pytest

from repro.core.bounds import TransactionBounds
from repro.core.hierarchy import GroupCatalog, HierarchyLedger
from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.procshard import process_sharding_unavailable
from repro.engine.results import Granted
from repro.net.protocol import BINARY_CODEC, JSON_CODEC
from repro.net.requests import Conversation
from repro.perf import PerfCounters, counters, profile_call
from repro.sim.des import Engine, Timeout
from repro.sim.server import SimServer
from repro.sim.system import SimulationConfig, build_simulation
from repro.workload import WorkloadGenerator, WorkloadSpec, partition_for_site


class TestPerfCounters:
    def test_engine_feeds_global_counters(self):
        counters.reset()
        engine = Engine()

        def process():
            yield Timeout(1.0)
            yield Timeout(0.0)

        engine.spawn(process())
        engine.run()
        assert counters.events_dispatched == 3
        assert counters.heap_pushes == 1
        assert counters.heap_pushes_avoided == 2

    def test_ledger_walks_and_rejections(self):
        counters.reset()
        catalog = GroupCatalog()
        catalog.add_group("g")
        catalog.assign(1, "g")
        ledger = HierarchyLedger(catalog, 100.0, {"g": 50.0})
        assert ledger.try_charge(1, 40.0).admitted
        assert not ledger.try_charge(1, 40.0).admitted
        assert counters.ledger_walks == 2
        assert counters.ledger_rejections == 1

    def test_conflict_case_tally(self):
        tally = PerfCounters()
        tally.record_conflict_case("late-write")
        tally.record_conflict_case("late-write")
        tally.record_conflict_case("read-uncommitted")
        assert tally.conflict_cases == {"late-write": 2, "read-uncommitted": 1}

    def test_snapshot_and_table(self):
        tally = PerfCounters()
        tally.events_dispatched = 7
        tally.record_conflict_case("late-write")
        snapshot = tally.snapshot()
        assert snapshot["events_dispatched"] == 7
        assert snapshot["conflict_cases"] == {"late-write": 1}
        table = tally.format_table()
        assert "events dispatched" in table
        assert "late-write" in table

    def test_reset_zeroes_everything(self):
        tally = PerfCounters()
        tally.events_dispatched = 5
        tally.record_conflict_case("x")
        tally.reset()
        assert tally.events_dispatched == 0
        assert tally.conflict_cases == {}


class TestProfileCall:
    def test_returns_result_and_report(self):
        result, report = profile_call(lambda: sum(range(1000)), top_n=5)
        assert result == sum(range(1000))
        assert "cumulative" in report

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("boom")

        try:
            profile_call(boom)
        except ValueError as exc:
            assert "boom" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


def _drive_rpc_transaction(engine, rng: random.Random, objects: int, ops: int):
    """One seeded client transaction; a wait or a rejection aborts it."""
    update = rng.random() < 0.5
    if update:
        txn = engine.begin("update", TransactionBounds(export_limit=1e9))
    else:
        txn = engine.begin("query", TransactionBounds(import_limit=1e9))
    for _ in range(ops):
        object_id = rng.randrange(objects)
        if update and rng.random() < 0.5:
            outcome = engine.write(txn, object_id, rng.random() * 100.0)
        else:
            outcome = engine.read(txn, object_id)
        if not isinstance(outcome, Granted):
            if txn.is_active:
                engine.abort(txn, "bench-blocked")
            return
    if txn.is_active:
        engine.commit(txn)


class TestShardChannel:
    def test_shard_channel_traffic_is_pinned(self):
        """A seeded sequential trace is a bit-exact oracle for what
        crosses the parent↔worker socketpair: refactors of the shard
        composite must not move a byte of it.

        One client runs 8 transactions of 100 operations (a seed-7 mix of
        export-side updates and import-side queries) over 256 objects on
        4 forced worker shards.

        Dropping update ETs' import flag cut 74,457 / 37,075 bytes to
        72,673 / 36,076 (134.1 to 130.7 per op) with the same round trips
        and sync mix: the sibling descriptor lost its import-flag key,
        and every sync-in and sync-out lost the second-account slot
        beside the one account delta or dump."""
        if process_sharding_unavailable() == "no-fork":
            pytest.skip("no fork on this platform")
        objects, transactions = 256, 8
        database = Database()
        database.create_many((object_id, 100.0) for object_id in range(objects))
        engine = create_engine(database, "esr", shards=4, processes="force")
        try:
            before = counters.snapshot()
            rng = random.Random(7)
            for _ in range(transactions):
                _drive_rpc_transaction(engine, rng, objects, 100)
            after = counters.snapshot()
        finally:
            engine.close()
        rpc = {
            key: after[key] - before[key] for key in after if key.startswith("rpc_")
        }
        sent, received = rpc["rpc_bytes_sent"], rpc["rpc_bytes_received"]
        assert round((sent + received) / rpc["rpc_ops"], 1) == 130.7
        assert round(rpc["rpc_round_trips"] / transactions, 2) == 104.0
        assert (
            rpc["rpc_sync_full"],
            rpc["rpc_sync_delta"],
            rpc["rpc_sync_none"],
        ) == (32, 264, 504)
        assert (sent, received) == (72673, 36076)


class TestHistoryRetention:
    def test_retained_bytes_per_recorded_event(self):
        """What one recorded decision keeps alive, everything else gone.

        A deterministic per-op quantity, not a timing: 8 simulated
        clients x 250 seeded transactions (~25k events, four fifths of
        them reads), traced from before the system is built until only
        the recorder is left.  The keyword-built 23-slot event object
        kept 269 bytes per event here; a positional row keeps ~155.
        """
        config = SimulationConfig(
            mpl=8,
            transactions_per_client=250,
            til=50_000.0,
            tel=5_000.0,
            seed=11,
            record_history=True,
        )
        gc.collect()
        tracemalloc.start()
        try:
            engine, server, clients, database = build_simulation(config)
            processes = [engine.spawn(c.process()) for c in clients]
            engine.run_until_complete(processes)
            recorder = server.manager.recorder
            assert recorder.metrics.snapshot().commits == 2000
            del engine, server, clients, database, processes
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        events = len(recorder.events())
        assert events > 20_000
        assert retained / events <= 170


def _traced_opcodes(fn) -> int:
    """Bytecode instructions executed in Python frames while ``fn`` runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


class TestGenerationCostIgnoresDatabaseSize:
    def test_opcodes_per_program_at_1k_and_16k_objects(self):
        """A count, not a timing: what one generated program executes
        must not grow with the cold set it samples from.  Filtering the
        cold set per program made both kinds scale with it (~10x here
        for queries; worse for updates, which also built a set per
        candidate)."""
        programs = 300
        per_program = {}
        for n_objects in (1_000, 16_000):
            spec = WorkloadSpec(n_objects=n_objects)
            generator = WorkloadGenerator(
                spec, seed=1, partition=partition_for_site(spec, 1)
            )
            per_program[n_objects] = tuple(
                _traced_opcodes(
                    lambda: [generate(50_000.0) for _ in range(programs)]
                )
                / programs
                for generate in (
                    generator.generate_query,
                    generator.generate_update,
                )
            )
        for small, large in zip(per_program[1_000], per_program[16_000]):
            assert small > 0
            assert large / small <= 1.5


class TestIngestCostPerRequest:
    """A count, not a timing: what ``Conversation.feed`` executes for one
    request of a 64-request chunk (cache off, the benchmark's setting),
    so per-request ingest cost cannot grow silently behind host noise."""

    REQUESTS = 64

    @staticmethod
    def _chunks() -> dict:
        pack = BINARY_CODEC
        mix = [
            frame
            for i in range(16)
            for frame in (
                pack.pack_begin(0, 10.0, 4 * i, (1.0 + i, 1, 0)),
                pack.pack_read(i + 1, 3, 4 * i + 1),
                pack.pack_write(i + 1, 4, 1.0, 4 * i + 2),
                pack.pack_commit(i + 1, 4 * i + 3),
            )
        ]
        reads = [
            b'{"op":"read","txn":%d,"object":%d,"id":%d}\n' % (i % 4 + 1, i % 10 + 1, i)
            for i in range(64)
        ]
        return {"json": (JSON_CODEC, b"".join(reads)), "binary-1": (pack, b"".join(mix))}

    # Opcode counts differ between interpreter versions; CI runs 3.11.
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on 3.11")
    @pytest.mark.parametrize(
        "wire, measured", [("json", 160.2), ("binary-1", 169.0)]
    )
    def test_one_split_and_pinned_opcodes_per_request(
        self, monkeypatch, wire, measured
    ):
        codec, chunk = self._chunks()[wire]
        db = Database()
        db.create_many((i, float(i)) for i in range(1, 11))
        conv = Conversation(create_engine(db, "esr"), None)
        conv.codec = codec
        splits = []
        split = codec.split
        monkeypatch.setattr(
            codec, "split", lambda data: splits.append(len(data)) or split(data)
        )
        items: list = []
        opcodes = _traced_opcodes(lambda: items.extend(conv.feed(chunk)))
        assert len(items) == self.REQUESTS
        assert all(type(item) is dict for item in items)
        assert splits == [len(chunk)]
        assert opcodes / self.REQUESTS <= measured * 1.10


class TestServiceStationEvents:
    @staticmethod
    def _station(readers: int):
        database = Database()
        database.create_object(1, 5.0)
        manager = create_engine(database, "esr")
        engine = Engine()
        server = SimServer(manager, engine, service_time=2.0)
        outcomes = []

        def reader():
            txn = manager.begin("query", TransactionBounds(100.0, 0.0))
            outcomes.append((yield from server.perform_read(txn, 1)))

        for _ in range(readers):
            engine.spawn(reader())
        engine.run()
        assert [type(outcome) for outcome in outcomes] == [Granted] * readers
        assert engine.now == 2.0 * readers
        assert server.cpu.busy_snapshot() == 2.0 * readers
        # Each spawn's first step is the caller's event, not the station's.
        return engine.events_dispatched - readers

    def test_uncontended_read_is_one_event(self):
        """With a unit free the operation takes it and goes straight to
        its service time: the service timeout is the only kernel event
        (an Event and a ready-queue hop came first before)."""
        assert self._station(readers=1) == 1

    def test_queued_read_is_the_grant_and_the_service_time(self):
        assert self._station(readers=2) == 1 + 2


def _replay_programs(sessions: int, per_session: int, seed: int):
    """A seeded update-heavy pool: per session, ``(is_query, limit,
    group_limits, ops)`` with ops ``(object, None)`` for a read and
    ``(object, delta)`` for a write of the value read plus ``delta``."""
    from dataclasses import replace

    from repro.lang.ast import ReadStmt, WriteStmt
    from repro.workload import PAPER_WORKLOAD

    spec = replace(PAPER_WORKLOAD, query_fraction=0.1)
    limits = {"hot": 30_000.0}
    limits.update({f"part{i + 1}": 9_000.0 for i in range(spec.n_partitions)})
    pools = []
    for session in range(sessions):
        generator = WorkloadGenerator(
            spec, seed=seed * 1_000_003 + session + 1, query_group_limits=limits
        )
        programs = []
        for program in generator.generate_mix(per_session, 50_000.0, 5_000.0):
            ops = []
            for stmt in program.body:
                if isinstance(stmt, ReadStmt):
                    ops.append((stmt.object_id, None))
                elif isinstance(stmt, WriteStmt):
                    sign = 1.0 if stmt.value.op == "+" else -1.0
                    ops.append((stmt.object_id, sign * stmt.value.right.value))
            programs.append(
                (
                    program.is_query,
                    float(program.transaction_limit),
                    dict(program.group_limits),
                    ops,
                )
            )
        pools.append(programs)
    return spec, pools


def _interleave(engine, pools, seed: int) -> int:
    """Round-robin one engine call per runnable session per turn; park on
    ``MustWait`` until the blocker finishes, restart on ``Rejected`` after
    a seeded pause of a few turns (restarting at once keeps two
    conflicting sessions aborting each other for ever).  Returns the
    number of commits."""
    from collections import deque

    from repro.engine.results import MustWait

    pause = random.Random(seed)
    # Per session: programs, then position, step (-1: begin next),
    # transaction, values read, attempts, turns left to sit out.
    runnable = deque([programs, 0, -1, None, {}, 0, 0] for programs in pools)
    commits = 0
    while runnable:
        session = runnable.popleft()
        programs, position, step, txn, values, attempts, backoff = session
        if backoff:
            session[6] = backoff - 1
            runnable.append(session)
            continue
        if position == len(programs):
            continue
        is_query, limit, group_limits, ops = programs[position]
        if step < 0:
            bounds = (
                TransactionBounds(import_limit=limit)
                if is_query
                else TransactionBounds(export_limit=limit)
            )
            session[3] = engine.begin(
                "query" if is_query else "update",
                bounds,
                group_limits=group_limits,
            )
            session[2] = 0
            session[5] = attempts + 1
            values.clear()
            runnable.append(session)
            continue
        if step == len(ops):
            engine.commit(txn)
            commits += 1
            session[1:4] = [position + 1, -1, None]
            session[5] = 0
            runnable.append(session)
            continue
        object_id, delta = ops[step]
        if delta is None:
            outcome = engine.read(txn, object_id)
        else:
            outcome = engine.write(txn, object_id, values[object_id] + delta)
        if type(outcome) is Granted:
            if delta is None:
                values[object_id] = outcome.value
            session[2] = step + 1
            runnable.append(session)
        elif type(outcome) is MustWait:
            engine.waits.subscribe(
                outcome.blocking_transaction,
                lambda s=session: runnable.append(s),
                waiter_transaction=txn.transaction_id,
            )
        else:
            session[2] = -1
            session[6] = pause.randrange(1 << min(attempts, 4))
            runnable.append(session)
    return commits


class TestEngineCallsPerCommit:
    def test_python_calls_into_repro_per_committed_transaction(self):
        """A count, not a timing: Python-level calls into ``repro.`` per
        committed transaction while 16 sessions of 40 seeded update-heavy
        programs (a tenth queries, the paper's medium bounds, binding
        object and group limits) interleave over a bare ``esr`` engine
        recording history.  Deterministic for the seed.

        Deciding each operation through per-call hops — ``Database.get``,
        ``require_active``, the ``is_query`` / ``is_update`` properties,
        an update read passing through the ESR decision, a proper value
        computed twice — took 235.6 calls per commit here; the one-frame
        operation path takes 167.1, and the ceiling is three quarters of
        the former."""
        from repro.core.bounds import ObjectBounds
        from repro.workload import build_database

        spec, pools = _replay_programs(sessions=16, per_session=40, seed=1)
        database = build_database(
            spec, seed=1, object_bounds=ObjectBounds(import_limit=7_000.0),
            with_groups=True,
        )
        engine = create_engine(database, "esr", record_history=True)
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_globals.get(
                "__name__", ""
            ).startswith("repro."):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            commits = _interleave(engine, pools, seed=1)
        finally:
            sys.setprofile(previous)
        assert commits == 16 * 40
        assert calls / commits <= 0.75 * 235.6
