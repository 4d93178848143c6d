"""``engine-replay``: the engine and the ledger alone, no sockets, no threads.

Sixteen logical sessions each own a pre-generated slice of an
update-heavy program pool (no write partitioning, so update–update
conflicts, waits and shadow-restore aborts occur; three-level catalog
with binding group and object limits).  A deterministic round-robin
interleaver gives every runnable session one engine call per turn —
begin, one read or write, or commit — parks a session whose call
answered ``MustWait`` until ``engine.waits`` fires for the blocker, and
restarts a program whose call was rejected.  Nothing else runs, so
``repro.engine`` and ``repro.core`` do all the work.

One *cycle* replays the whole pool against a fresh database and engine
with history recording on.  A run repeats cycles until its time is up,
which bounds the recorded history (and so peak RSS) by one cycle and
makes every complete cycle of a run the same computation: their outcome
counts must be identical, for any seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace

from common import (
    BENCH_DIR,
    MAX_ATTEMPTS,
    OUT_DIR,
    end_to_end,
    peak_rss_mb,
    slice_metrics,
)
from programs import READ, FlatProgram, build_pool
from layers import engine_metrics, history_stats, pool_metrics, span_metrics
from spans import Tracer, instrument, self_us

SESSIONS = 16
PROGRAMS_PER_SESSION = 375  # 6 000 programs a cycle
QUERY_FRACTION = 0.1
TIL, TEL = 50_000.0, 5_000.0  # the paper's medium-epsilon
#: Limits chosen so that every level of the hierarchy turns operations
#: away in each cycle: the object limit stops the large transfers, the
#: partition limits stop a query that keeps meeting one busy partition,
#: and the transaction limits (TEL mostly) stop the rest.
OIL = 7_000.0
HOT_GIL = 30_000.0
PART_GIL = 9_000.0


def workload_spec():
    from repro.workload import PAPER_WORKLOAD

    return replace(PAPER_WORKLOAD, query_fraction=QUERY_FRACTION)


def group_limits(spec) -> dict[str, float]:
    limits = {"hot": HOT_GIL}
    limits.update({f"part{i + 1}": PART_GIL for i in range(spec.n_partitions)})
    return limits


def fresh_database(spec, seed: int):
    from repro.core.bounds import ObjectBounds
    from repro.workload import build_database

    return build_database(
        spec,
        seed=seed,
        object_bounds=ObjectBounds(import_limit=OIL),
        with_groups=True,
    )


class _Session:
    __slots__ = (
        "programs", "position", "program", "attempts", "step", "txn",
        "values", "started", "backoff",
    )

    def __init__(self, programs: list[FlatProgram]):
        self.programs = programs
        self.position = 0
        self.program: FlatProgram | None = None
        self.attempts = 0
        self.step = -1  # -1: begin next; len(ops): commit next
        self.txn = None
        self.values: dict[int, float] = {}
        self.started = 0.0
        self.backoff = 0  # turns to sit out before the next attempt


@dataclass
class CycleResult:
    """What one pass over the pool did."""

    complete: bool
    committed: int = 0
    failed: int = 0
    restarts: int = 0
    ops: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: ``(object, delta)`` of every committed write, for the value check.
    committed_deltas: list[tuple[int, float]] = field(default_factory=list)


def replay_cycle(
    engine,
    pools,
    deadline: float,
    tracer: Tracer | None = None,
    cached_reads: bool = False,
    seed: int = 0,
) -> CycleResult:
    """Interleave the sessions over ``engine`` until the pool is done.

    Stops early (``complete=False``) once ``deadline`` has passed.
    ``cached_reads`` tries ``engine.read_cached`` before each query read,
    the way both servers do when the snapshot cache is on.
    """
    from repro.core.bounds import TransactionBounds
    from repro.engine.results import Granted, MustWait

    result = CycleResult(complete=True)
    backoff = random.Random(seed)
    sessions = [_Session(pool.programs) for pool in pools]
    runnable: deque[_Session] = deque(sessions)
    waits = engine.waits
    clock = time.perf_counter
    latencies = result.latencies_ms
    while runnable:
        session = runnable.popleft()
        if session.backoff:
            session.backoff -= 1
            runnable.append(session)
            continue
        program = session.program
        if program is None:
            if session.position >= len(session.programs):
                continue  # this session's slice is done
            now = clock()
            if now >= deadline:
                result.complete = False
                break
            program = session.program = session.programs[session.position]
            session.position += 1
            session.attempts = 0
            session.started = now
        step = session.step
        if tracer is not None:
            tracer.program = program.index
        if step < 0:
            session.attempts += 1
            if session.attempts > MAX_ATTEMPTS:
                result.failed += 1
                session.program = None
                runnable.append(session)
                continue
            bounds = (
                TransactionBounds(import_limit=program.limit)
                if program.is_query
                else TransactionBounds(export_limit=program.limit)
            )
            session.txn = engine.begin(
                "query" if program.is_query else "update",
                bounds,
                group_limits=dict(program.group_limits),
            )
            session.step = 0
            session.values.clear()
            runnable.append(session)
            continue
        ops = program.ops
        if step == len(ops):
            engine.commit(session.txn)
            latencies.append((clock() - session.started) * 1e3)
            result.committed += 1
            result.restarts += session.attempts - 1
            result.committed_deltas.extend(program.deltas)
            session.program = None
            session.step = -1
            runnable.append(session)
            continue
        code, object_id, delta = ops[step]
        if code == READ:
            outcome = None
            if cached_reads and program.is_query:
                outcome = engine.read_cached(session.txn, object_id)
            if outcome is None:
                outcome = engine.read(session.txn, object_id)
        else:
            outcome = engine.write(
                session.txn, object_id, session.values[object_id] + delta
            )
        kind = type(outcome)
        if kind is Granted:
            if code == READ:
                session.values[object_id] = outcome.value
            session.step = step + 1
            result.ops += 1
            runnable.append(session)
        elif kind is MustWait:
            # Parked: the callback puts the session back in line, and the
            # same call is made again on its next turn.
            waits.subscribe(
                outcome.blocking_transaction,
                lambda s=session: runnable.append(s),
                waiter_transaction=session.txn.transaction_id,
            )
        else:
            # Rejected: the engine has aborted the transaction.
            session.step = -1
            # Restarting at once keeps two conflicting sessions in
            # lockstep, each aborting the other for ever; real clients
            # are never that regular.  A seeded pause of a few turns
            # breaks the tie and stays deterministic.
            session.backoff = backoff.randrange(1 << min(session.attempts, 4))
            runnable.append(session)
    if result.complete and any(s.program is not None for s in sessions):
        raise RuntimeError("engine-replay: sessions parked with nothing to wake them")
    return result


def outcome_counts(engine, values: dict[int, float]) -> dict:
    """The counts that must repeat exactly for one seed."""
    snap = engine.metrics.snapshot()
    digest = hashlib.sha256(
        json.dumps(sorted(values.items())).encode()
    ).hexdigest()[:16]
    return {
        "commits": snap.commits,
        "commits_query": snap.commits_query,
        "aborts": snap.aborts,
        "aborts_by_reason": dict(sorted(snap.aborts_by_reason.items())),
        "reads": snap.reads,
        "writes": snap.writes,
        "waits": snap.waits,
        "rejected_operations": snap.rejected_operations,
        "inconsistent_by_case": dict(sorted(snap.inconsistent_by_case.items())),
        "final_values_sha256_16": digest,
    }


def unconserved_objects(initial, final, deltas) -> int:
    """Objects that are not their initial value plus their committed deltas.

    Zero exactly when the update ETs were serializable among themselves:
    each write stored ``value read + delta``, so a lost update or a dirty
    read between two updates leaves some object off by a delta.
    """
    expected = dict(initial)
    for object_id, delta in deltas:
        expected[object_id] += delta
    return sum(1 for object_id in expected if expected[object_id] != final[object_id])


@dataclass
class State:
    seed: int
    spec: object
    pools: list


def setup(seed: int, traced: bool = False) -> State:
    spec = workload_spec()
    pools = build_pool(
        spec,
        seed,
        sessions=SESSIONS,
        per_session=PROGRAMS_PER_SESSION,
        til=TIL,
        tel=TEL,
        partitioned=False,
        query_group_limits=group_limits(spec),
    )
    # One short warm-up pass so lazily built state (the catalog's limited
    # paths, interned reasons) exists before the window opens.
    warm = [replace(pool, programs=pool.programs[:20]) for pool in pools]
    replay_cycle(engine_for(State(seed, spec, warm))[0], warm, float("inf"), seed=seed)
    return State(seed, spec, pools)


def teardown(state: State) -> None:
    state.pools.clear()


def engine_for(state: State, **options):
    from repro.engine.api import create_engine

    database = fresh_database(state.spec, state.seed)
    options.setdefault("record_history", True)
    engine = create_engine(database, "esr", **options)
    return engine, database.committed_snapshot()


@dataclass
class Phase:
    """Cycles run back to back for a stretch of wall time."""

    wall: float = 0.0
    cpu: float = 0.0
    cycles: list[CycleResult] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)
    #: One per complete cycle: the end-to-end metrics of that cycle alone.
    slices: list[dict[str, float]] = field(default_factory=list)
    #: Objects off their expected value after the last complete cycle.
    unconserved: int = 0
    #: History and metrics of the last complete cycle (``keep_history``).
    last_log: object = None
    last_snapshot: object = None
    perf: dict = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return sum(c.committed for c in self.cycles)

    @property
    def rate(self) -> float:
        return end_to_end(self.slices)["commit_txn_s"]


def run_phase(
    state: State,
    seconds: float,
    tracer: Tracer | None = None,
    cached_reads: bool = False,
    keep_history: bool = False,
    **engine_options,
) -> Phase:
    from repro import perf
    from repro.engine.history import HistoryLog

    phase = Phase()
    perf.counters.reset()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + seconds
    while time.perf_counter() < deadline:
        started, cpu_started = time.perf_counter(), time.process_time()
        engine, initial = engine_for(state, **engine_options)
        try:
            cycle = replay_cycle(
                engine, state.pools, deadline, tracer, cached_reads, state.seed
            )
            phase.cycles.append(cycle)
            if cycle.complete:
                final = engine.database.committed_snapshot()
                phase.counts.append(outcome_counts(engine, final))
                phase.unconserved = unconserved_objects(
                    initial, final, cycle.committed_deltas
                )
                if keep_history:
                    phase.last_log = HistoryLog.from_engine(engine)
                    phase.last_snapshot = engine.metrics.snapshot()
                phase.slices.append(
                    slice_metrics(
                        cycle.committed,
                        time.perf_counter() - started,
                        time.process_time() - cpu_started,
                        cycle.latencies_ms,
                    )
                )
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    phase.wall = time.perf_counter() - wall0
    phase.cpu = time.process_time() - cpu0
    phase.perf = perf.counters.snapshot()
    return phase


def _expected_path(seed: int):
    return BENCH_DIR / "expected" / f"engine-replay.{seed}.json"


def check_counts(seed: int, phase: Phase, problems: list[str]) -> None:
    if not phase.counts:
        problems.append("no complete cycle in the window")
        return
    if any(counts != phase.counts[0] for counts in phase.counts[1:]):
        problems.append("outcome counts differ between cycles of one run")
    path = _expected_path(seed)
    if path.is_file():
        with open(path, encoding="utf-8") as fp:
            if json.load(fp) != phase.counts[0]:
                problems.append(f"outcome counts differ from {path.name}")
    if any(cycle.failed for cycle in phase.cycles):
        problems.append("a program exhausted its retry budget")


def write_expected(seed: int) -> None:
    state = setup(seed)
    engine, _ = engine_for(state)
    replay_cycle(engine, state.pools, float("inf"), seed=seed)
    counts = outcome_counts(engine, engine.database.committed_snapshot())
    path = _expected_path(seed)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(counts, fp, indent=1, sort_keys=True)
        fp.write("\n")


def run(state: State, seconds: float, setup_s: float):
    """The measured, untraced run."""
    phase = run_phase(state, seconds)
    problems: list[str] = []
    check_counts(state.seed, phase, problems)
    attempted = phase.committed + sum(c.failed for c in phase.cycles)
    values = end_to_end(phase.slices)
    values["peak_rss_mb"] = peak_rss_mb()
    values["setup_s"] = setup_s
    info = {
        "samples": phase.committed,
        "cycles": len(phase.counts),
        "outcome_counts": phase.counts[0] if phase.counts else None,
    }
    failed = sum(c.failed for c in phase.cycles)
    return values, attempted, failed, problems, info


# -- the traced run ----------------------------------------------------------------


def run_traced(state: State, seconds: float, setup_s: float):
    """Untraced slice, traced slice, then the topology variants."""
    from repro.check import check_log
    from repro.engine.procshard import process_sharding_unavailable

    problems: list[str] = []
    notes: list[str] = []
    values: dict[str, float] = {}

    plain = run_phase(state, seconds * 0.25, keep_history=True)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_phase(state, seconds * 0.25, tracer)
    check_counts(state.seed, plain, problems)
    check_counts(state.seed, traced, problems)
    values["trace_overhead_share"] = 1.0 - traced.rate / plain.rate

    totals = tracer.totals()
    span_metrics(values, totals)
    engine_self = self_us(totals, "engine.manager.") + self_us(
        totals, "core.hierarchy."
    )
    values["engine.self_cpu_share"] = engine_self / (traced.cpu * 1e6)
    tracer.dump(OUT_DIR / f"trace-engine-replay-{state.seed}.jsonl")

    # The paper's ratios come from the untraced slice's last full cycle.
    log, snap = plain.last_log, plain.last_snapshot
    if log is not None:
        stats = history_stats(log.events)
        cycles = max(len(plain.counts), 1)
        engine_metrics(values, snap, plain.perf["ledger_walks"] // cycles)
        values["engine.manager.wasted_ops_share"] = stats["wasted_ops_share"]
        for level in ("object", "group", "transaction"):
            values[f"core.hierarchy.rejections.{level}"] = stats[
                f"rejections.{level}"
            ]
            if not stats[f"rejections.{level}"]:
                notes.append(f"no rejection at the {level} level this cycle")
        values["engine.history.events_per_commit"] = stats["events"] / max(
            stats["commits"], 1
        )
        started = time.perf_counter()
        checked = check_log(log, name="engine-replay")
        values["check.events_s"] = checked.events / (time.perf_counter() - started)
        values["check.violations"] = len(checked.violations)
        if checked.violations:
            problems.append(f"repro.check: {checked.label}")
    # Reported, not failed: with unpartitioned writers the engine's
    # late-write relaxation can lose an update (see README, "Findings").
    values["check.unconserved_objects"] = plain.unconserved

    unrecorded = run_phase(state, seconds * 0.15, record_history=False)
    values["engine.history.record_overhead_share"] = (
        1.0 - plain.rate / unrecorded.rate
    )

    def ops_s(phase: Phase) -> float:
        return sum(c.ops for c in phase.cycles) / phase.wall

    sharded = run_phase(state, seconds * 0.1, shards=2)
    check_counts_variant("shards=2", sharded, problems)
    values["engine.sharded.ops_s"] = ops_s(sharded)

    reason = process_sharding_unavailable()
    if reason is not None and reason != "single-core":
        notes.append(f"process shards skipped: {reason}")
    else:
        procs = run_phase(state, seconds * 0.1, shards=2, processes="force")
        check_counts_variant("process shards", procs, problems)
        ops = max(procs.perf["rpc_ops"], 1)
        trips = max(procs.perf["rpc_round_trips"], 1)
        values["engine.procshard.ops_s"] = ops_s(procs)
        values["engine.procshard.rpc_bytes_per_op"] = (
            procs.perf["rpc_bytes_sent"] + procs.perf["rpc_bytes_received"]
        ) / ops
        values["engine.procshard.round_trips_per_commit"] = procs.perf[
            "rpc_round_trips"
        ] / max(procs.committed, 1)
        values["engine.procshard.batch_occupancy"] = (
            procs.perf["rpc_batched_ops"] / trips
        )

    cached = run_phase(state, seconds * 0.1, cached_reads=True, snapshot_cache=True)
    check_counts_variant("snapshot cache", cached, problems)
    looked = (
        cached.perf["cache_hits"]
        + cached.perf["cache_misses"]
        + cached.perf["cache_fallbacks"]
    )
    values["engine.snapshot.hit_share"] = cached.perf["cache_hits"] / max(looked, 1)

    pool_metrics(values, state.pools)
    values["client.samples"] = traced.committed

    attempted = plain.committed + traced.committed
    failed = sum(c.failed for c in plain.cycles + traced.cycles)
    return values, attempted, failed, problems, {"notes": notes}


def check_counts_variant(label: str, phase: Phase, problems: list[str]) -> None:
    """A topology variant must still finish every program."""
    if any(cycle.failed for cycle in phase.cycles):
        problems.append(f"{label}: a program exhausted its retry budget")
