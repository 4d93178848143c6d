"""``wire-esr-mix``: the paper's Figure 7 experiment on the real wire.

Closed loop, 2 connections × 8 pipelined sessions (MPL 16), codec
``binary-1``, against ``repro.net.aioserver`` in a child process with the
unsharded ESR engine.  Programs are the paper's mix (30 % ~20-read
queries, 70 % ~6-operation updates) over 1000 objects, at medium epsilon
with a group limit on ``hot`` and on every ``partN`` and a finite object
limit, so all three levels of the hierarchy turn operations away.  An
aborted program is resubmitted at once, up to 50 times.  Codec, dispatch
queue, admission, ledger walk, waits, restarts and flush all share the
work.

The hot set is 32 objects in 16 write partitions — one partition per
session, where the paper has 20 in 10 for at most 10 clients — so that
no two sessions ever write the same object.  Each object must then end
the run at its initial value plus the deltas of the updates the server
acknowledged as committed: the update ETs were serializable among
themselves.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

from common import OUT_DIR, end_to_end
from layers import engine_metrics, pool_metrics, wire_layer_metrics
from programs import READ, FlatProgram, build_pool
from spans import Tracer
from sut import ServerChild, Window, measure_window
from wire import Driver, Tally

CONNECTIONS = 2
SESSIONS = 16
PROGRAMS_PER_SESSION = 250
WARMUP_PROGRAMS = 2_000
DRAIN_SECONDS = 10.0
#: Peak RSS is read when this many programs have committed in the
#: window, not when the window ends: the server keeps the state of every
#: transaction it aborted until the connection closes, so its RSS grows
#: with the work done, and a faster server would otherwise look bigger.
RSS_AT_PROGRAMS = 30_000
TIL, TEL = 50_000.0, 5_000.0  # the paper's medium-epsilon
OIL = 7_000.0
HOT_GIL = 30_000.0
PART_GIL = 9_000.0
BINARY = True
SERVER_OPTIONS: dict = {}


def workload_spec():
    from repro.workload import PAPER_WORKLOAD

    return replace(PAPER_WORKLOAD, hot_set_size=32, n_partitions=SESSIONS)


def build_database(seed: int):
    """The server child's database (it imports this module)."""
    from repro.core.bounds import ObjectBounds
    from repro.workload import build_database as build

    return build(
        workload_spec(),
        seed=seed,
        object_bounds=ObjectBounds(import_limit=OIL),
        with_groups=True,
    )


def read_everything(spec) -> FlatProgram:
    """One TIL = 0 query over every object: the value check's probe."""
    return FlatProgram(
        index=-1,
        is_query=True,
        limit=0.0,
        group_limits=(),
        ops=tuple((READ, object_id, 0.0) for object_id in spec.object_ids),
    )


@dataclass
class State:
    seed: int
    spec: object
    pools: list
    child: ServerChild
    loop: asyncio.AbstractEventLoop
    driver: Driver | None = None
    initial: dict[int, float] = field(default_factory=dict)
    #: Everything committed since ``initial`` was read.
    deltas: list[tuple[int, float]] = field(default_factory=list)
    client_commits: int = 0
    #: The child's ``stats`` answer, taken after the drain.
    stats: dict = field(default_factory=dict)

    def absorb(self, tally: Tally) -> Tally:
        self.deltas.extend(tally.deltas)
        self.client_commits += tally.committed
        return tally


def setup(seed: int, traced: bool = False) -> State:
    spec = workload_spec()
    limits = {"hot": HOT_GIL}
    limits.update({f"part{i + 1}": PART_GIL for i in range(spec.n_partitions)})
    pools = build_pool(
        spec,
        seed,
        sessions=SESSIONS,
        per_session=PROGRAMS_PER_SESSION,
        til=TIL,
        tel=TEL,
        partitioned=True,
        query_group_limits=limits,
    )
    # The traced run's server records its history, for repro.check.
    child = ServerChild("wire_esr_mix", seed, record_history=traced)
    state = State(seed, spec, pools, child, asyncio.new_event_loop())
    try:
        state.loop.run_until_complete(_connect_and_warm_up(state))
    except BaseException:
        teardown(state)
        raise
    return state


async def _connect_and_warm_up(state: State) -> None:
    driver = state.driver = Driver()
    await driver.connect("127.0.0.1", state.child.port, CONNECTIONS, BINARY)
    per_connection = SESSIONS // CONNECTIONS
    for index, pool in enumerate(state.pools):
        driver.add_session(index // per_connection, index + 1, pool.programs)
    state.initial = await _read_everything(state)
    driver.start()
    await driver.wait_for_programs(WARMUP_PROGRAMS)
    state.absorb(driver.swap_tally())


async def _read_everything(state: State) -> dict[int, float]:
    driver = state.driver
    session = driver.sessions[0]
    session.run_once(read_everything(state.spec))
    await driver.wait_for_programs(1)
    tally = state.absorb(driver.swap_tally())
    if tally.committed != 1:
        raise RuntimeError("wire-esr-mix: the value-check query did not commit")
    return dict(session.last_values)


def teardown(state: State) -> None:
    try:
        if state.driver is not None:
            state.loop.run_until_complete(state.driver.close())
    finally:
        state.child.stop()
        state.loop.close()


async def _window(state: State, seconds: float) -> Window:
    state.absorb(state.driver.swap_tally())
    window = await measure_window(state.driver, state.child, seconds)
    state.absorb(window.tally)
    return window


async def _finish(state: State, problems: list[str]) -> tuple[int, int]:
    """Drain, then check values and commit counts.  Returns the tail's
    ``(attempted, failed)``."""
    driver = state.driver
    unfinished = await driver.drain(DRAIN_SECONDS)
    tail = state.absorb(driver.swap_tally())
    if unfinished:
        problems.append(f"{unfinished} programs not finished by the drain deadline")
    else:
        final = await _read_everything(state)
        expected = dict(state.initial)
        for object_id, delta in state.deltas:
            expected[object_id] += delta
        wrong = sum(1 for k in expected if expected[k] != final.get(k))
        if wrong:
            problems.append(
                f"{wrong} objects are not their initial value plus committed deltas"
            )
    stats = state.child.command("stats")
    if stats["metrics"]["commits"] != state.client_commits:
        problems.append(
            f"client saw {state.client_commits} commits, "
            f"server counted {stats['metrics']['commits']}"
        )
    state.stats = stats
    return tail.committed + tail.failed + unfinished, tail.failed + unfinished


def rss_at(marks: list[tuple[int, float]], programs: int) -> float:
    """Peak RSS when ``programs`` had committed, between the two nearest
    cuts; the last cut's if the window never got that far."""
    before = (0, marks[0][1])
    for committed, rss in marks:
        if committed >= programs:
            share = (programs - before[0]) / max(committed - before[0], 1)
            return before[1] + (rss - before[1]) * share
        before = (committed, rss)
    return before[1]


def run(state: State, seconds: float, setup_s: float):
    problems: list[str] = []

    async def measure():
        window = await _window(state, seconds)
        tail = await _finish(state, problems)
        return window, tail

    window, (tail_attempted, tail_failed) = state.loop.run_until_complete(measure())
    tally = window.tally
    client_share = window.client_cpu / window.wall
    if client_share >= 0.90:
        problems.append(f"the generator used {client_share:.0%} of a core")
    values = end_to_end(window.slices)
    values["peak_rss_mb"] = rss_at(window.rss_marks, RSS_AT_PROGRAMS)
    values["setup_s"] = setup_s
    info = {
        "samples": tally.committed,
        "peak_rss_mb_at_end": state.stats["peak_rss_mb"],
        "restarts_per_commit": round(tally.restarts / tally.committed, 4),
        "req_s": round(tally.requests / window.wall),
        "client_cpu_share": round(client_share, 3),
        "server_cpu_share": round(window.server_cpu / window.wall, 3),
        "loop": state.stats["loop"],
    }
    attempted = tally.committed + tally.failed + tail_attempted
    return values, attempted, tally.failed + tail_failed, problems, info


def run_traced(state: State, seconds: float, setup_s: float):
    from repro.engine.metrics import MetricsSnapshot

    problems: list[str] = []
    tracer = Tracer()

    async def measure():
        state.driver.tracer = tracer
        plain = await _window(state, seconds * 0.3)
        state.driver.tracing = True
        traced = await _window(state, seconds * 0.5)
        state.driver.tracing = False
        tail = await _finish(state, problems)
        return plain, traced, tail

    plain, traced, (tail_attempted, tail_failed) = state.loop.run_until_complete(
        measure()
    )
    history = state.child.command("history")
    if history.get("violations"):
        problems.append(f"repro.check: {history['label']}")
    driver, stats = state.driver, state.stats
    tracer.dump(OUT_DIR / f"trace-wire-esr-mix-{state.seed}.jsonl")

    values: dict[str, float] = {
        "trace_overhead_share": 1.0 - traced.rate / plain.rate
    }
    wire_layer_metrics(
        values, "binary", tracer, driver, traced, stats, build_database(state.seed)
    )
    snap = MetricsSnapshot(**stats["metrics"])
    engine_metrics(values, snap, stats["perf"]["ledger_walks"])
    values["engine.manager.wasted_ops_share"] = history["wasted_ops_share"]
    for level in ("object", "group", "transaction"):
        values[f"core.hierarchy.rejections.{level}"] = history[f"rejections.{level}"]
    values["engine.history.events_per_commit"] = history["events"] / max(
        history["commits"], 1
    )
    values["check.events_s"] = history["check_events"] / history["check_seconds"]
    values["check.violations"] = history["violations"]
    pool_metrics(values, state.pools)
    info = {
        "replay": {k: v for k, v in values.items() if k.startswith("net.")},
        "rejections": {
            level: history[f"rejections.{level}"]
            for level in ("object", "group", "transaction")
        },
    }
    attempted = sum(w.tally.committed + w.tally.failed for w in (plain, traced))
    failed = plain.tally.failed + traced.tally.failed + tail_failed
    return values, attempted + tail_attempted, failed, problems, info
