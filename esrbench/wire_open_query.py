"""``wire-open-query``: the serving layer under a fixed offered load.

Open loop, 2 connections × 16 arrival streams, the JSON line codec (what
a peer that never says ``hello`` gets), the asyncio server in a child
process, 256 objects, one-read query transactions, no writers.  Three
consecutive steps at fixed offered rates; the gated end-to-end metrics
come from the middle one.  Each stream's arrivals are a Poisson process
drawn from the seed; latency is charged from the intended start.

Socket read, JSON decode (including the byte-level fast path), dispatch
queue, encode and the coalesced flush do nearly all the work; engine
admission is trivial — nothing conflicts, nothing is charged.  A codec or
dispatch change must show here and an engine change must not.
"""

from __future__ import annotations

import asyncio
import random
import selectors
import time
from dataclasses import dataclass, field

from common import OUT_DIR, end_to_end, latency_summary, percentile
from programs import READ, FlatProgram
from spans import Tracer
from layers import wire_layer_metrics
from sut import ServerChild, Window, measure_window
from wire import Driver, Tally

CONNECTIONS = 2
STREAMS = 32
OBJECTS = 256
PROGRAMS_PER_STREAM = 500
#: Offered load, transactions per second: about a fifth, a half and
#: four fifths of the ~10 k txn/s at which this class of host saturates.
#: The same on both sides of any comparison.
RATES = {"rate_low": 1_500.0, "rate_mid": 3_500.0, "rate_high": 6_500.0}
WARMUP_ARRIVALS = 40  # per stream, at rate_low
DRAIN_SECONDS = 15.0
#: The latency limit the highest-sustained-rate metric is held to.
SLO_P90_MS = 5.0
BINARY = False
SERVER_OPTIONS: dict = {}


def build_database(seed: int):
    """The server child's database: object ``i`` holds ``float(i)``."""
    from repro.engine.database import Database

    database = Database()
    database.create_many((i, float(i)) for i in range(1, OBJECTS + 1))
    return database


def stream_programs(seed: int, stream: int) -> list[FlatProgram]:
    rng = random.Random(seed * 1_000_003 + stream)
    return [
        FlatProgram(
            index=stream * PROGRAMS_PER_STREAM + i,
            is_query=True,
            limit=0.0,
            group_limits=(),
            ops=((READ, rng.randrange(OBJECTS) + 1, 0.0),),
        )
        for i in range(PROGRAMS_PER_STREAM)
    ]


def schedule(seed: int, steps: list[tuple[float, float]]) -> list[list[float]]:
    """Per-stream intended starts (seconds from zero) — a pure function
    of the seed and the ``(rate, duration)`` steps."""
    streams = []
    for stream in range(STREAMS):
        rng = random.Random(seed * 7_000_003 + stream)
        arrivals: list[float] = []
        begin = 0.0
        for rate, duration in steps:
            per_stream = rate / STREAMS
            at = begin + rng.expovariate(per_stream)
            while at < begin + duration:
                arrivals.append(at)
                at += rng.expovariate(per_stream)
            begin += duration
        streams.append(arrivals)
    return streams


@dataclass
class State:
    seed: int
    child: ServerChild
    loop: asyncio.AbstractEventLoop
    driver: Driver | None = None
    stats: dict = field(default_factory=dict)
    #: What finished after the last step, during the drain.
    tail: Tally = field(default_factory=Tally)


def setup(seed: int, traced: bool = False) -> State:
    child = ServerChild("wire_open_query", seed)
    # epoll takes its timeout in whole milliseconds and asyncio rounds it
    # up, so on the default loop every arrival timer fires up to 1 ms
    # late — as much as the transaction then takes.  select() takes
    # microseconds, and with two sockets costs the same.
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    state = State(seed, child, loop)
    try:
        state.loop.run_until_complete(_connect_and_warm_up(state))
    except BaseException:
        teardown(state)
        raise
    return state


async def _connect_and_warm_up(state: State) -> None:
    driver = state.driver = Driver()
    driver.expected_value = float  # object i holds float(i), for ever
    await driver.connect("127.0.0.1", state.child.port, CONNECTIONS, BINARY)
    per_connection = STREAMS // CONNECTIONS
    warm_seconds = WARMUP_ARRIVALS * STREAMS / RATES["rate_low"]
    warm = schedule(state.seed, [(RATES["rate_low"], warm_seconds)])
    for stream in range(STREAMS):
        driver.add_session(
            stream // per_connection,
            stream + 1,
            stream_programs(state.seed, stream),
            warm[stream],
        )
    driver.start()
    await driver.drain(DRAIN_SECONDS)
    driver.swap_tally()


def teardown(state: State) -> None:
    try:
        if state.driver is not None:
            state.loop.run_until_complete(state.driver.close())
    finally:
        state.child.stop()
        state.loop.close()


@dataclass
class Step:
    name: str
    rate: float
    seconds: float
    traced: bool = False
    scheduled: int = 0
    window: Window | None = None


async def _run_steps(state: State, steps: list[Step], tracer: Tracer | None):
    """Run the steps back to back; returns ``(unfinished, scheduled)``."""
    driver, child = state.driver, state.child
    driver.tracer = tracer
    arrivals = schedule(state.seed, [(s.rate, s.seconds) for s in steps])
    for session, times in zip(driver.sessions, arrivals):
        session.arrivals = times
        session.arrival_index = 0
    begin = 0.0
    for step in steps:
        step.scheduled = sum(
            1 for times in arrivals for at in times
            if begin <= at < begin + step.seconds
        )
        begin += step.seconds
    driver.start()
    for step in steps:
        driver.tracing = step.traced
        step.window = await measure_window(driver, child, step.seconds)
    driver.tracing = False
    unfinished = await driver.drain(DRAIN_SECONDS)
    state.tail = driver.swap_tally()
    state.stats = child.command("stats")
    return unfinished, sum(len(times) for times in arrivals)


def _check(state, steps, unfinished, scheduled, problems) -> tuple[int, int]:
    tallies = [step.window.tally for step in steps] + [state.tail]
    committed = sum(t.committed for t in tallies)
    failed = sum(t.failed for t in tallies) + unfinished
    if committed + failed != scheduled:
        problems.append(
            f"{scheduled} arrivals scheduled, {committed} committed "
            f"and {failed} failed"
        )
    if unfinished:
        problems.append(f"{unfinished} transactions not finished by the drain deadline")
    wrong = sum(t.wrong_values for t in tallies)
    if wrong:
        problems.append(f"{wrong} reads returned a value the object never held")
    if state.stats["metrics"]["aborts"]:
        problems.append("the server aborted a transaction of a conflict-free load")
    return scheduled, failed


def run(state: State, seconds: float, setup_s: float):
    problems: list[str] = []
    steps = [
        Step("rate_low", RATES["rate_low"], seconds * 0.25),
        Step("rate_mid", RATES["rate_mid"], seconds * 0.5),
        Step("rate_high", RATES["rate_high"], seconds * 0.25),
    ]
    unfinished, scheduled = state.loop.run_until_complete(
        _run_steps(state, steps, None)
    )
    attempted, failed = _check(state, steps, unfinished, scheduled, problems)
    mid = steps[1].window
    client_share = mid.client_cpu / mid.wall
    if client_share >= 0.90:
        problems.append(f"the generator used {client_share:.0%} of a core")
    values = end_to_end(mid.slices)
    values["peak_rss_mb"] = state.stats["peak_rss_mb"]
    values["setup_s"] = setup_s
    info = {"samples": mid.tally.committed, "steps": _step_table(steps)}
    return values, attempted, failed, problems, info


def _step_table(steps: list[Step]) -> dict:
    table = {}
    for step in steps:
        window = step.window
        summary = latency_summary(window.tally.latencies_ms)
        late = sorted(window.tally.late_ms)
        table[step.name + ("+trace" if step.traced else "")] = {
            "offered": step.rate,
            "scheduled": step.scheduled,
            "committed": window.tally.committed,
            "achieved": round(window.tally.committed / window.wall, 1),
            "p50_ms": round(summary["p50"], 3),
            "p90_ms": round(summary["p90"], 3),
            "p99_ms": round(summary["p99"], 3),
            "late_p90_ms": round(percentile(late, 90), 3) if late else None,
            "server_cpu": round(window.server_cpu / window.wall, 3),
            "client_cpu": round(window.client_cpu / window.wall, 3),
        }
    return table


def run_traced(state: State, seconds: float, setup_s: float):
    problems: list[str] = []
    tracer = Tracer()
    steps = [
        Step("rate_low", RATES["rate_low"], seconds * 0.2),
        Step("rate_mid", RATES["rate_mid"], seconds * 0.25),
        Step("rate_mid", RATES["rate_mid"], seconds * 0.25, traced=True),
        Step("rate_high", RATES["rate_high"], seconds * 0.2),
    ]
    unfinished, scheduled = state.loop.run_until_complete(
        _run_steps(state, steps, tracer)
    )
    attempted, failed = _check(state, steps, unfinished, scheduled, problems)
    low, plain, traced, high = (step.window for step in steps)
    tracer.dump(OUT_DIR / f"trace-wire-open-query-{state.seed}.jsonl")

    values: dict[str, float] = {
        "trace_overhead_share": 1.0
        - (traced.tally.committed / traced.wall) / (plain.tally.committed / plain.wall)
    }
    wire_layer_metrics(
        values, "json", tracer, state.driver, traced, state.stats,
        build_database(state.seed),
    )
    sustained = 0.0
    for step in steps:
        summary = latency_summary(step.window.tally.latencies_ms)
        if step.name != "rate_mid":
            values[f"net.aioserver.p50_ms.{step.name}"] = summary["p50"]
            values[f"net.aioserver.p90_ms.{step.name}"] = summary["p90"]
        kept_up = step.window.tally.committed >= 0.98 * step.scheduled
        if summary["p90"] <= SLO_P90_MS and kept_up:
            sustained = max(sustained, step.rate)
    values["net.aioserver.slo_rate_txn_s"] = sustained
    values["client.cpu_share"] = plain.client_cpu / plain.wall
    late = sorted(plain.tally.late_ms)
    values["client.late_p90_ms"] = percentile(late, 90) if late else 0.0
    info = {"steps": _step_table(steps)}
    return values, attempted, failed, problems, info
