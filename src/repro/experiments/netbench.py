"""The serving-layer load generator behind ``repro bench-net``.

Measures what the serving stack — not the engine — can sustain: N
connections × a pipeline depth of concurrent sessions per connection,
each session looping tiny query transactions (begin, K reads, commit)
against a live server over localhost TCP.  Both servers are driven by
the same pipelined asyncio client (:mod:`repro.net.aioclient`), so the
comparison isolates the serving architecture: thread-per-connection with
a global engine mutex versus the asyncio batched-dispatch loop.

The suite benchmarks seven rows, decomposing where the speedup comes
from:

* ``threaded`` — the threaded server under its own wire discipline:
  strictly one request in flight per connection, exactly how the
  synchronous :class:`~repro.net.client.RemoteConnection` drives it (the
  paper's RPC library).  This is the faithful pre-pipelining baseline.
* ``threaded-pipelined`` — the threaded server driven by the new
  pipelined client: the new wire protocol on the old architecture, so
  the difference to ``threaded`` is what pipelining alone buys.
* ``async`` — the asyncio server driven pipelined; the difference to
  ``threaded-pipelined`` is what the serving architecture (batched
  dispatch, write coalescing, no mutex/thread switches) buys.
* ``read-heavy-nocache`` / ``read-heavy-cached`` — the asyncio server
  under a read-heavy workload (48 reads per query, one writer session
  in 16), with the epsilon snapshot read cache off and on.  The pair's
  ratio (``speedup_cached_reads``) is what answering bounded-staleness
  reads inline in the connection's
  :class:`~repro.net.requests.Conversation` — outside the engine
  critical section and the dispatch queue — buys.
* ``write-heavy-1shard`` / ``write-heavy-4shard`` — the threaded server
  driven pipelined under a write-heavy multi-object mix (4 reads per
  query, every second session a writer on disjoint stripes), with the
  engine unsharded versus partitioned four ways
  (:class:`~repro.engine.sharded.ShardedEngine`).  The pair's ratio
  (``speedup_sharded``) is what replacing the global engine mutex with
  per-shard critical sections buys.
* ``write-heavy-4proc`` — the same write-heavy mix with the four shard
  engines in worker **processes**
  (:class:`~repro.engine.procshard.WorkerShard` backends).  Against
  ``write-heavy-1shard`` this (``speedup_process_sharded``) is what
  escaping the GIL buys; against ``write-heavy-4shard`` it isolates the
  IPC cost/parallelism trade.  On a single-core host the row degrades
  to thread shards and the report carries
  ``process_sharding_degraded`` so ~1.0x is not misread.

The headline ``speedup_requests_per_s`` is ``async`` versus the
``threaded`` baseline.

Two load modes for the pipelined rows:

* ``closed`` (default) — every pipeline slot issues its next transaction
  the moment the previous one commits; the offered load adapts to the
  server.  Throughput is the headline number.  This mode uses a raw
  slot-state-machine driver (one coroutine per connection, no
  per-request futures) so the generator itself stays out of the
  measurement as far as possible — like ``wrk``, the client must be
  cheaper than the server it is loading.
* ``open`` — transactions start on a fixed arrival schedule derived from
  ``--rate`` regardless of completions (wrk2-style: each pipeline slot
  owns a deterministic arrival stream), and latency is measured from the
  *intended* start, so queueing delay behind a slow server is charged to
  the measurement instead of silently absorbed (the coordinated-omission
  correction).  This mode drives the general-purpose pipelining client
  (:class:`~repro.net.aioclient.AsyncRemoteConnection`).

The serial baseline row always runs closed-loop (a strictly alternating
connection has no pipeline to schedule into).

Beyond the seven decomposition rows, the suite carries the wire-codec
and latency-under-load rows added with the binary codec:

* ``async-binary`` — the ``async`` row again with the negotiated binary
  codec (:mod:`repro.net.protocol`); the ratio
  (``speedup_binary_codec``) is what struct-packed frames buy over the
  byte-exact JSON fast path.
* ``open-1k`` … ``open-12k`` — the async server (binary codec) under
  fixed offered loads from well below to beyond saturation; the report's
  ``latency_vs_load`` section is the resulting latency-vs-offered-load
  curve, p50/p90/p99 per point.
* ``soak-8k`` — the same open-loop harness at a sustained rate for 4×
  the row duration, so drift (GC, fragmentation, backlog creep) has
  time to show in the tail.

Open-loop rows are excluded from the p99 regression guard
(:func:`check_p99_regression`): beyond saturation their tail is
unbounded *by design*; the guard covers the closed-loop rows.

Results are written to/compared against ``BENCH_net.json`` the same way
the hot-path suite uses ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import perf
from repro.engine.database import Database

__all__ = [
    "LoadConfig",
    "SuiteRow",
    "SUITE_ROWS",
    "DEFAULT_SERVERS",
    "QUICK_CONFIG",
    "DEFAULT_CONFIG",
    "run_load",
    "run_suite",
    "write_baseline",
    "load_baseline",
    "format_report",
    "format_comparison",
    "check_p99_regression",
]

#: Schema marker for BENCH_net.json, bumped on incompatible changes.
SCHEMA_VERSION = 1

#: TIL high enough that the benchmark queries never hit a bound.
_BENCH_TIL = 1e12


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation run."""

    connections: int = 32
    depth: int = 8  # concurrent sessions (pipeline depth) per connection
    duration_s: float = 5.0
    objects: int = 256
    reads_per_txn: int = 1
    mode: str = "closed"  # "closed" | "open"
    rate: float | None = None  # open-loop target, transactions/s overall
    discipline: str = "pipelined"  # "pipelined" | "serial" (pre-PR wire)
    #: Wire codec: ``"json"`` (line protocol) or ``"binary-1"``
    #: (negotiated length-prefixed frames).
    codec: str = "json"
    #: Fraction of sessions that run update transactions (begin, one
    #: write, commit) instead of queries — the read-heavy cache rows use
    #: a small fraction so cached reads observe real divergence.  Writer
    #: sessions write disjoint object stripes (no write-write conflicts);
    #: closed-loop raw driver only.
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', not {self.mode!r}")
        if self.codec not in ("json", "binary-1"):
            raise ValueError(
                f"codec must be 'json' or 'binary-1', not {self.codec!r}"
            )
        if self.rate is not None and self.mode != "open":
            raise ValueError(
                "a target rate only makes sense in open-loop mode "
                "(closed loop adapts its offered load to the server)"
            )

    @property
    def sessions(self) -> int:
        return self.connections * self.depth

    def is_writer(self, session_index: int) -> bool:
        """Whether the session at this global index runs updates.

        Writers are spread evenly: one every ``1/write_fraction``
        sessions (at least one when the fraction is positive).
        """
        if self.write_fraction <= 0.0:
            return False
        stride = max(1, round(1.0 / self.write_fraction))
        return session_index % stride == 0


DEFAULT_CONFIG = LoadConfig()
QUICK_CONFIG = LoadConfig(connections=4, depth=2, duration_s=0.5, objects=32)


@dataclass
class _Tally:
    """Mutable counters shared by every session task of one run."""

    requests: int = 0
    transactions: int = 0
    errors: int = 0
    latencies_ms: list[float] = field(default_factory=list)


def build_bench_database(objects: int) -> Database:
    database = Database()
    database.create_many((i, float(i)) for i in range(1, objects + 1))
    return database


# -- the raw closed-loop driver ------------------------------------------------


#: Reads a query slot pipelines per burst.  Chunking matters for the
#: cache rows: a query whose reads all ride one burst can never observe
#: divergence (a writer that begins after the query needs two round
#:  trips to commit, the reads arrive after one), so multi-burst queries
#: are what makes writers genuinely race the reads.
_READ_CHUNK = 16


class _Slot:
    """One pipeline slot: a begin→read-bursts→commit state machine.

    Writer slots (``step > 0``) run begin→write→commit instead, each
    stepping through its own disjoint object stride so writers never
    conflict with each other.
    """

    __slots__ = (
        "outstanding",
        "failed",
        "started",
        "object_id",
        "step",
        "txn",
        "remaining",
        "cursor",
    )

    def __init__(self, object_id: int, step: int = 0):
        self.outstanding = 0
        self.failed = False
        self.started = 0.0
        self.object_id = object_id
        self.step = step
        self.txn: int | None = None  # open transaction awaiting its commit
        self.remaining = 0  # reads not yet requested this transaction
        self.cursor = 0  # read offset within this transaction


async def _drive_connection_raw(
    host: str,
    port: int,
    config: LoadConfig,
    conn_index: int,
    deadline: float,
    tally: _Tally,
) -> None:
    """One connection of the closed-loop load: ``depth`` slots pipelined.

    Each slot runs whole transactions: its ``begin`` is issued, and once
    the transaction id arrives, the reads are pipelined in bursts of
    :data:`_READ_CHUNK` followed by the commit (same-connection requests
    dispatch in order on both servers, and this workload never parks on
    a wait).  Requests from all slots coalesce into shared writes;
    responses are parsed out of bulk ``read()`` chunks.  No futures, no
    per-request tasks.
    """
    import json as _json

    from repro.net.protocol import MAX_LINE_BYTES, BinaryCodec

    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES + 1
    )
    # Binary codec: negotiate before the load starts (one JSON hello
    # round trip); a server that declines leaves the run on JSON.
    binary = config.codec == "binary-1"
    if binary:
        writer.write(b'{"op":"hello","codecs":["binary-1"]}\n')
        hello = _json.loads(await reader.readuntil(b"\n"))
        if not (hello.get("ok") and hello.get("codec") == "binary-1"):
            binary = False
    pending: dict[int, _Slot] = {}  # correlation id -> slot
    next_id = 0
    out: list[bytes] = []
    active = 0

    # Requests are pre-formatted bytes (plain protocol JSON, or — in
    # binary mode — one struct pack each): a load generator must cost
    # less than the server it measures, and json.dumps per tiny request
    # is a measurable share of that cost.
    if binary:
        # The pack_* staticmethods already have the fmt_* signatures
        # (struct's ``d`` accepts the int write values), so bind them
        # directly — no wrapper call per request.
        _pack_begin = BinaryCodec.pack_begin
        fmt_read = BinaryCodec.pack_read
        fmt_write = BinaryCodec.pack_write
        fmt_commit = BinaryCodec.pack_commit

        def fmt_begin(rid: int, update: bool) -> bytes:
            return _pack_begin(1 if update else 0, _BENCH_TIL, rid)

    else:
        begin_template = (
            f'{{"op":"begin","kind":"query","limit":{_BENCH_TIL!r},"id":%d}}\n'
        ).encode()
        begin_update_template = (
            f'{{"op":"begin","kind":"update","limit":{_BENCH_TIL!r},"id":%d}}\n'
        ).encode()
        read_template = b'{"op":"read","txn":%d,"object":%d,"id":%d}\n'
        write_template = (
            b'{"op":"write","txn":%d,"object":%d,"value":%d,"id":%d}\n'
        )
        commit_template = b'{"op":"commit","txn":%d,"id":%d}\n'

        def fmt_begin(rid: int, update: bool) -> bytes:
            return (begin_update_template if update else begin_template) % rid

        def fmt_read(txn: int, object_id: int, rid: int) -> bytes:
            return read_template % (txn, object_id, rid)

        def fmt_write(txn: int, object_id: int, value: int, rid: int) -> bytes:
            return write_template % (txn, object_id, value, rid)

        def fmt_commit(txn: int, rid: int) -> bytes:
            return commit_template % (txn, rid)

    write_seq = 0

    def start_txn(slot: _Slot) -> None:
        nonlocal next_id, active
        slot.started = time.perf_counter()
        slot.failed = False
        slot.txn = None
        slot.remaining = 0
        slot.cursor = 0
        active += 1
        next_id += 1
        pending[next_id] = slot
        slot.outstanding += 1
        out.append(fmt_begin(next_id, bool(slot.step)))

    def send_reads(slot: _Slot) -> None:
        nonlocal next_id
        count = min(_READ_CHUNK, slot.remaining)
        slot.remaining -= count
        for _ in range(count):
            next_id += 1
            pending[next_id] = slot
            slot.outstanding += 1
            out.append(
                fmt_read(
                    slot.txn,
                    (slot.object_id + slot.cursor) % config.objects + 1,
                    next_id,
                )
            )
            slot.cursor += 1

    def send_commit(slot: _Slot) -> None:
        nonlocal next_id
        next_id += 1
        pending[next_id] = slot
        slot.outstanding += 1
        out.append(fmt_commit(slot.txn, next_id))
        slot.txn = None
        slot.object_id = (slot.object_id + (slot.step or 1)) % config.objects

    def settle(rid: int, ok: bool, txn: int | None, now: float) -> None:
        """Advance one slot's state machine with one response."""
        nonlocal active, write_seq, next_id
        slot = pending.pop(rid, None)
        if slot is None:
            return
        slot.outstanding -= 1
        tally.requests += 1
        if not ok:
            slot.failed = True
        elif txn is not None:
            # The begin answered.  A writer bursts its write and the
            # commit together; a query bursts its first read chunk
            # (later chunks ride later round trips, so writers
            # genuinely race the query's reads).
            slot.txn = txn
            if slot.step:
                write_seq += 1
                next_id += 1
                pending[next_id] = slot
                slot.outstanding += 1
                out.append(
                    fmt_write(
                        txn,
                        slot.object_id % config.objects + 1,
                        write_seq % 1000,
                        next_id,
                    )
                )
                send_commit(slot)
            else:
                slot.remaining = config.reads_per_txn
                send_reads(slot)
        if slot.outstanding == 0:
            if slot.remaining > 0 and not slot.failed:
                # Burst answered, reads left: pipeline the next chunk.
                send_reads(slot)
            elif slot.txn is not None:
                # All reads answered (or the transaction failed along
                # the way): settle it with its commit.
                send_commit(slot)
            else:
                # Transaction attempt finished (commit answered, or
                # the begin failed and every response has landed).
                active -= 1
                if slot.failed:
                    tally.errors += 1
                else:
                    tally.transactions += 1
                    tally.latencies_ms.append((now - slot.started) * 1e3)
                if now < deadline:
                    start_txn(slot)

    # Writer sessions step through disjoint object stripes (writer k
    # touches objects ≡ k mod n_writers), so writers never conflict
    # with each other — divergence comes from writes racing *queries*.
    n_writers = sum(
        1 for i in range(config.sessions) if config.is_writer(i)
    )
    for d in range(config.depth):
        index = conn_index * config.depth + d
        if config.is_writer(index):
            writer_rank = sum(
                1 for i in range(index) if config.is_writer(i)
            )
            start_txn(_Slot(writer_rank, step=n_writers))
        else:
            start_txn(_Slot((index * 7) % config.objects))
    writer.write(b"".join(out))
    out.clear()

    buffer = b""
    while active > 0:
        chunk = await reader.read(1 << 16)
        if not chunk:
            tally.errors += active
            break
        buffer += chunk
        if binary:
            # Frames: u32le size, u8 type, payload.  Every fixed layout
            # carries its correlation id in the *last* 8 bytes — by
            # design, so the generator pulls it without a full decode.
            # 0x82 is ok+txn (the begin answer); 0x81/0x83/0x84 are the
            # other ok shapes; anything else (the JSON-payload frame,
            # carrying errors) falls back to the JSON parser.
            now = time.perf_counter()
            pos = 0
            end = len(buffer)
            while end - pos >= 4:
                size = int.from_bytes(buffer[pos : pos + 4], "little")
                if end - pos - 4 < size:
                    break
                frame = buffer[pos + 4 : pos + 4 + size]
                pos += 4 + size
                kind = frame[0]
                if kind == 0x82:
                    settle(
                        int.from_bytes(frame[9:17], "little"),
                        True,
                        int.from_bytes(frame[1:9], "little"),
                        now,
                    )
                elif kind in (0x81, 0x83, 0x84):
                    settle(int.from_bytes(frame[-8:], "little"), True, None, now)
                else:
                    response = _json.loads(frame[1:])
                    settle(
                        response.get("id"),
                        bool(response.get("ok")),
                        response.get("txn") if response.get("ok") else None,
                        now,
                    )
            buffer = buffer[pos:]
        else:
            if b"\n" not in chunk:
                continue
            lines = buffer.split(b"\n")
            buffer = lines.pop()
            now = time.perf_counter()
            for line in lines:
                # Hand-parse the response: the generator tags every
                # request, so ``id`` is the response's last key, and
                # ``begin`` answers are the only ok-responses carrying
                # ``txn``.  A wrk-style generator must stay cheaper than
                # the server it measures; anything surprising falls back
                # to the JSON parser.
                txn = None
                if line.startswith(b'{"ok":true'):
                    ok = True
                    try:
                        rid = int(line[line.rindex(b'"id":') + 5 : -1])
                    except ValueError:
                        response = _json.loads(line)
                        rid = response.get("id")
                        txn = response.get("txn")
                    else:
                        if line.startswith(b'{"ok":true,"txn":'):
                            txn = int(line[17 : line.index(b",", 17)])
                else:
                    ok = False
                    rid = _json.loads(line).get("id")
                settle(rid, ok, txn, now)
        if out:
            writer.write(b"".join(out))
            out.clear()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _drive_connection_serial(
    host: str,
    port: int,
    config: LoadConfig,
    conn_index: int,
    deadline: float,
    tally: _Tally,
) -> None:
    """One connection of the *serial* baseline discipline.

    Strictly one request in flight, untagged, exactly how the
    synchronous client drives the threaded server: send a request, wait
    for its response, send the next.  ``depth`` does not apply — a
    strictly alternating connection has no pipeline.
    """
    import json as _json

    from repro.net.protocol import MAX_LINE_BYTES

    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES + 1
    )
    begin_line = (
        f'{{"op":"begin","kind":"query","limit":{_BENCH_TIL!r}}}\n'
    ).encode()
    object_id = (conn_index * 7) % config.objects
    try:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            started = now
            writer.write(begin_line)
            response = _json.loads(await reader.readuntil(b"\n"))
            tally.requests += 1
            if not response.get("ok"):
                tally.errors += 1
                continue
            txn = response["txn"]
            failed = False
            for k in range(config.reads_per_txn):
                writer.write(
                    b'{"op":"read","txn":%d,"object":%d}\n'
                    % (txn, (object_id + k) % config.objects + 1)
                )
                response = _json.loads(await reader.readuntil(b"\n"))
                tally.requests += 1
                if not response.get("ok"):
                    failed = True
                    break
            if not failed:
                writer.write(b'{"op":"commit","txn":%d}\n' % txn)
                response = _json.loads(await reader.readuntil(b"\n"))
                tally.requests += 1
                failed = not response.get("ok")
            if failed:
                tally.errors += 1
            else:
                tally.transactions += 1
                tally.latencies_ms.append((time.perf_counter() - started) * 1e3)
            object_id = (object_id + 1) % config.objects
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        tally.errors += 1
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


# -- the session-based open-loop driver ----------------------------------------


async def _session(
    connection,
    config: LoadConfig,
    session_index: int,
    deadline: float,
    tally: _Tally,
    schedule: tuple[float, float] | None,
) -> None:
    """One closed-loop session, or one open-loop arrival schedule slice.

    ``schedule`` is ``(first_start, period)`` in ``perf_counter`` time for
    open-loop mode, None for closed-loop.
    """
    from repro.errors import ProtocolError, TransactionAborted

    object_id = (session_index * 7) % config.objects + 1
    arrival = schedule[0] if schedule else None
    while True:
        now = time.perf_counter()
        if now >= deadline:
            return
        if schedule is not None:
            if arrival > now:
                await asyncio.sleep(arrival - now)
                if time.perf_counter() >= deadline:
                    return
            started = arrival  # latency from the *scheduled* start
            arrival += schedule[1]
        else:
            started = now
        try:
            txn = await connection.begin("query", _BENCH_TIL)
            for k in range(config.reads_per_txn):
                await txn.read((object_id + k - 1) % config.objects + 1)
            await txn.commit()
        except (TransactionAborted, ProtocolError, OSError):
            tally.errors += 1
            continue
        tally.requests += 2 + config.reads_per_txn
        tally.transactions += 1
        tally.latencies_ms.append((time.perf_counter() - started) * 1e3)
        object_id = object_id % config.objects + 1


async def _drive(host: str, port: int, config: LoadConfig) -> _Tally:
    tally = _Tally()
    start = time.perf_counter()
    deadline = start + config.duration_s
    if config.discipline == "serial":
        await asyncio.gather(
            *(
                _drive_connection_serial(host, port, config, c, deadline, tally)
                for c in range(config.connections)
            )
        )
        return tally
    if config.mode == "closed":
        await asyncio.gather(
            *(
                _drive_connection_raw(host, port, config, c, deadline, tally)
                for c in range(config.connections)
            )
        )
        return tally

    from repro.net import aioclient

    connections = await asyncio.gather(
        *(
            aioclient.connect(host, port, site=i + 1, codec=config.codec)
            for i in range(config.connections)
        )
    )
    rate = config.rate or 1000.0
    period = config.sessions / rate
    tasks = []
    for c, connection in enumerate(connections):
        for d in range(config.depth):
            index = c * config.depth + d
            # Stagger session start offsets across one period.
            schedule = (start + (index / config.sessions) * period, period)
            tasks.append(
                _session(connection, config, index, deadline, tally, schedule)
            )
    await asyncio.gather(*tasks)
    await asyncio.gather(*(conn.close() for conn in connections))
    return tally


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def run_load(host: str, port: int, config: LoadConfig) -> dict:
    """Drive one live server; returns the metrics dict for the run."""
    started = time.perf_counter()
    tally = asyncio.run(_drive(host, port, config))
    elapsed = time.perf_counter() - started
    latencies = sorted(tally.latencies_ms)
    return _metrics(tally, elapsed, latencies)


def _metrics(tally: _Tally, elapsed: float, latencies: list[float]) -> dict:
    return {
        "requests": tally.requests,
        "transactions": tally.transactions,
        "errors": tally.errors,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(tally.requests / elapsed, 1),
        "transactions_per_s": round(tally.transactions / elapsed, 1),
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p90": round(_percentile(latencies, 0.90), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "max": round(latencies[-1], 3) if latencies else 0.0,
        },
    }


def run_load_isolated(host: str, port: int, config: LoadConfig) -> dict:
    """Run the load generator in its own process.

    The generator must not share the server's interpreter: on one core a
    same-process client thread contends for the server's GIL and the
    scheduler noise lands in the measurement.  The child re-invokes this
    module (``python -m repro.experiments.netbench``) and reports its
    metrics as JSON on stdout.
    """
    import os
    import subprocess
    import sys

    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    payload = json.dumps(
        {
            "connections": config.connections,
            "depth": config.depth,
            "duration_s": config.duration_s,
            "objects": config.objects,
            "reads_per_txn": config.reads_per_txn,
            "mode": config.mode,
            "rate": config.rate,
            "discipline": config.discipline,
            "codec": config.codec,
            "write_fraction": config.write_fraction,
        }
    )
    child = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.netbench",
            host,
            str(port),
            payload,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=max(60.0, config.duration_s * 10),
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"load generator child failed:\n{child.stderr.strip()}"
        )
    return json.loads(child.stdout)


# -- the server side -----------------------------------------------------------


def _start_server(
    kind: str,
    database: Database,
    snapshot_cache: bool = False,
    shards: int = 1,
    processes: bool | str = False,
):
    """Start one server of ``kind``; returns (port, shutdown_callable)."""
    if kind == "threaded":
        from repro.net.server import serve_forever

        server = serve_forever(
            database,
            wait_timeout=5.0,
            snapshot_cache=snapshot_cache,
            shards=shards,
            processes=processes,
        )

        def stop() -> None:
            server.shutdown()
            server.server_close()

        return server.port, stop
    if kind == "async":
        from repro.net.aioserver import serve_in_thread

        handle = serve_in_thread(
            database,
            wait_timeout=5.0,
            snapshot_cache=snapshot_cache,
            shards=shards,
            processes=processes,
        )
        return handle.port, handle.shutdown
    raise ValueError(f"unknown server kind {kind!r}")


@dataclass(frozen=True)
class SuiteRow:
    """One benchmark row: which server, wire discipline, load shape."""

    server: str
    discipline: str
    #: Server-side epsilon snapshot read cache on/off.
    snapshot_cache: bool = False
    #: Partition the engine across this many per-shard critical sections
    #: (see :class:`repro.engine.sharded.ShardedEngine`); 1 is the plain
    #: single-engine server.
    shards: int = 1
    #: Run the shard engines in worker processes
    #: (:class:`repro.engine.procshard.WorkerShard`).  ``True``
    #: degrades to threads where processes cannot help (single core, no
    #: fork) — the report marks the degradation so the row is honest.
    processes: bool | str = False
    #: LoadConfig field overrides applied on top of the suite config.
    overrides: tuple[tuple[str, object], ...] = ()
    #: Multiply the suite duration for this row (the soak row runs 4×).
    duration_scale: float = 1.0


#: Suite row name -> row spec.  The read-heavy pair shares one workload
#: (48 reads per query, 1 writer session in 16 on disjoint stripes —
#: ~96% of requests are query reads) and differs only in the snapshot
#: cache, so their ratio isolates what the cache buys.  The write-heavy
#: pair shares a short-transaction mix (4 reads per query, every second
#: session a writer on disjoint stripes) on the threaded pipelined
#: server and differs only in engine sharding, so their ratio isolates
#: what per-shard critical sections buy over the global engine mutex.
_READ_HEAVY = (("reads_per_txn", 48), ("write_fraction", 1 / 16))
_WRITE_HEAVY = (("reads_per_txn", 4), ("write_fraction", 0.5))
_BINARY = (("codec", "binary-1"),)


def _open_row(rate: float) -> tuple[tuple[str, object], ...]:
    return (("mode", "open"), ("rate", rate), ("codec", "binary-1"))


SUITE_ROWS = {
    "threaded": SuiteRow("threaded", "serial"),
    "threaded-pipelined": SuiteRow("threaded", "pipelined"),
    "async": SuiteRow("async", "pipelined"),
    "async-binary": SuiteRow("async", "pipelined", overrides=_BINARY),
    "read-heavy-nocache": SuiteRow(
        "async", "pipelined", overrides=_READ_HEAVY
    ),
    "read-heavy-cached": SuiteRow(
        "async", "pipelined", snapshot_cache=True, overrides=_READ_HEAVY
    ),
    "write-heavy-1shard": SuiteRow(
        "threaded", "pipelined", overrides=_WRITE_HEAVY
    ),
    "write-heavy-4shard": SuiteRow(
        "threaded", "pipelined", shards=4, overrides=_WRITE_HEAVY
    ),
    "write-heavy-4proc": SuiteRow(
        "threaded",
        "pipelined",
        shards=4,
        processes=True,
        overrides=_WRITE_HEAVY,
    ),
    # Latency under load: fixed offered rates (transactions/s) from well
    # below to beyond saturation, binary codec, async server.  The last
    # point is *meant* to exceed capacity so the knee of the curve is in
    # frame.
    "open-1k": SuiteRow("async", "pipelined", overrides=_open_row(1000.0)),
    "open-4k": SuiteRow("async", "pipelined", overrides=_open_row(4000.0)),
    "open-8k": SuiteRow("async", "pipelined", overrides=_open_row(8000.0)),
    "open-12k": SuiteRow("async", "pipelined", overrides=_open_row(12000.0)),
    # Sustained soak at a rate the server can hold, 4× the row duration:
    # long enough for drift (backlog creep, allocator growth) to surface
    # in the tail percentiles.
    "soak-8k": SuiteRow(
        "async", "pipelined", overrides=_open_row(8000.0), duration_scale=4.0
    ),
}

#: Rows run by default (also the order they are reported in).
DEFAULT_SERVERS = (
    "threaded",
    "threaded-pipelined",
    "async",
    "async-binary",
    "read-heavy-nocache",
    "read-heavy-cached",
    "write-heavy-1shard",
    "write-heavy-4shard",
    "write-heavy-4proc",
    "open-1k",
    "open-4k",
    "open-8k",
    "open-12k",
    "soak-8k",
)


#: Perf counters reported as per-row deltas in the suite report.
_ROW_PERF_KEYS = (
    "net_requests_batched",
    "net_batches_drained",
    "net_flushes_coalesced",
    "net_backpressure_stalls",
    "cache_hits",
    "cache_misses",
    "cache_fallbacks",
    "cache_divergence_charged",
    "net_codec_binary_frames_encoded",
    "net_codec_binary_frames_decoded",
    "net_codec_negotiation_downgrades",
    "net_codec_json_fallbacks",
)


def run_suite(
    config: LoadConfig = DEFAULT_CONFIG,
    servers: tuple[str, ...] = DEFAULT_SERVERS,
    progress: Callable[[str], None] | None = None,
    isolate_client: bool = True,
) -> dict:
    """Benchmark each suite row on a fresh database; return the report.

    Rows are named in :data:`SUITE_ROWS`: ``threaded`` is the pre-PR
    baseline (serial wire discipline), ``threaded-pipelined`` the old
    architecture under the new pipelined wire, ``async`` the new server,
    and the ``read-heavy-*`` pair ablates the epsilon snapshot read
    cache under an identical read-heavy workload.

    ``isolate_client=True`` (the default) runs the load generator in a
    separate process so it never contends for the server's GIL; tests
    pass False to avoid subprocess startup per case.
    """
    from dataclasses import replace

    drive = run_load_isolated if isolate_client else run_load
    results: dict[str, dict] = {}
    for kind in servers:
        row = SUITE_ROWS[kind]
        case_config = replace(
            config,
            discipline=row.discipline,
            duration_s=config.duration_s * row.duration_scale,
            **dict(row.overrides),
        )
        database = build_bench_database(config.objects)
        counters_before = perf.counters.snapshot()
        port, stop = _start_server(
            row.server,
            database,
            snapshot_cache=row.snapshot_cache,
            shards=row.shards,
            processes=row.processes,
        )
        try:
            results[kind] = drive("127.0.0.1", port, case_config)
        finally:
            stop()
        counters_after = perf.counters.snapshot()
        results[kind]["perf"] = {
            key: counters_after[key] - counters_before[key]
            for key in _ROW_PERF_KEYS
        }
        results[kind]["row"] = {
            "server": row.server,
            "discipline": row.discipline,
            "snapshot_cache": row.snapshot_cache,
            "shards": row.shards,
            "processes": bool(row.processes),
            "overrides": dict(row.overrides),
        }
        # The load actually offered to this row — mode/rate/codec vary
        # per row, so the global config block alone would be misleading.
        results[kind]["load"] = {
            "mode": case_config.mode,
            "rate": case_config.rate,
            "codec": case_config.codec,
            "discipline": case_config.discipline,
            "duration_s": case_config.duration_s,
        }
        if progress is not None:
            entry = results[kind]
            progress(
                f"  {kind:<18} {entry['requests_per_s']:>12,.0f} req/s  "
                f"{entry['transactions_per_s']:>10,.0f} txn/s  "
                f"p50 {entry['latency_ms']['p50']:.2f} ms  "
                f"p99 {entry['latency_ms']['p99']:.2f} ms"
            )
    report = {
        "schema": SCHEMA_VERSION,
        "recorded": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            # Process sharding's headline number only means anything
            # relative to how many cores the run actually had.
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "connections": config.connections,
            "depth": config.depth,
            "duration_s": config.duration_s,
            "objects": config.objects,
            "reads_per_txn": config.reads_per_txn,
            "mode": config.mode,
            "rate": config.rate,
        },
        "servers": results,
    }
    if "threaded" in results and "async" in results:
        base = results["threaded"]["requests_per_s"]
        report["speedup_requests_per_s"] = (
            round(results["async"]["requests_per_s"] / base, 2) if base else 0.0
        )
    if "threaded-pipelined" in results and "async" in results:
        base = results["threaded-pipelined"]["requests_per_s"]
        report["speedup_vs_threaded_pipelined"] = (
            round(results["async"]["requests_per_s"] / base, 2) if base else 0.0
        )
    if "read-heavy-nocache" in results and "read-heavy-cached" in results:
        base = results["read-heavy-nocache"]["requests_per_s"]
        report["speedup_cached_reads"] = (
            round(results["read-heavy-cached"]["requests_per_s"] / base, 2)
            if base
            else 0.0
        )
    if "write-heavy-1shard" in results and "write-heavy-4shard" in results:
        base = results["write-heavy-1shard"]["requests_per_s"]
        report["speedup_sharded"] = (
            round(results["write-heavy-4shard"]["requests_per_s"] / base, 2)
            if base
            else 0.0
        )
    if "write-heavy-1shard" in results and "write-heavy-4proc" in results:
        from repro.engine.procshard import process_sharding_unavailable

        base = results["write-heavy-1shard"]["requests_per_s"]
        report["speedup_process_sharded"] = (
            round(results["write-heavy-4proc"]["requests_per_s"] / base, 2)
            if base
            else 0.0
        )
        degraded = process_sharding_unavailable()
        if degraded is not None:
            # The 4proc row silently ran on the thread composite; say so
            # rather than let ~1.0x read as "processes do not help".
            report["process_sharding_degraded"] = degraded
    if "async" in results and "async-binary" in results:
        base = results["async"]["requests_per_s"]
        report["speedup_binary_codec"] = (
            round(results["async-binary"]["requests_per_s"] / base, 2)
            if base
            else 0.0
        )
    latency_vs_load = [
        {
            "row": kind,
            "offered_rate_txn_s": entry["load"]["rate"],
            "achieved_txn_s": entry["transactions_per_s"],
            "p50_ms": entry["latency_ms"]["p50"],
            "p90_ms": entry["latency_ms"]["p90"],
            "p99_ms": entry["latency_ms"]["p99"],
        }
        for kind, entry in results.items()
        if entry["load"]["mode"] == "open" and entry["load"]["rate"]
    ]
    if latency_vs_load:
        report["latency_vs_load"] = latency_vs_load
    return report


def check_p99_regression(
    baseline: dict, current: dict, factor: float = 3.0
) -> list[str]:
    """p99 latency guard: closed-loop rows vs. the checked-in baseline.

    Returns one problem string per row whose current p99 exceeds
    ``factor`` × the baseline p99 (empty list = pass).  Open-loop rows
    are skipped: past the saturation knee the open-loop tail measures
    the backlog, which is unbounded by design, so it cannot gate.
    Rows missing from either report are skipped — new rows have no
    baseline, retired rows no current number.
    """
    problems = []
    for kind, entry in current.get("servers", {}).items():
        if entry.get("load", {}).get("mode", "closed") == "open":
            continue
        base = baseline.get("servers", {}).get(kind)
        if base is None:
            continue
        base_p99 = base.get("latency_ms", {}).get("p99", 0.0)
        cur_p99 = entry.get("latency_ms", {}).get("p99", 0.0)
        if base_p99 and cur_p99 > base_p99 * factor:
            problems.append(
                f"{kind}: p99 {cur_p99:.2f} ms vs baseline "
                f"{base_p99:.2f} ms (> {factor:g}x)"
            )
    return problems


# -- the baseline file ---------------------------------------------------------


def write_baseline(report: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_baseline(path: str | Path) -> dict | None:
    """The parsed baseline, or None when missing/unreadable/incompatible."""
    target = Path(path)
    if not target.is_file():
        return None
    try:
        report = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if report.get("schema") != SCHEMA_VERSION:
        return None
    return report


def format_report(report: dict) -> str:
    config = report["config"]
    lines = [
        f"bench-net: {config['connections']} connections × depth "
        f"{config['depth']}, {config['mode']} loop, "
        f"{config['duration_s']:g}s",
        f"{'server':<18} {'req/s':>12} {'txn/s':>10} "
        f"{'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8}",
    ]
    for kind, entry in report["servers"].items():
        lat = entry["latency_ms"]
        lines.append(
            f"{kind:<18} {entry['requests_per_s']:>12,.0f} "
            f"{entry['transactions_per_s']:>10,.0f} "
            f"{lat['p50']:>8.2f} {lat['p90']:>8.2f} {lat['p99']:>8.2f}"
        )
        cache_hits = entry.get("perf", {}).get("cache_hits", 0)
        if cache_hits:
            served = entry["perf"]
            total = cache_hits + served.get("cache_misses", 0) + served.get(
                "cache_fallbacks", 0
            )
            lines.append(
                f"{'':<18}   snapshot cache: {cache_hits:,} hits "
                f"({cache_hits / total:.0%} of eligible reads), "
                f"{served.get('cache_divergence_charged', 0.0):g} "
                "divergence charged"
            )
    if "speedup_requests_per_s" in report:
        lines.append(
            "async vs threaded baseline: "
            f"{report['speedup_requests_per_s']:.2f}x"
        )
    if "speedup_vs_threaded_pipelined" in report:
        lines.append(
            "async vs threaded-pipelined: "
            f"{report['speedup_vs_threaded_pipelined']:.2f}x"
        )
    if "speedup_cached_reads" in report:
        lines.append(
            "snapshot cache on vs off (read-heavy): "
            f"{report['speedup_cached_reads']:.2f}x"
        )
    if "speedup_sharded" in report:
        lines.append(
            "4 shards vs 1 (write-heavy, threaded): "
            f"{report['speedup_sharded']:.2f}x"
        )
    if "speedup_process_sharded" in report:
        suffix = ""
        if "process_sharding_degraded" in report:
            suffix = (
                " [degraded to threads: "
                f"{report['process_sharding_degraded']}]"
            )
        lines.append(
            "4 process shards vs 1 (write-heavy, threaded): "
            f"{report['speedup_process_sharded']:.2f}x{suffix}"
        )
    if "speedup_binary_codec" in report:
        lines.append(
            "binary codec vs JSON (async, pipelined): "
            f"{report['speedup_binary_codec']:.2f}x"
        )
    if "latency_vs_load" in report:
        lines.append("latency under offered load (open loop, binary codec):")
        lines.append(
            f"  {'row':<10} {'offered txn/s':>14} {'achieved':>10} "
            f"{'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8}"
        )
        for point in report["latency_vs_load"]:
            lines.append(
                f"  {point['row']:<10} {point['offered_rate_txn_s']:>14,.0f} "
                f"{point['achieved_txn_s']:>10,.0f} "
                f"{point['p50_ms']:>8.2f} {point['p90_ms']:>8.2f} "
                f"{point['p99_ms']:>8.2f}"
            )
    return "\n".join(lines)


def format_comparison(baseline: dict, current: dict) -> str:
    """Side-by-side requests/s and p99 per server kind vs. the baseline."""
    lines = [
        f"{'server':<18} {'baseline req/s':>15} {'current req/s':>15} "
        f"{'ratio':>7} {'base p99':>9} {'cur p99':>9}"
    ]
    for kind, entry in current["servers"].items():
        cur_p99 = entry.get("latency_ms", {}).get("p99", 0.0)
        base = baseline.get("servers", {}).get(kind)
        if base is None:
            lines.append(
                f"{kind:<18} {'—':>15} "
                f"{entry['requests_per_s']:>15,.0f} {'new':>7} "
                f"{'—':>9} {cur_p99:>9.2f}"
            )
            continue
        ratio = (
            entry["requests_per_s"] / base["requests_per_s"]
            if base["requests_per_s"]
            else 0.0
        )
        base_p99 = base.get("latency_ms", {}).get("p99", 0.0)
        lines.append(
            f"{kind:<18} {base['requests_per_s']:>15,.0f} "
            f"{entry['requests_per_s']:>15,.0f} {ratio:>6.2f}x "
            f"{base_p99:>9.2f} {cur_p99:>9.2f}"
        )
    return "\n".join(lines)


def _child_main(argv: list[str]) -> int:
    """Entry point for :func:`run_load_isolated` children."""
    host, port, payload = argv
    spec = json.loads(payload)
    config = LoadConfig(
        connections=int(spec["connections"]),
        depth=int(spec["depth"]),
        duration_s=float(spec["duration_s"]),
        objects=int(spec["objects"]),
        reads_per_txn=int(spec["reads_per_txn"]),
        mode=spec["mode"],
        rate=spec["rate"],
        discipline=spec.get("discipline", "pipelined"),
        codec=spec.get("codec", "json"),
        write_fraction=float(spec.get("write_fraction", 0.0)),
    )
    print(json.dumps(run_load(host, int(port), config)))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_child_main(sys.argv[1:]))
