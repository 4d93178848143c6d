"""Chaos harness: randomized schedules, injected faults, checked histories.

The harness starts a real server in-process with history recording on,
drives it with randomized multi-client schedules, and injects the faults
the recording seam must survive:

* **worker SIGKILL** — with ``--process-shards``, a shard worker process
  is killed mid-run; the engine fails over and every in-flight
  transaction that touched the dead shard aborts with
  ``shard-failover``;
* **delayed / split frames** — a request's bytes are cut at a random
  boundary and sent as two delayed segments, exercising the servers'
  incremental framing;
* **mid-stream disconnects** — a client walks away with a transaction
  open, exercising the servers' abandon path (``client-disconnected``
  aborts must be recorded exactly once);
* **pipelined bursts** — two requests are written back-to-back before
  either response is read, exercising the batched dispatch path.

Afterwards the recorded history is replayed through the offline
conformance checker (:mod:`repro.check.conformance`); the run passes
only when the checker reports zero violations.  The CI chaos smoke job
runs exactly this with one injected worker kill.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.check.conformance import CheckResult, check_log
from repro.core.bounds import ObjectBounds
from repro.engine.database import Database
from repro.engine.history import HistoryLog
from repro.errors import ProtocolError, TransactionAborted

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: workload shape, server shape, fault rates."""

    clients: int = 4
    transactions_per_client: int = 25
    objects: int = 32
    protocol: str = "esr"
    #: Transaction bounds for queries/updates — non-zero so the ESR
    #: relaxation paths (the interesting recording paths) actually fire.
    til: float = 200.0
    tel: float = 200.0
    #: Per-object bounds (generous: chaos is about fault paths, not
    #: bound rejections — those have their own tests).
    oil: float = 1e9
    oel: float = 1e9
    server: str = "async"  #: ``"async"`` or ``"threaded"``
    shards: int = 1
    #: ``True``/``False`` or ``"force"`` (insist on real worker
    #: processes even on one core — required for ``kill_workers``).
    processes: bool | str = False
    wait_timeout: float = 2.0
    #: Worker SIGKILLs injected mid-run (process shards only).
    kill_workers: int = 0
    #: Probability a client transaction ends in an abrupt disconnect.
    disconnect_rate: float = 0.05
    #: Probability one request's bytes are split and delayed.
    delay_rate: float = 0.1
    #: Probability an update pipelines two writes in one burst.
    burst_rate: float = 0.2
    seed: int = 0


@dataclass
class ChaosReport:
    """What happened, and whether the history survived the checker."""

    check: CheckResult
    history: HistoryLog
    commits: int = 0
    aborts: int = 0
    disconnects: int = 0
    kills: int = 0
    delayed_frames: int = 0
    bursts: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.check.ok and not self.errors


class _ChaosSocket:
    """A send-side proxy that sometimes splits and delays a request."""

    def __init__(self, sock: socket.socket, rng: random.Random, rate: float):
        self._sock = sock
        self._rng = rng
        self._rate = rate
        self.delayed = 0

    def sendall(self, data: bytes) -> None:
        if len(data) > 2 and self._rng.random() < self._rate:
            cut = self._rng.randrange(1, len(data))
            self._sock.sendall(data[:cut])
            time.sleep(self._rng.uniform(0.001, 0.01))
            self._sock.sendall(data[cut:])
            self.delayed += 1
        else:
            self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _client_loop(
    config: ChaosConfig,
    port: int,
    site: int,
    report: ChaosReport,
    lock: threading.Lock,
) -> None:
    """One chaos client: randomized transactions with injected faults."""
    from repro.net.client import RemoteConnection

    rng = random.Random(config.seed * 7_919 + site)
    connection: RemoteConnection | None = None
    done = 0
    while done < config.transactions_per_client:
        if connection is None:
            connection = RemoteConnection("127.0.0.1", port, site=site)
            chaos_sock = _ChaosSocket(
                connection._sock, rng, config.delay_rate
            )
            connection._sock = chaos_sock  # type: ignore[assignment]
        try:
            done += 1
            is_query = rng.random() < 0.5
            kind = "query" if is_query else "update"
            bound = config.til if is_query else config.tel
            txn = connection.begin(kind, bound)
            objects = rng.sample(
                range(config.objects), k=min(3, config.objects)
            )
            if rng.random() < config.disconnect_rate:
                # Walk away mid-transaction: the server's abandon path
                # must record exactly one client-disconnected abort.
                txn.read(objects[0]) if is_query else txn.write(
                    objects[0], rng.uniform(0.0, 200.0)
                )
                connection.close()
                connection = None
                with lock:
                    report.disconnects += 1
                continue
            if not is_query and rng.random() < config.burst_rate:
                _pipelined_writes(connection, txn, objects[:2], rng)
                with lock:
                    report.bursts += 1
            else:
                for object_id in objects:
                    if is_query:
                        txn.read(object_id)
                    else:
                        txn.write(object_id, rng.uniform(0.0, 200.0))
            if rng.random() < 0.05:
                txn.abort()
                with lock:
                    report.aborts += 1
            else:
                txn.commit()
                with lock:
                    report.commits += 1
        except TransactionAborted:
            with lock:
                report.aborts += 1
        except (ProtocolError, OSError):
            # The connection died underneath us (a worker kill tearing
            # down a request, or our own injected disconnect racing the
            # server's close); reconnect and continue the schedule.
            if connection is not None:
                connection.close()
            connection = None
        finally:
            if connection is not None:
                with lock:
                    report.delayed_frames += chaos_sock.delayed
                chaos_sock.delayed = 0
    if connection is not None:
        connection.close()


def _pipelined_writes(connection, txn, objects, rng: random.Random) -> None:
    """Send two write requests back-to-back, then read both responses."""
    codec = connection._codec
    messages = [
        {
            "op": "write",
            "txn": txn.txn_id,
            "object": object_id,
            "value": rng.uniform(0.0, 200.0),
        }
        for object_id in objects
    ]
    payload = b"".join(codec.encode_request(m) for m in messages)
    connection._sock.sendall(payload)
    for _ in messages:
        response = connection._reader.read_message()
        if response is None:
            raise ProtocolError("server closed the connection mid-burst")
        txn._check(response)


def _kill_workers(manager, count: int, rng: random.Random) -> int:
    """SIGKILL up to ``count`` shard workers, pausing for failover between.

    A failed-over shard has no worker (``worker_pids()`` reports None
    for it), so the victims are drawn from the live pids only and the
    killing stops once none is left.
    """
    kills = 0
    for _ in range(count):
        pids = [
            pid
            for pid in getattr(manager, "worker_pids", lambda: ())()
            if pid is not None
        ]
        if not pids:
            break
        victim = rng.choice(pids)
        try:
            os.kill(victim, signal.SIGKILL)
            kills += 1
        except (OSError, ProcessLookupError):
            continue
        time.sleep(0.3)  # let failover land before the next kill
    return kills


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Run one chaos schedule and check the history it recorded."""
    database = Database()
    database.create_many(
        ((i, 100.0) for i in range(config.objects)),
        bounds=ObjectBounds(
            import_limit=config.oil, export_limit=config.oel
        ),
    )
    rng = random.Random(config.seed)

    if config.server == "async":
        from repro.net.aioserver import serve_in_thread

        host = serve_in_thread(
            database,
            protocol=config.protocol,
            wait_timeout=config.wait_timeout,
            shards=config.shards,
            processes=config.processes,
            record_history=True,
        )
        manager = host.manager
        port = host.port
        stop = host.shutdown
        history_of = host.server.history
    elif config.server == "threaded":
        from repro.net.server import serve_forever

        server = serve_forever(
            database,
            protocol=config.protocol,
            wait_timeout=config.wait_timeout,
            shards=config.shards,
            processes=config.processes,
            record_history=True,
        )
        manager = server.manager
        port = server.port

        def stop() -> None:
            server.shutdown()
            server.server_close()

        history_of = server.history
    else:
        raise ValueError(
            f"unknown server {config.server!r}; choose 'async' or 'threaded'"
        )

    report = ChaosReport(
        check=CheckResult(name="chaos"), history=HistoryLog(header={})
    )
    lock = threading.Lock()
    try:
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(config, port, site, report, lock),
                daemon=True,
            )
            for site in range(1, config.clients + 1)
        ]
        for thread in threads:
            thread.start()
        if config.kill_workers:
            time.sleep(0.2)  # let clients open transactions first
            report.kills = _kill_workers(manager, config.kill_workers, rng)
        deadline = time.time() + 120.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.time()))
            if thread.is_alive():
                report.errors.append("client thread did not finish in time")
        # Give the servers a beat to notice closed sockets and record
        # their abandon aborts before the history is snapshotted.
        time.sleep(0.2)
        report.history = history_of()
    finally:
        stop()

    name = (
        f"chaos-{config.server}-{config.protocol}"
        f"-s{config.shards}{'p' if config.processes else ''}"
        f"-seed{config.seed}"
    )
    report.check = check_log(report.history, name=name)
    return report
