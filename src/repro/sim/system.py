"""Whole-system simulation: build, run, measure.

:func:`run_simulation` assembles the full prototype — database, transaction
manager, simulated server, MPL clients — runs it for a simulated duration
(with a warm-up that is excluded from measurement), and returns a
:class:`RunResult` with the paper's metrics: throughput, aborts,
successful inconsistent operations, total operations, and operations per
committed transaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.bounds import ObjectBounds
from repro.engine.api import create_engine, validate_protocol_options
from repro.engine.database import Database
from repro.engine.history import HistoryLog
from repro.engine.metrics import MetricsSnapshot
from repro.engine.objects import DEFAULT_VERSION_WINDOW
from repro.errors import ExperimentError, SpecificationError
from repro.sim.des import Engine
from repro.sim.client import SimClient
from repro.sim.latency import LatencyModel, PAPER_LATENCY
from repro.sim.server import (
    DEFAULT_SERVER_THREADS,
    DEFAULT_SERVICE_TIME_MS,
    SimServer,
)
from repro.workload.generator import (
    WorkloadGenerator,
    build_database,
    partition_for_site,
)
from repro.workload.spec import PAPER_WORKLOAD, WorkloadSpec

__all__ = ["SimulationConfig", "RunResult", "run_simulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that defines one simulation run.

    The config is pure data — strings, numbers and frozen dataclasses,
    never callables or closures — so it pickles cleanly into the worker
    processes of the parallel experiment runner.  The protocol is named
    by a string and resolved inside :func:`build_simulation`, i.e. in
    whichever process actually runs the cell.
    """

    #: Multiprogramming level — the number of concurrent clients.
    mpl: int = 4
    #: Transaction-level inconsistency bounds (TIL for queries, TEL for
    #: updates).  Zero bounds are the paper's zero-epsilon / SR setting.
    til: float = 0.0
    tel: float = 0.0
    #: Object-level bounds applied uniformly to every object.
    oil: float = math.inf
    oel: float = math.inf
    #: Concurrency control: the paper's timestamp-ordering engines
    #: (``"esr"``, or the plain-SR baseline ``"sr"``), the Wu et al.
    #: lock-based engines (``"2pl"`` divergence control, ``"2pl-sr"``
    #: plain strict 2PL), or multi-version timestamp ordering
    #: (``"mvto"``, the serializable baseline section 5.1 contrasts).
    protocol: str = "esr"
    #: Partition the database by object key across this many per-shard
    #: engines (see :class:`repro.engine.sharded.ShardedEngine`).  The
    #: simulator is single-threaded, so this exercises the sharded code
    #: paths deterministically rather than adding parallelism.
    shards: int = 1
    #: Run each shard's engine in a worker process (``shards > 1`` only).
    #: The DES drives the engine synchronously, so in simulation this
    #: exercises the cross-process commit protocol deterministically —
    #: the parallel payoff belongs to the networked servers.
    processes: bool | str = False
    workload: WorkloadSpec = PAPER_WORKLOAD
    latency: LatencyModel = PAPER_LATENCY
    service_time_ms: float = DEFAULT_SERVICE_TIME_MS
    server_threads: int = DEFAULT_SERVER_THREADS
    version_window: int = DEFAULT_VERSION_WINDOW
    #: Simulated duration and warm-up, in milliseconds.
    duration_ms: float = 60_000.0
    warmup_ms: float = 5_000.0
    #: Run until each client commits this many transactions instead of for
    #: a fixed duration (used by tests and examples; disables warm-up).
    transactions_per_client: int | None = None
    #: Group limits every query declares (LIMIT lines), as a tuple of
    #: (group, limit) pairs over the hot-set hierarchy ("hot", "partN").
    #: Setting this builds the database with the three-level catalog and
    #: exercises the paper's hierarchical control path on every query.
    query_group_limits: tuple[tuple[str, float], ...] | None = None
    #: Record a full event history (:mod:`repro.engine.history`) during
    #: the measured phase; the result then carries a ``history`` the
    #: offline checker (:mod:`repro.check`) can replay.  Event wall
    #: clocks are the simulated clock.
    record_history: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mpl < 1:
            raise ExperimentError(f"mpl must be >= 1, got {self.mpl}")
        if self.duration_ms <= 0:
            raise ExperimentError("duration_ms must be positive")
        if not 0 <= self.warmup_ms < self.duration_ms:
            raise ExperimentError("warmup_ms must be in [0, duration_ms)")
        try:
            # The one shared validation every entry point uses (registry
            # in repro.engine.api), wrapped into the experiment error.
            validate_protocol_options(
                self.protocol,
                shards=self.shards,
                processes=bool(self.processes),
            )
        except SpecificationError as exc:
            raise ExperimentError(str(exc)) from None

    def with_level(self, til: float, tel: float) -> "SimulationConfig":
        return replace(self, til=til, tel=tel)


@dataclass(frozen=True)
class RunResult:
    """Measurements from one simulation run (post-warm-up only)."""

    config: SimulationConfig
    measured_ms: float
    commits: int
    aborts: int
    metrics: MetricsSnapshot
    client_commits: tuple[int, ...]
    server_utilisation: float
    #: The recorded history (post-warm-up) when the config asked for one.
    history: "HistoryLog | None" = None

    @property
    def throughput(self) -> float:
        """Committed transactions per (simulated) second."""
        if self.measured_ms <= 0:
            return 0.0
        return self.commits * 1000.0 / self.measured_ms

    @property
    def inconsistent_operations(self) -> int:
        return self.metrics.inconsistent_operations

    @property
    def total_operations(self) -> int:
        return self.metrics.total_operations

    @property
    def operations_per_commit(self) -> float:
        return self.metrics.operations_per_commit

    def __repr__(self) -> str:
        return (
            f"RunResult(mpl={self.config.mpl}, til={self.config.til:g}, "
            f"throughput={self.throughput:.2f} tps, commits={self.commits}, "
            f"aborts={self.aborts})"
        )


def build_simulation(
    config: SimulationConfig,
) -> tuple[Engine, SimServer, list[SimClient], Database]:
    """Assemble (but do not run) a full simulated system."""
    object_bounds = ObjectBounds(
        import_limit=config.oil, export_limit=config.oel
    )
    group_limits = (
        dict(config.query_group_limits)
        if config.query_group_limits is not None
        else None
    )
    database = build_database(
        config.workload,
        seed=config.seed,
        object_bounds=object_bounds,
        version_window=config.version_window,
        with_groups=group_limits is not None,
    )
    engine = Engine()
    manager = create_engine(
        database,
        config.protocol,
        shards=config.shards,
        processes=config.processes,
        record_history=config.record_history,
    )
    if config.record_history:
        # History events carry the simulated clock, not the host's.
        manager.recorder.clock = lambda: engine.now
    server = SimServer(
        manager,
        engine,
        service_time=config.service_time_ms,
        threads=config.server_threads,
    )
    clients: list[SimClient] = []
    for site in range(1, config.mpl + 1):
        generator = WorkloadGenerator(
            config.workload,
            seed=config.seed * 1_000_003 + site,
            partition=partition_for_site(config.workload, site),
            query_group_limits=group_limits,
        )
        if config.transactions_per_client is not None:
            programs = generator.generate_mix(
                config.transactions_per_client, config.til, config.tel
            )
        else:
            programs = generator.stream(config.til, config.tel)
        clients.append(
            SimClient(
                site=site,
                server=server,
                programs=programs,
                latency=config.latency,
                seed=config.seed * 7_000_003 + site,
            )
        )
    return engine, server, clients, database


def run_simulation(config: SimulationConfig) -> RunResult:
    """Run one configuration to completion and collect its measurements."""
    engine, server, clients, _ = build_simulation(config)
    processes = [
        engine.spawn(client.process(), name=f"client-{client.site}")
        for client in clients
    ]
    manager = server.manager
    busy_at_start = 0.0
    if config.transactions_per_client is not None:
        engine.run_until_complete(processes)
        measured_ms = engine.now
    else:
        if config.warmup_ms > 0:
            engine.run(until=config.warmup_ms)
            # Reset through the recorder so warm-up events are dropped
            # together with the counters they derived.
            manager.recorder.reset()
            busy_at_start = server.cpu.busy_snapshot()
            for client in clients:
                client.committed = 0
                client.restarts = 0
        engine.run(until=config.duration_ms)
        measured_ms = config.duration_ms - config.warmup_ms
    snapshot = manager.metrics.snapshot()
    return RunResult(
        config=config,
        measured_ms=measured_ms,
        commits=snapshot.commits,
        aborts=snapshot.aborts,
        metrics=snapshot,
        client_commits=tuple(client.committed for client in clients),
        server_utilisation=server.cpu.utilisation(measured_ms, busy_at_start),
        history=(
            HistoryLog.from_engine(manager)
            if config.record_history
            else None
        ),
    )
