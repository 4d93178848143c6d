"""One ``Engine`` interface over every concurrency-control manager.

The paper's point is comparing concurrency-control regimes on the same
workload; the engines themselves (enhanced-TSO ESR, strict TSO, the Wu
et al. lock-based divergence control, plain strict 2PL, and MVTO) all
speak the same begin / read / write / commit / abort vocabulary with
:class:`~repro.engine.results.Granted` / ``MustWait`` / ``Rejected``
outcomes.  This module makes that shared vocabulary explicit:

* :class:`Engine` — the structural protocol every manager satisfies
  (``TransactionManager``, ``TwoPhaseManager``, ``MVTOManager``, and the
  sharded composite :class:`~repro.engine.sharded.ShardedEngine`);
* :data:`PROTOCOL_REGISTRY` — one table mapping protocol names to their
  :class:`ProtocolSpec` (which manager family, report label, whether the
  protocol carries epsilon bounds, which options it supports).  The CLI,
  the simulator, the servers, and the report generator all derive their
  protocol lists and validation from this table instead of hand-kept
  tuples;
* :func:`validate_protocol_options` — the single place option/protocol
  combinations are checked, so every entry point (sim config, threaded
  server, asyncio server, CLI) agrees on what is invalid;
* :func:`create_engine` — the factory that builds the right manager (or
  a :class:`~repro.engine.sharded.ShardedEngine` over ``shards`` inner
  managers) from a protocol name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.manager import TransactionManager
from repro.engine.metrics import MetricsCollector
from repro.engine.mvto import MVTOManager
from repro.engine.results import Granted, Outcome
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import TransactionKind, TransactionState
from repro.engine.twopl import TwoPhaseManager
from repro.errors import SpecificationError

__all__ = [
    "Engine",
    "ProtocolSpec",
    "PROTOCOL_REGISTRY",
    "PROTOCOLS",
    "COMPARISON_ORDER",
    "protocol_spec",
    "validate_protocol_options",
    "create_engine",
]


class Engine(Protocol):
    """What every concurrency-control manager looks like.

    Structural (duck-typed): the managers do not inherit from this class;
    they simply provide the surface.  Hosts — the DES server, the
    threaded and asyncio TCP servers, :class:`~repro.runtime.LocalClient`
    — program against this interface only.
    """

    database: Database
    protocol: str
    metrics: MetricsCollector
    waits: WaitRegistry
    #: The snapshot read cache, or None when the engine has none.
    snapshot: object | None

    def begin(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None = None,
        timestamp: Timestamp | None = None,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
    ) -> TransactionState: ...

    def read(self, txn: TransactionState, object_id: int) -> Outcome: ...

    def read_cached(
        self, txn: TransactionState, object_id: int
    ) -> Granted | None: ...

    def write(
        self, txn: TransactionState, object_id: int, value: float
    ) -> Outcome: ...

    def commit(self, txn: TransactionState) -> None: ...

    def abort(
        self, txn: TransactionState, reason: str = "client-abort"
    ) -> None: ...

    def active_transactions(self) -> tuple[TransactionState, ...]: ...


@dataclass(frozen=True)
class ProtocolSpec:
    """Registry entry for one wire/sim protocol name."""

    name: str
    #: Human label used by reports; the engine-comparison table appends
    #: ", high bounds" for relaxed protocols.
    label: str
    #: Which manager implements it: ``"tso"``, ``"2pl"``, or ``"mvto"``.
    family: str
    #: Whether the protocol meters epsilon bounds at all.  Strict
    #: protocols (``sr``, ``2pl-sr``, ``mvto``) accept bounds and ignore
    #: them / treat them as zero.
    relaxed: bool
    #: The snapshot read cache meters staleness through the ESR
    #: inconsistency ledger, which only the esr protocol carries.
    supports_snapshot_cache: bool
    description: str


PROTOCOL_REGISTRY: dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            name="esr",
            label="TSO ESR",
            family="tso",
            relaxed=True,
            supports_snapshot_cache=True,
            description=(
                "enhanced timestamp ordering with hierarchical "
                "inconsistency bounds (the paper's protocol)"
            ),
        ),
        ProtocolSpec(
            name="sr",
            label="TSO strict (SR)",
            family="tso",
            relaxed=False,
            supports_snapshot_cache=False,
            description="plain strict timestamp ordering (the SR baseline)",
        ),
        ProtocolSpec(
            name="2pl",
            label="2PL divergence control",
            family="2pl",
            relaxed=True,
            supports_snapshot_cache=False,
            description="Wu et al. lock-based divergence control",
        ),
        ProtocolSpec(
            name="2pl-sr",
            label="2PL strict (SR)",
            family="2pl",
            relaxed=False,
            supports_snapshot_cache=False,
            description="plain strict two-phase locking",
        ),
        ProtocolSpec(
            name="mvto",
            label="MVTO",
            family="mvto",
            relaxed=False,
            supports_snapshot_cache=False,
            description=(
                "multi-version timestamp ordering (exact-but-stale reads)"
            ),
        ),
    )
}

#: Every protocol name, in CLI/choices order.
PROTOCOLS = tuple(PROTOCOL_REGISTRY)

#: The order the engine-comparison report presents protocols in:
#: strict-vs-relaxed per family, then the MVTO baseline.
COMPARISON_ORDER = ("sr", "esr", "2pl-sr", "2pl", "mvto")


def protocol_spec(protocol: str) -> ProtocolSpec:
    """Look up a protocol, raising :class:`SpecificationError` if unknown."""
    try:
        return PROTOCOL_REGISTRY[protocol]
    except KeyError:
        raise SpecificationError(
            f"unknown protocol {protocol!r}; choose from {PROTOCOLS}"
        ) from None


def validate_protocol_options(
    protocol: str,
    *,
    snapshot_cache: bool = False,
    shards: int = 1,
    processes: bool = False,
) -> ProtocolSpec:
    """Check one protocol/options combination; all entry points call this.

    Returns the :class:`ProtocolSpec` on success so callers can reuse the
    lookup.  Raises :class:`SpecificationError` on any invalid combination
    — the sim config wraps it into its usual ``ExperimentError``.
    """
    spec = protocol_spec(protocol)
    if snapshot_cache and not spec.supports_snapshot_cache:
        supporting = ", ".join(
            repr(s.name)
            for s in PROTOCOL_REGISTRY.values()
            if s.supports_snapshot_cache
        )
        raise SpecificationError(
            f"snapshot_cache=True is not supported by protocol "
            f"{protocol!r}: the cache meters staleness through the ESR "
            f"inconsistency ledger, so the only valid combination is "
            f"snapshot_cache=True with protocol {supporting}; other "
            f"protocols must use snapshot_cache=False"
        )
    if shards < 1:
        raise SpecificationError(
            f"shards must be >= 1, got {shards}: use shards=1 for a bare "
            "unsharded engine, or shards=N (N > 1) for an N-way "
            "thread- or process-sharded composite"
        )
    if processes and snapshot_cache:
        raise SpecificationError(
            "snapshot_cache=True cannot be combined with processes=True: "
            "the cache publishes from inside the engine critical section, "
            "which lives in the shard worker processes.  Valid "
            "combinations are snapshot_cache=True with thread sharding "
            "(processes=False) or process sharding without the cache"
        )
    return spec


def create_engine(
    database: Database,
    protocol: str = "esr",
    *,
    snapshot_cache: bool = False,
    metrics: MetricsCollector | None = None,
    timestamps: TimestampGenerator | None = None,
    shards: int = 1,
    processes: bool | str = False,
    record_history: bool = False,
) -> Engine:
    """Build the engine for ``protocol`` — the one factory every host uses.

    With ``shards > 1`` the database is partitioned by object key across
    that many inner engines behind a
    :class:`~repro.engine.sharded.ShardedEngine`; with ``shards == 1``
    the bare manager is returned unchanged (no wrapper, no locks).

    With ``processes`` truthy (and ``shards > 1``) each shard's engine
    runs in its own worker **process** (the composite's other shard
    backend, :class:`~repro.engine.procshard.WorkerShard`), escaping the
    GIL on multi-core hosts.  ``processes=True`` degrades gracefully to
    thread shards when real processes cannot help (single core) or
    cannot fork — the returned engine then carries the reason in its
    ``process_degraded`` attribute.  ``processes="force"`` skips the
    single-core degradation (tests, CI smoke on small containers).
    """
    spec = validate_protocol_options(
        protocol,
        snapshot_cache=snapshot_cache,
        shards=shards,
        processes=bool(processes),
    )
    if shards > 1:
        from repro.engine.sharded import ShardedEngine

        degraded = None
        if processes:
            from repro.engine.procshard import process_sharding_unavailable

            degraded = process_sharding_unavailable()
            if processes == "force" and degraded == "single-core":
                degraded = None
        engine = ShardedEngine(
            database,
            protocol,
            shards=shards,
            processes=bool(processes) and degraded is None,
            snapshot_cache=snapshot_cache,
            metrics=metrics,
            timestamps=timestamps,
            record_history=record_history,
        )
        engine.process_degraded = degraded
        return engine
    return build_unsharded(
        database,
        spec,
        snapshot_cache=snapshot_cache,
        metrics=metrics,
        timestamps=timestamps,
        record_history=record_history,
    )


def build_unsharded(
    database: Database,
    spec: ProtocolSpec,
    *,
    snapshot_cache: bool = False,
    metrics: MetricsCollector | None = None,
    timestamps: TimestampGenerator | None = None,
    recorder: HistoryRecorder | None = None,
    record_history: bool = False,
) -> Engine:
    """Build one bare (unsharded) manager for a resolved spec.

    Shared by :func:`create_engine` and the sharded composite, which uses
    it to build each shard's inner engine (passing a per-shard
    ``recorder`` view so inner-engine events carry their shard id).
    """
    if spec.family == "2pl":
        return TwoPhaseManager(
            database,
            relaxed=spec.relaxed,
            metrics=metrics,
            timestamps=timestamps,
            recorder=recorder,
            record_history=record_history,
        )
    if spec.family == "mvto":
        return MVTOManager(
            database,
            metrics=metrics,
            timestamps=timestamps,
            recorder=recorder,
            record_history=record_history,
        )
    return TransactionManager(
        database,
        protocol=spec.name,
        metrics=metrics,
        timestamps=timestamps,
        snapshot_cache=snapshot_cache,
        recorder=recorder,
        record_history=record_history,
    )
