"""Process-wide performance observability: counters and profiling.

The simulation's cost per simulated operation is pure-Python constant
factors — event dispatch in the DES kernel, the bottom-up admission walk
through the hierarchy ledger, conflict-case bookkeeping in the engine.
This module makes those costs *visible* without making them *worse*:

* :data:`counters` — a single process-wide :class:`PerfCounters` the hot
  paths increment.  The counters are plain slotted integer attributes
  (one ``+=`` each, no locks, no callbacks); the DES kernel batches its
  updates per ``run()`` call so the dispatch loop itself pays nothing.
* :func:`profile_call` — wrap any callable in :mod:`cProfile` and print
  the top-N cumulative entries; backs the CLI's ``--profile`` flag.

The counters are cumulative for the life of the process (a worker in the
parallel runner, the CLI process, a test).  Call :meth:`PerfCounters.
reset` to start a measurement window, then :meth:`PerfCounters.snapshot`
to read it.  Everything here is stdlib-only and import-cycle-free: the
kernel (:mod:`repro.sim.des`), the ledger (:mod:`repro.core.hierarchy`)
and the engine metrics all import this module, never the other way
around.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, TypeVar

__all__ = ["PerfCounters", "counters", "profile_call", "format_profile"]

T = TypeVar("T")


class PerfCounters:
    """Lightweight tallies of hot-path work done by this process.

    ============================ ==============================================
    ``events_dispatched``        callbacks the DES kernel executed
    ``heap_pushes``              events that went through the ``heapq`` slow
                                 path (positive delays)
    ``heap_pushes_avoided``      zero-delay events dispatched through the FIFO
                                 ready-queue fast path instead of the heap
    ``ledger_walks``             bottom-up admission walks
                                 (:meth:`HierarchyLedger.try_charge` calls)
    ``ledger_rejections``        walks that ended in a bound violation
    ``conflict_cases``           inconsistent operations admitted, tallied by
                                 ESR relaxation case (``late-write``, …)
    ``net_requests_batched``     requests the asyncio server executed from a
                                 multi-request batch (amortised dispatch)
    ``net_batches_drained``      dispatch-loop ticks that drained the queue
    ``net_flushes_coalesced``    connection flushes that wrote more than one
                                 buffered response in a single syscall
    ``net_backpressure_stalls``  reads paused because a connection hit its
                                 in-flight window
    ``cache_hits``               query reads served from the snapshot cache
                                 (no engine critical section)
    ``cache_misses``             cache consultations that found no published
                                 entry for the object
    ``cache_fallbacks``          cache consultations that found an entry but
                                 downgraded to the engine path (bounds did
                                 not fit, read-your-writes, ineligible txn)
    ``cache_divergence_charged`` total staleness (a float) cache-served
                                 reads charged to their ledgers
    ``shard_failovers``          worker shards swapped for in-process ones
                                 after their worker's state was lost
    ``rpc_ops``                  operations shipped over shard channels
                                 (reads/writes/completes)
    ``rpc_round_trips``          framed round-trips on shard channels; the
                                 channel coalesces concurrent ops, so
                                 ``rpc_batched_ops / rpc_round_trips`` is
                                 the mean batch occupancy
    ``rpc_batched_ops``          operations that rode a batch frame (every
                                 op does)
    ``rpc_bytes_sent``           parent→worker shard-channel bytes
    ``rpc_bytes_received``       worker→parent shard-channel bytes
    ``rpc_sync_full``            op frames that carried a full account dump
                                 (first shard touch, or resync fallback)
    ``rpc_sync_delta``           op frames that carried only the account
                                 entries changed since the worker's last
                                 acknowledged version
    ``rpc_sync_none``            op frames that carried no account state at
                                 all (worker already at the current version)
    ``rpc_resyncs``              version-skew round-trips: the worker held a
                                 different version than the parent assumed
                                 and the op was re-sent with a full dump
    ``net_codec_binary_frames_encoded``
                                 frames the binary codec encoded (fixed
                                 layouts and JSON-payload frames alike)
    ``net_codec_binary_frames_decoded``
                                 frames the binary codec decoded
    ``net_codec_negotiation_downgrades``
                                 ``hello`` negotiations that asked for a
                                 non-JSON codec but settled on JSON
    ``net_codec_json_fallbacks`` binary-codec messages that did not fit a
                                 fixed layout and rode a JSON-payload frame
    ============================ ==============================================
    """

    __slots__ = (
        "events_dispatched",
        "heap_pushes",
        "heap_pushes_avoided",
        "ledger_walks",
        "ledger_rejections",
        "conflict_cases",
        "net_requests_batched",
        "net_batches_drained",
        "net_flushes_coalesced",
        "net_backpressure_stalls",
        "cache_hits",
        "cache_misses",
        "cache_fallbacks",
        "cache_divergence_charged",
        "shard_failovers",
        "rpc_ops",
        "rpc_round_trips",
        "rpc_batched_ops",
        "rpc_bytes_sent",
        "rpc_bytes_received",
        "rpc_sync_full",
        "rpc_sync_delta",
        "rpc_sync_none",
        "rpc_resyncs",
        "net_codec_binary_frames_encoded",
        "net_codec_binary_frames_decoded",
        "net_codec_negotiation_downgrades",
        "net_codec_json_fallbacks",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (start of a measurement window)."""
        self.events_dispatched = 0
        self.heap_pushes = 0
        self.heap_pushes_avoided = 0
        self.ledger_walks = 0
        self.ledger_rejections = 0
        self.conflict_cases: dict[str, int] = {}
        self.net_requests_batched = 0
        self.net_batches_drained = 0
        self.net_flushes_coalesced = 0
        self.net_backpressure_stalls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_fallbacks = 0
        self.cache_divergence_charged = 0.0
        self.shard_failovers = 0
        self.rpc_ops = 0
        self.rpc_round_trips = 0
        self.rpc_batched_ops = 0
        self.rpc_bytes_sent = 0
        self.rpc_bytes_received = 0
        self.rpc_sync_full = 0
        self.rpc_sync_delta = 0
        self.rpc_sync_none = 0
        self.rpc_resyncs = 0
        self.net_codec_binary_frames_encoded = 0
        self.net_codec_binary_frames_decoded = 0
        self.net_codec_negotiation_downgrades = 0
        self.net_codec_json_fallbacks = 0

    def record_conflict_case(self, case: str) -> None:
        tally = self.conflict_cases
        tally[case] = tally.get(case, 0) + 1

    def snapshot(self) -> dict[str, object]:
        """A plain-dict copy of every counter."""
        return {
            "events_dispatched": self.events_dispatched,
            "heap_pushes": self.heap_pushes,
            "heap_pushes_avoided": self.heap_pushes_avoided,
            "ledger_walks": self.ledger_walks,
            "ledger_rejections": self.ledger_rejections,
            "conflict_cases": dict(self.conflict_cases),
            "net_requests_batched": self.net_requests_batched,
            "net_batches_drained": self.net_batches_drained,
            "net_flushes_coalesced": self.net_flushes_coalesced,
            "net_backpressure_stalls": self.net_backpressure_stalls,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_fallbacks": self.cache_fallbacks,
            "cache_divergence_charged": self.cache_divergence_charged,
            "shard_failovers": self.shard_failovers,
            "rpc_ops": self.rpc_ops,
            "rpc_round_trips": self.rpc_round_trips,
            "rpc_batched_ops": self.rpc_batched_ops,
            "rpc_bytes_sent": self.rpc_bytes_sent,
            "rpc_bytes_received": self.rpc_bytes_received,
            "rpc_sync_full": self.rpc_sync_full,
            "rpc_sync_delta": self.rpc_sync_delta,
            "rpc_sync_none": self.rpc_sync_none,
            "rpc_resyncs": self.rpc_resyncs,
            "net_codec_binary_frames_encoded": self.net_codec_binary_frames_encoded,
            "net_codec_binary_frames_decoded": self.net_codec_binary_frames_decoded,
            "net_codec_negotiation_downgrades": (
                self.net_codec_negotiation_downgrades
            ),
            "net_codec_json_fallbacks": self.net_codec_json_fallbacks,
        }

    def format_table(self) -> str:
        """A two-column text table of the current counter values."""
        rows = [
            ("events dispatched", f"{self.events_dispatched:,}"),
            ("heap pushes", f"{self.heap_pushes:,}"),
            ("heap pushes avoided (fast path)", f"{self.heap_pushes_avoided:,}"),
            ("ledger walks", f"{self.ledger_walks:,}"),
            ("ledger rejections", f"{self.ledger_rejections:,}"),
        ]
        if self.net_requests_batched or self.net_batches_drained:
            rows += [
                ("net requests batched", f"{self.net_requests_batched:,}"),
                ("net batches drained", f"{self.net_batches_drained:,}"),
                ("net flushes coalesced", f"{self.net_flushes_coalesced:,}"),
                (
                    "net backpressure stalls",
                    f"{self.net_backpressure_stalls:,}",
                ),
            ]
        if (
            self.net_codec_binary_frames_encoded
            or self.net_codec_binary_frames_decoded
            or self.net_codec_negotiation_downgrades
        ):
            rows += [
                (
                    "binary frames encoded",
                    f"{self.net_codec_binary_frames_encoded:,}",
                ),
                (
                    "binary frames decoded",
                    f"{self.net_codec_binary_frames_decoded:,}",
                ),
                (
                    "codec negotiation downgrades",
                    f"{self.net_codec_negotiation_downgrades:,}",
                ),
                (
                    "binary JSON fallbacks",
                    f"{self.net_codec_json_fallbacks:,}",
                ),
            ]
        if self.rpc_ops or self.rpc_round_trips:
            occupancy = (
                self.rpc_batched_ops / self.rpc_round_trips
                if self.rpc_round_trips
                else 0.0
            )
            rows += [
                ("shard rpc ops", f"{self.rpc_ops:,}"),
                ("shard rpc round trips", f"{self.rpc_round_trips:,}"),
                ("shard rpc batch occupancy", f"{occupancy:.2f}"),
                ("shard rpc bytes sent", f"{self.rpc_bytes_sent:,}"),
                ("shard rpc bytes received", f"{self.rpc_bytes_received:,}"),
                (
                    "shard rpc sync full/delta/none",
                    f"{self.rpc_sync_full:,}/{self.rpc_sync_delta:,}"
                    f"/{self.rpc_sync_none:,}",
                ),
                ("shard rpc resyncs", f"{self.rpc_resyncs:,}"),
            ]
        if self.cache_hits or self.cache_misses or self.cache_fallbacks:
            rows += [
                ("cache hits (snapshot reads)", f"{self.cache_hits:,}"),
                ("cache misses (unpublished)", f"{self.cache_misses:,}"),
                ("cache fallbacks (engine path)", f"{self.cache_fallbacks:,}"),
                (
                    "cache divergence charged",
                    f"{self.cache_divergence_charged:g}",
                ),
            ]
        for case in sorted(self.conflict_cases):
            rows.append((f"conflict case {case}", f"{self.conflict_cases[case]:,}"))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)

    def __repr__(self) -> str:
        return (
            f"PerfCounters(dispatched={self.events_dispatched}, "
            f"fastpath={self.heap_pushes_avoided}, walks={self.ledger_walks})"
        )


#: The single process-wide counter set the hot paths increment.
counters = PerfCounters()


def format_profile(profiler: cProfile.Profile, top_n: int = 25) -> str:
    """The top ``top_n`` cumulative-time entries of a finished profile."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top_n)
    return buffer.getvalue()


def profile_call(fn: Callable[[], T], top_n: int = 25) -> tuple[T, str]:
    """Run ``fn`` under :mod:`cProfile`.

    Returns ``(result, report)`` where ``report`` is the top-``top_n``
    cumulative entries as text.  Exceptions from ``fn`` propagate.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, format_profile(profiler, top_n)
