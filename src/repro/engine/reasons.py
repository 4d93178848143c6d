"""Canonical abort/rejection reason strings and ESR relaxation cases.

Every reason that can appear on a :class:`~repro.engine.results.Rejected`
outcome, in ``MetricsCollector.aborts_by_reason``, on a history event, or
in a wire-level ``{"error": "aborted", "reason": ...}`` response is
defined here once.  The engines, the servers, the runtime, the metrics
and the offline conformance checker (:mod:`repro.check`) all share these
constants, so a reason string can never drift between the layer that
produces it and the layer that interprets it.

Grouping:

* **Concurrency-control rejections** — the engine rejected an operation
  and auto-aborted the transaction (the paper's protocol: clients
  resubmit under a fresh timestamp).
* **Host/runtime aborts** — the hosting runtime gave up on a transaction
  (client went away, a wait timed out, a retry budget ran out).
* **Infrastructure aborts** — the engine substrate failed underneath the
  transaction (a shard worker process died).
"""

from __future__ import annotations

__all__ = [
    "CASE_LATE_READ",
    "CASE_READ_UNCOMMITTED",
    "CASE_LATE_WRITE",
    "ESR_CASES",
    "REASON_LATE_READ",
    "REASON_LATE_WRITE",
    "REASON_BOUND_VIOLATION",
    "REASON_WRITE_CONFLICT",
    "REASON_DEADLOCK",
    "REASON_CLIENT_ABORT",
    "REASON_CLIENT_DISCONNECTED",
    "REASON_WAIT_TIMEOUT",
    "REASON_AGGREGATE_BOUND",
    "REASON_RETRY_EXHAUSTED",
    "REASON_SHARD_FAILOVER",
    "REASON_UNKNOWN",
    "ALL_REASONS",
    "REJECTION_REASONS",
]

# -- ESR relaxation cases (paper Figure 3) ----------------------------------

#: Case 1 — a query read arrives after a newer committed write.
CASE_LATE_READ = "late-read-committed"
#: Case 2 — a query read views uncommitted data.
CASE_READ_UNCOMMITTED = "read-uncommitted"
#: Case 3 — an update write arrives after a newer query read.
CASE_LATE_WRITE = "late-write"

#: Every relaxation case, in paper order.
ESR_CASES = (CASE_LATE_READ, CASE_READ_UNCOMMITTED, CASE_LATE_WRITE)

# -- concurrency-control rejections -----------------------------------------

#: A read arrived too late under strict timestamp ordering.
REASON_LATE_READ = "late-read"
#: A write arrived too late under strict timestamp ordering.
REASON_LATE_WRITE = "late-write"
#: Admitting the operation would exceed an inconsistency bound level.
REASON_BOUND_VIOLATION = "bound-violation"
#: Two updates staged writes on the same object (never relaxed).
REASON_WRITE_CONFLICT = "write-write-conflict"
#: The 2PL deadlock detector broke a cycle by aborting this transaction.
REASON_DEADLOCK = "deadlock"

# -- host/runtime aborts ----------------------------------------------------

#: The client explicitly aborted (the default ``Engine.abort`` reason).
REASON_CLIENT_ABORT = "client-abort"
#: A connection dropped with the transaction still active.
REASON_CLIENT_DISCONNECTED = "client-disconnected"
#: A strict-ordering wait exceeded the server's ``wait_timeout``.
REASON_WAIT_TIMEOUT = "wait-timeout"
#: A client-side aggregate guard found its bound exceeded.
REASON_AGGREGATE_BOUND = "aggregate-bound-violation"
#: ``run_program`` exhausted its restart budget.
REASON_RETRY_EXHAUSTED = "retry-exhausted"

# -- infrastructure aborts --------------------------------------------------

#: A shard worker process died; transactions that touched it abort.
REASON_SHARD_FAILOVER = "shard-failover"

#: Fallback when an abort arrives with no reason at all.
REASON_UNKNOWN = "unknown"

#: Reasons produced by the concurrency control itself — a transaction
#: aborted for one of these was *rejected* by the protocol, not by its
#: host; the checker uses this to pair rejection events with aborts.
REJECTION_REASONS = frozenset(
    {
        REASON_LATE_READ,
        REASON_LATE_WRITE,
        REASON_BOUND_VIOLATION,
        REASON_WRITE_CONFLICT,
        REASON_DEADLOCK,
    }
)

#: Every known reason (checker warns on histories carrying others).
ALL_REASONS = frozenset(
    {
        REASON_LATE_READ,
        REASON_LATE_WRITE,
        REASON_BOUND_VIOLATION,
        REASON_WRITE_CONFLICT,
        REASON_DEADLOCK,
        REASON_CLIENT_ABORT,
        REASON_CLIENT_DISCONNECTED,
        REASON_WAIT_TIMEOUT,
        REASON_AGGREGATE_BOUND,
        REASON_RETRY_EXHAUSTED,
        REASON_SHARD_FAILOVER,
        REASON_UNKNOWN,
    }
)
