"""Operation outcomes returned by the concurrency control.

Every Read or Write submitted to the engine resolves to exactly one of:

:class:`Granted`
    The operation executed.  For reads, ``value`` carries the value read;
    ``inconsistency`` is the divergence charged to the transaction's
    account (0 for consistent operations) and ``esr_case`` names which of
    the paper's three relaxation cases applied, if any.

:class:`MustWait`
    Strict ordering requires the operation to wait for another transaction
    to finish (commit or abort).  The runtime — simulated or threaded —
    blocks the client and retries the operation once
    ``blocking_transaction`` completes.  Waits only ever point at *older*
    transactions, so no deadlock can arise.

:class:`Rejected`
    The operation cannot execute (late under timestamp ordering, or an
    inconsistency bound would be violated).  The transaction must abort;
    clients resubmit with a fresh timestamp.

These are plain dataclasses rather than exceptions because the common
cases (wait, reject-and-restart) are normal control flow in a
timestamp-ordered system, not errors.  They are slotted, not frozen (a
frozen one pays an ``object.__setattr__`` per field, and a commit builds
a dozen); nothing mutates an outcome once the engine returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# Canonical case/reason strings live in repro.engine.reasons (shared by
# engines, metrics, history events and the checker); re-exported here
# because outcome-handling code has always imported them from results.
from repro.engine.reasons import (
    CASE_LATE_READ,
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    REASON_BOUND_VIOLATION,
    REASON_LATE_READ,
    REASON_LATE_WRITE,
    REASON_WRITE_CONFLICT,
)

__all__ = [
    "Granted",
    "MustWait",
    "Rejected",
    "Outcome",
    "CASE_LATE_READ",
    "CASE_READ_UNCOMMITTED",
    "CASE_LATE_WRITE",
    "REASON_LATE_READ",
    "REASON_LATE_WRITE",
    "REASON_BOUND_VIOLATION",
    "REASON_WRITE_CONFLICT",
]


@dataclass(slots=True)
class Granted:
    """The operation executed successfully."""

    value: float | None = None
    inconsistency: float = 0.0
    esr_case: str | None = None

    @property
    def was_inconsistent(self) -> bool:
        """True when this operation succeeded only thanks to ESR."""
        return self.esr_case is not None


@dataclass(slots=True)
class MustWait:
    """Strict ordering: wait for ``blocking_transaction`` to finish."""

    blocking_transaction: int


@dataclass(slots=True)
class Rejected:
    """The operation cannot execute; the transaction must abort."""

    reason: str
    detail: str = ""
    violated_level: str | None = None


Outcome = Union[Granted, MustWait, Rejected]
