"""Exception hierarchy for the epsilon-serializability library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause.  The
hierarchy mirrors the subsystems: specification errors (bad bounds or
hierarchies), protocol errors (operations rejected by the concurrency
control), language errors (the transaction mini-language), and transport
errors (the networked prototype).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SpecificationError(ReproError):
    """An inconsistency-bound specification is malformed.

    Raised, for example, when a limit is negative, when a hierarchy node is
    attached to an unknown parent, or when an object is mapped to a
    non-leaf node.
    """


class TransactionError(ReproError):
    """Base class for errors tied to a particular transaction."""

    def __init__(self, message: str, transaction_id: int | None = None):
        super().__init__(message)
        self.transaction_id = transaction_id


class TransactionAborted(TransactionError):
    """The transaction was aborted by the concurrency control.

    The ``reason`` carries the protocol-level cause (late operation, bound
    violation, explicit abort) so clients can decide whether to resubmit.
    """

    def __init__(
        self,
        message: str,
        transaction_id: int | None = None,
        reason: str | None = None,
    ):
        super().__init__(message, transaction_id)
        self.reason = reason


class BoundViolation(TransactionAborted):
    """An operation would push accumulated inconsistency past a limit.

    ``level`` names the hierarchy level that rejected the charge (``"object"``,
    a group name, or ``"transaction"``) which is useful both for diagnostics
    and for the performance study's per-level accounting.
    """

    def __init__(
        self,
        message: str,
        transaction_id: int | None = None,
        level: str | None = None,
        attempted: float | None = None,
        limit: float | None = None,
    ):
        super().__init__(message, transaction_id, reason="bound-violation")
        self.level = level
        self.attempted = attempted
        self.limit = limit


class InvalidOperation(TransactionError):
    """An operation is not legal for the transaction's kind or state.

    Examples: a write submitted by a query transaction, an operation on a
    committed transaction, or a read of an object that does not exist.
    """


class UnknownObjectError(InvalidOperation):
    """The referenced object id is not present in the database."""


class LanguageError(ReproError):
    """Base class for transaction-language failures."""


class LexError(LanguageError):
    """The source text contains a character sequence that is not a token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """The token stream does not form a valid transaction program."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class EvaluationError(LanguageError):
    """A runtime failure while evaluating a transaction program."""


class ProtocolError(ReproError):
    """A malformed or unexpected message on the network protocol."""


class ShardChannelError(ReproError):
    """The parent↔worker shard channel failed mid-frame.

    Raised by the process-sharded engine's RPC layer on a torn frame
    (truncated header/payload, undecodable reply) or when bounded
    ``EINTR`` retries are exhausted — instead of surfacing a bare
    ``struct``/``pickle`` error from deep inside the framing code.  The
    op path treats it like a dead worker and fails the shard over.

    ``shard`` is the shard whose channel failed; ``pending_ops`` counts
    the operations that were riding (or queued behind) the failed
    round-trip, so logs show how much staged work the failure took out.
    """

    def __init__(
        self,
        message: str,
        shard: int | None = None,
        pending_ops: int = 0,
    ):
        if shard is not None:
            message = f"{message} (shard {shard}, {pending_ops} pending ops)"
        super().__init__(message)
        self.shard = shard
        self.pending_ops = pending_ops


class ServerError(ReproError):
    """The networked server failed to start or crashed while serving."""


class WorkloadError(ReproError):
    """A workload specification or trace file is invalid."""


class ExperimentError(ReproError):
    """An experiment configuration is invalid or a run failed."""
