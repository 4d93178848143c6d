"""Data objects: values, timestamps, version history, reader registry.

Each object carries everything the ESR-enhanced timestamp-ordering protocol
needs (paper sections 5 and 6):

* its **present value** — the current in-memory value, which is the
  uncommitted value while an update transaction's write is pending (the
  prototype writes in place, keeping a shadow copy for abort restore);
* ``rts`` — the newest read timestamp, plus whether that read came from a
  query ET (Figure 3's case 3 applies only then);
* ``wts`` — the newest *committed* write timestamp, and the identity and
  timestamp of the pending uncommitted write, if any;
* a bounded **version list** of the last ``N`` committed writes (the paper
  uses N=20), used to find a query's *proper value* by walking backwards to
  the newest write older than the query's timestamp — explicitly *not*
  multi-version concurrency control: reads always return the present
  value; old versions are consulted only to measure inconsistency;
* a **reader registry** of uncommitted query ETs that have read the object,
  each with the proper value it observed, used to compute the export
  divergence of a late write.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple

from repro.core.bounds import ObjectBounds
from repro.engine.timestamps import GENESIS, Timestamp

__all__ = ["Version", "DEFAULT_VERSION_WINDOW", "DataObject"]

#: The paper's empirical window: average query duration divided by average
#: update duration came out to roughly 20 writes.
DEFAULT_VERSION_WINDOW = 20


class Version(NamedTuple):
    """One committed write: the timestamp it carried and the value written."""

    timestamp: Timestamp
    value: float


class DataObject:
    """A single database object and its concurrency-control state."""

    __slots__ = (
        "object_id",
        "bounds",
        "committed_value",
        "committed_write_ts",
        "read_ts",
        "last_reader_was_query",
        "writer_id",
        "writer_ts",
        "uncommitted_value",
        "shadow_value",
        "_versions",
        "query_readers",
    )

    def __init__(
        self,
        object_id: int,
        value: float,
        bounds: ObjectBounds | None = None,
        version_window: int = DEFAULT_VERSION_WINDOW,
    ):
        self.object_id = object_id
        self.bounds = bounds if bounds is not None else ObjectBounds()
        self.committed_value = float(value)
        self.committed_write_ts: Timestamp = GENESIS
        self.read_ts: Timestamp = GENESIS
        self.last_reader_was_query = False
        # Pending uncommitted write, if any.
        self.writer_id: int | None = None
        self.writer_ts: Timestamp = GENESIS
        self.uncommitted_value = 0.0
        self.shadow_value = 0.0
        # Committed write history, oldest first; seeded with the initial
        # load so a proper value always exists until the window overflows.
        self._versions: Deque[Version] = deque(maxlen=max(1, version_window))
        self._versions.append(Version(GENESIS, float(value)))
        # Uncommitted query readers: transaction id -> proper value at read.
        self.query_readers: dict[int, float] = {}

    # -- value views --------------------------------------------------------

    @property
    def present_value(self) -> float:
        """The value a read executed right now would return.

        While an uncommitted write is pending this is the uncommitted
        value — the prototype updates in place (shadow paging), so the
        "current instance of the object" already reflects the pending
        write (paper section 5.1).
        """
        if self.writer_id is not None:
            return self.uncommitted_value
        return self.committed_value

    @property
    def has_uncommitted_write(self) -> bool:
        return self.writer_id is not None

    def proper_value_for(self, timestamp: Timestamp) -> float:
        """The *proper value* for a reader with the given timestamp.

        Walks the committed version list backwards to the newest write
        older than ``timestamp`` (paper section 5.1).  When the reader is
        older than everything retained in the window — the history has
        been trimmed past it — the oldest retained version is returned as
        the best available approximation.  Values are not monotone, so the
        divergence measured against it can be too small or too large: an
        under-estimate undercharges the reader's bound.  The window is
        sized (20) so that in practice a query never outlives it.
        """
        for version in reversed(self._versions):
            if version.timestamp < timestamp:
                return version.value
        return self._versions[0].value

    def versions(self) -> tuple[Version, ...]:
        """The retained committed versions, oldest first."""
        return tuple(self._versions)

    # -- read-side bookkeeping ------------------------------------------------

    def record_read(
        self,
        transaction_id: int,
        timestamp: Timestamp,
        is_query: bool,
        proper_value: float,
    ) -> None:
        """Update read timestamp state and the query-reader registry."""
        if timestamp > self.read_ts:
            self.read_ts = timestamp
            self.last_reader_was_query = is_query
        if is_query:
            self.query_readers[transaction_id] = proper_value

    def forget_reader(self, transaction_id: int) -> None:
        """Drop a query from the reader registry (on commit or abort)."""
        self.query_readers.pop(transaction_id, None)

    # -- write-side bookkeeping -----------------------------------------------

    def stage_write(
        self, transaction_id: int, timestamp: Timestamp, value: float
    ) -> None:
        """Apply a write in place, keeping a shadow copy for abort restore.

        A second write by the *same* transaction overwrites the staged
        value but keeps the original shadow, so an abort still restores
        the pre-transaction state.
        """
        if self.writer_id is None:
            self.shadow_value = self.committed_value
        elif self.writer_id != transaction_id:
            raise AssertionError(
                f"object {self.object_id}: write by {transaction_id} staged "
                f"over uncommitted write by {self.writer_id}"
            )
        self.writer_id = transaction_id
        self.writer_ts = timestamp
        self.uncommitted_value = float(value)

    def commit_write(self) -> None:
        """Promote the staged write to the committed state."""
        if self.writer_id is None:
            return
        self.committed_value = self.uncommitted_value
        self.committed_write_ts = self.writer_ts
        self._versions.append(Version(self.writer_ts, self.committed_value))
        self.writer_id = None
        self.writer_ts = GENESIS

    def adopt_committed(self, value: float, timestamp: Timestamp) -> None:
        """Install a committed write decided in another process.

        The process-sharded engine's parent keeps a mirror of committed
        state: each shard worker reports the (value, write-timestamp)
        pairs a commit produced, and the mirror adopts them so reports,
        tests and worker failover all see coherent committed data.  The
        version history grows exactly as :meth:`commit_write` would grow
        it; pending-write state is untouched (the mirror never stages).
        """
        self.committed_value = float(value)
        self.committed_write_ts = timestamp
        self._versions.append(Version(timestamp, self.committed_value))

    def abort_write(self) -> None:
        """Discard the staged write, restoring the shadow value."""
        if self.writer_id is None:
            return
        self.committed_value = self.shadow_value
        self.writer_id = None
        self.writer_ts = GENESIS

    def __repr__(self) -> str:
        pending = f", writer={self.writer_id}" if self.writer_id is not None else ""
        return (
            f"DataObject(id={self.object_id}, value={self.present_value:g}"
            f"{pending})"
        )
