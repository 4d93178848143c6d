"""Per-transaction inconsistency accounting.

Each epsilon transaction carries one :class:`InconsistencyAccount` for the
direction relevant to its kind — *import* for query ETs (the ``I`` counter
of paper section 5.1), *export* for update ETs (the ``E`` counter of
section 5.2).  The account wraps a :class:`~repro.core.hierarchy.
HierarchyLedger` for the bottom-up bound checks and additionally keeps the
bookkeeping the engine and the performance study need:

* per-object accumulated inconsistency (diagnostics, tests);
* a count of *inconsistent operations admitted* — operations that viewed or
  exported a strictly positive inconsistency, the metric of the paper's
  Figure 8;
* per-object minimum/maximum values viewed, feeding the aggregate-query
  mechanism of section 5.3.2 (:mod:`repro.core.aggregates`).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bounds import UNBOUNDED
from repro.core.hierarchy import ChargeOutcome, GroupCatalog, HierarchyLedger
from repro.errors import SpecificationError

__all__ = ["Direction", "ValueRange", "InconsistencyAccount"]


class Direction:
    """The two accounting directions, used as plain string constants."""

    IMPORT = "import"
    EXPORT = "export"


class ValueRange:
    """Running min/max of the values one transaction saw for one object.

    Section 5.3.2's mechanism for non-sum aggregates needs, per object, the
    extreme values viewed across (possibly repeated) reads.
    """

    __slots__ = ("minimum", "maximum")

    def __init__(self, value: float):
        self.minimum = value
        self.maximum = value

    def observe(self, value: float) -> bool:
        """Fold ``value`` in; True when either extreme actually moved."""
        changed = False
        if value < self.minimum:
            self.minimum = value
            changed = True
        if value > self.maximum:
            self.maximum = value
            changed = True
        return changed

    @property
    def spread(self) -> float:
        return self.maximum - self.minimum

    def __repr__(self) -> str:
        return f"ValueRange(min={self.minimum:g}, max={self.maximum:g})"


class InconsistencyAccount:
    """Accumulated inconsistency for one transaction, one direction.

    The account is the single authority the concurrency control consults
    before admitting an inconsistent operation: :meth:`admit` performs the
    complete object → groups → transaction check and, on success, charges
    every level and updates the counters.
    """

    def __init__(
        self,
        direction: str,
        catalog: GroupCatalog,
        transaction_limit: float,
        group_limits: Mapping[str, float] | None = None,
    ):
        if direction not in (Direction.IMPORT, Direction.EXPORT):
            raise SpecificationError(f"unknown direction {direction!r}")
        self.direction = direction
        self._ledger = HierarchyLedger(catalog, transaction_limit, group_limits)
        self._per_object: dict[int, float] = {}
        self._ranges: dict[int, ValueRange] = {}
        self.inconsistent_operations = 0
        #: Optional mutual exclusion around the charge path.  ``None`` by
        #: default (the single-threaded engines pay nothing); the sharded
        #: engine installs one lock per transaction so concurrent shards
        #: charging the same TIL/GIL ledger keep exactly-at-limit
        #: semantics (see :meth:`install_lock`).
        self._lock = None
        # Incremental change tracking (see track_changes): off by
        # default, so the hot admission path pays one predicate check and
        # an account that never tracks never allocates the dirty sets.
        self._track = False

    def install_lock(self, lock) -> None:
        """Serialise :meth:`admit` / :meth:`admit_bounded` /
        :meth:`would_admit` / :meth:`observe_value` under ``lock``.

        The transaction and group levels of the hierarchy span shards, so
        when one transaction's operations can run on different shard
        threads concurrently, its ledger checks must be atomic.
        """
        self._lock = lock

    def declared_group_limits(self) -> dict[str, float] | None:
        """The group limits this account was opened with, root left out."""
        return self._ledger.declared_group_limits()

    # -- admission ---------------------------------------------------------

    def admit(
        self, object_id: int, amount: float, object_limit: float = UNBOUNDED
    ) -> ChargeOutcome:
        """Try to admit an operation carrying inconsistency ``amount``.

        Returns the :class:`ChargeOutcome`; when admitted with a strictly
        positive amount the operation counts as an *inconsistent operation
        that succeeded* (paper Figure 8).  Zero-amount admissions are
        consistent operations and always succeed at the object level.
        """
        if self._lock is not None:
            with self._lock:
                return self._admit(object_id, amount, object_limit)
        return self._admit(object_id, amount, object_limit)

    def _admit(
        self, object_id: int, amount: float, object_limit: float
    ) -> ChargeOutcome:
        outcome = self._ledger.check_and_charge(object_id, amount, object_limit)
        if outcome.admitted:
            if amount > 0:
                self.inconsistent_operations += 1
                self._per_object[object_id] = (
                    self._per_object.get(object_id, 0.0) + amount
                )
                if self._track:
                    self._dirty_usage = True
                    self._dirty_ops = True
                    self._dirty_objects.add(object_id)
        return outcome

    def admit_bounded(
        self,
        object_id: int,
        test_amount: float,
        charge_amount: float,
        object_limit: float = UNBOUNDED,
    ) -> ChargeOutcome:
        """Admit ``test_amount`` against every level, charge ``charge_amount``.

        The snapshot read cache's admission shape (see
        :meth:`repro.core.hierarchy.HierarchyLedger.check_and_charge_bounded`):
        the conservative bound covers divergence the fast path cannot rule
        out, the charge is the staleness the read actually observed.  A
        strictly positive charge counts as an inconsistent operation that
        succeeded, same as :meth:`admit`.
        """
        if self._lock is not None:
            with self._lock:
                return self._admit_bounded(
                    object_id, test_amount, charge_amount, object_limit
                )
        return self._admit_bounded(
            object_id, test_amount, charge_amount, object_limit
        )

    def _admit_bounded(
        self,
        object_id: int,
        test_amount: float,
        charge_amount: float,
        object_limit: float,
    ) -> ChargeOutcome:
        outcome = self._ledger.check_and_charge_bounded(
            object_id, test_amount, charge_amount, object_limit
        )
        if outcome.admitted and charge_amount > 0:
            self.inconsistent_operations += 1
            self._per_object[object_id] = (
                self._per_object.get(object_id, 0.0) + charge_amount
            )
            if self._track:
                self._dirty_usage = True
                self._dirty_ops = True
                self._dirty_objects.add(object_id)
        return outcome

    def would_admit(self, object_id: int, amount: float) -> bool:
        """Non-charging preview of the group/transaction levels."""
        if self._lock is not None:
            with self._lock:
                return self._ledger.would_admit(object_id, amount)
        return self._ledger.would_admit(object_id, amount)

    # -- value observation (aggregates, section 5.3.2) ----------------------

    def observe_value(self, object_id: int, value: float) -> None:
        """Record a value viewed for ``object_id`` (min/max tracking)."""
        lock = self._lock
        if lock is not None:
            lock.acquire()
        try:
            existing = self._ranges.get(object_id)
            if existing is None:
                self._ranges[object_id] = ValueRange(value)
                if self._track:
                    self._dirty_ranges.add(object_id)
            elif existing.observe(value) and self._track:
                self._dirty_ranges.add(object_id)
        finally:
            if lock is not None:
                lock.release()

    def value_range(self, object_id: int) -> ValueRange | None:
        return self._ranges.get(object_id)

    def observed_objects(self) -> tuple[int, ...]:
        return tuple(self._ranges)

    # -- state transfer (process sharding) -----------------------------------

    def dump_state(
        self,
    ) -> tuple[
        dict[str, float], dict[int, float], int, dict[int, tuple[float, float]]
    ]:
        """All dynamic account state as picklable plain data.

        Limits, direction and the catalog are static per transaction; what
        moves between processes is the accumulated usage (per ledger
        level), the per-object charges, the inconsistent-operation count,
        and the observed value ranges (section 5.3.2 aggregates).
        """
        if self._lock is not None:
            with self._lock:
                return self._dump_state()
        return self._dump_state()

    def _dump_state(self):
        return (
            self._ledger.dump_usage(),
            dict(self._per_object),
            self.inconsistent_operations,
            {
                object_id: (r.minimum, r.maximum)
                for object_id, r in self._ranges.items()
            },
        )

    def load_state(self, state) -> None:
        """Overwrite the dynamic state with a :meth:`dump_state` dump.

        Used by the process-sharded engine to keep one canonical account
        per transaction: the parent ships the state to whichever shard
        worker runs the next operation and adopts the worker's post-state,
        so TIL/TEL and group charges accumulate across shards exactly as
        they would under one in-process ledger.
        """
        if self._lock is not None:
            with self._lock:
                self._load_state(state)
            return
        self._load_state(state)

    def _load_state(self, state) -> None:
        usage, per_object, operations, ranges = state
        self._ledger.load_usage(usage)
        self._per_object = dict(per_object)
        self.inconsistent_operations = operations
        rebuilt: dict[int, ValueRange] = {}
        for object_id, (minimum, maximum) in ranges.items():
            value_range = ValueRange(minimum)
            value_range.maximum = maximum
            rebuilt[object_id] = value_range
        self._ranges = rebuilt
        if self._track:
            self._clear_dirty()

    # -- incremental change tracking (process sharding fast path) ------------

    def track_changes(self) -> None:
        """Start recording which entries :meth:`take_delta` should ship.

        Only *locally originated* changes are tracked — admissions and
        value observations; :meth:`load_state` and :meth:`apply_delta`
        reset the dirty sets, since state arriving from the canonical
        copy must not echo back to it.  The shard workers enable this on
        their sibling accounts so each operation's reply delta costs
        O(changed entries) instead of a full state dump and diff.
        """
        self._track = True
        self._dirty_objects: set[int] = set()
        self._dirty_ranges: set[int] = set()
        self._clear_dirty()

    def _clear_dirty(self) -> None:
        self._dirty_usage = False
        self._dirty_ops = False
        self._dirty_objects.clear()
        self._dirty_ranges.clear()

    def take_delta(self):
        """The changes since the last call, as an :meth:`apply_delta` delta.

        Returns None when nothing changed (the common consistent-op
        case).  Requires :meth:`track_changes`.  The usage component
        ships the whole per-level dict when any charge landed — it holds
        one entry per *bounded level*, a handful at most — while the
        per-object and range components ship only the touched entries.
        """
        if self._lock is not None:
            with self._lock:
                return self._take_delta()
        return self._take_delta()

    def _take_delta(self):
        if not (
            self._dirty_usage
            or self._dirty_ops
            or self._dirty_objects
            or self._dirty_ranges
        ):
            return None
        usage = self._ledger.dump_usage() if self._dirty_usage else {}
        per_object = {
            object_id: self._per_object[object_id]
            for object_id in self._dirty_objects
        }
        ranges = {}
        for object_id in self._dirty_ranges:
            value_range = self._ranges[object_id]
            ranges[object_id] = (value_range.minimum, value_range.maximum)
        operations = self.inconsistent_operations if self._dirty_ops else None
        self._clear_dirty()
        return (usage, per_object, operations, ranges)

    @staticmethod
    def diff_state(old, new):
        """The delta between two :meth:`dump_state` dumps, or None.

        Account state only grows (usage accumulates, per-object charges
        and observed ranges are never removed), so a delta is simply the
        entries of ``new`` that differ from ``old`` — applying it on top
        of ``old`` with :meth:`apply_delta` reproduces ``new`` exactly.
        Returns None when the dumps are identical (the common case for a
        consistent operation, which charges nothing).
        """
        old_usage, old_per_object, old_operations, old_ranges = old
        new_usage, new_per_object, new_operations, new_ranges = new
        usage = {
            level: value
            for level, value in new_usage.items()
            if old_usage.get(level) != value
        }
        per_object = {
            object_id: value
            for object_id, value in new_per_object.items()
            if old_per_object.get(object_id) != value
        }
        ranges = {
            object_id: extremes
            for object_id, extremes in new_ranges.items()
            if old_ranges.get(object_id) != extremes
        }
        operations = (
            new_operations if new_operations != old_operations else None
        )
        if not usage and not per_object and not ranges and operations is None:
            return None
        return (usage, per_object, operations, ranges)

    def apply_delta(self, delta) -> None:
        """Apply a :meth:`diff_state` delta on top of the current state.

        The inverse of shipping a full dump: only the changed ledger
        levels, per-object charges, operation count and value ranges are
        merged in, which is what crosses the shard channel on the
        process-sharded engine's delta-sync fast path.
        """
        if self._lock is not None:
            with self._lock:
                self._apply_delta(delta)
            return
        self._apply_delta(delta)

    def _apply_delta(self, delta) -> None:
        usage, per_object, operations, ranges = delta
        if usage:
            self._ledger.update_usage(usage)
        if per_object:
            self._per_object.update(per_object)
        if operations is not None:
            self.inconsistent_operations = operations
        for object_id, (minimum, maximum) in ranges.items():
            value_range = ValueRange(minimum)
            value_range.maximum = maximum
            self._ranges[object_id] = value_range
        if self._track:
            self._clear_dirty()

    # -- introspection -------------------------------------------------------

    @property
    def total(self) -> float:
        """Total inconsistency charged at the transaction level."""
        return self._ledger.total

    @property
    def transaction_limit(self) -> float:
        return self._ledger.transaction_limit

    def headroom(self) -> float:
        return self._ledger.headroom()

    def object_inconsistency(self, object_id: int) -> float:
        """Inconsistency this transaction accumulated against one object."""
        return self._per_object.get(object_id, 0.0)

    def level_snapshot(self) -> dict[str, tuple[float, float]]:
        return self._ledger.snapshot()

    def __repr__(self) -> str:
        return (
            f"InconsistencyAccount({self.direction}, total={self.total:g}, "
            f"limit={self.transaction_limit:g})"
        )
