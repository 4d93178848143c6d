"""Hierarchical inconsistency bounds (paper sections 3.1 and 5.3.1).

Data objects are organised into a tree of *groups* — e.g. a bank's accounts
split into company / preferred / personal categories, each subdivided
further — and a transaction may place an inconsistency limit on any node of
that tree in addition to its overall transaction-level limit:

* specification flows **top-down**: the root carries the transaction limit
  (TIL or TEL), interior nodes carry group limits (GIL), leaves carry
  object limits (OIL or OEL);
* control flows **bottom-up**: when an operation on object ``x`` would view
  (or export) inconsistency ``d``, the system checks ``d`` against the
  object limit, then ``usage + d`` against every group on the path from
  ``x`` to the root, ending with the transaction limit.  A violation at any
  level rejects the operation and aborts the transaction; on success every
  level on the path is charged ``d``.

Two classes implement this:

:class:`GroupCatalog`
    The *shared, static* shape of the tree — group names, parent links, and
    the assignment of object ids to groups.  Owned by the database schema.

:class:`HierarchyLedger`
    The *per-transaction, dynamic* state — limits chosen by one transaction
    plus the inconsistency accumulated so far at every level.  This is the
    object the concurrency control consults on every read (import side) or
    write (export side).

The ledger walk is the per-operation hot path of the whole simulator, so
admission runs over a *limited path* — the object's root path filtered
down to the levels that actually carry a limit.  Every transaction in a
run typically declares the same set of bounded levels (the workload's
``LIMIT`` lines come from one config), so the filtered paths are cached
on the *catalog*, keyed by that level set, and shared by every ledger
that bounds those levels: the first transaction to touch an object pays
the filter, all later transactions walk a precomputed tuple.  The
catalog invalidates an object's entries when it is re-assigned.  Both
:meth:`HierarchyLedger.try_charge` and :meth:`HierarchyLedger.
would_admit` evaluate the same :meth:`~HierarchyLedger._first_violation`
predicate over that path, so the admission decision and the charging
logic can never drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.bounds import UNBOUNDED
from repro.errors import SpecificationError
from repro.perf import counters as _perf

__all__ = [
    "ROOT_GROUP",
    "GroupCatalog",
    "ChargeOutcome",
    "HierarchyLedger",
]

#: Name of the implicit root node; its limit is the transaction limit.
ROOT_GROUP = "<transaction>"


class GroupCatalog:
    """The group tree and the object-to-group assignment.

    The catalog is pure structure: it carries no limits and no usage.  A
    freshly constructed catalog contains only the implicit root; objects
    that are never assigned to a group are treated as *independent* (paper
    Figure 2) and sit directly under the root.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._children: dict[str, list[str]] = {ROOT_GROUP: []}
        self._membership: dict[int, str] = {}
        # Paths are derived data; cache them because the concurrency control
        # asks for a path on every single operation.
        self._path_cache: dict[int, tuple[str, ...]] = {}
        # Limited-path caches shared by every ledger bounding the same set
        # of levels: {frozenset(levels): {object_id: filtered path}}.  The
        # inner dicts are handed to ledgers by reference and only ever
        # emptied in place, never replaced, so they can't go stale.
        self._limited_cache: dict[frozenset[str], dict[int, tuple[str, ...]]] = {}

    # -- construction ----------------------------------------------------

    def add_group(self, name: str, parent: str | None = None) -> None:
        """Declare a group under ``parent`` (the root when omitted)."""
        if not name or name == ROOT_GROUP:
            raise SpecificationError(f"invalid group name {name!r}")
        if name in self._children:
            raise SpecificationError(f"group {name!r} already exists")
        parent = ROOT_GROUP if parent is None else parent
        if parent not in self._children:
            raise SpecificationError(
                f"cannot attach group {name!r}: unknown parent {parent!r}"
            )
        self._parent[name] = parent
        self._children[name] = []
        self._children[parent].append(name)

    def assign(self, object_id: int, group: str) -> None:
        """Place ``object_id`` in ``group``.

        Objects may live in any group (interior groups are allowed to hold
        objects directly alongside their subgroups).  Re-assigning an object
        moves it.
        """
        if group not in self._children:
            raise SpecificationError(
                f"cannot assign object {object_id}: unknown group {group!r}"
            )
        self._membership[object_id] = group
        self._path_cache.pop(object_id, None)
        for limited in self._limited_cache.values():
            limited.pop(object_id, None)

    def assign_many(self, object_ids: Mapping[int, str] | dict[int, str]) -> None:
        """Assign several objects at once from an ``{id: group}`` mapping."""
        for object_id, group in object_ids.items():
            self.assign(object_id, group)

    # -- queries ----------------------------------------------------------

    def groups(self) -> Iterator[str]:
        """All declared group names (excluding the implicit root)."""
        return iter(self._parent)

    def has_group(self, name: str) -> bool:
        return name in self._children

    def parent_of(self, group: str) -> str:
        """Parent of ``group``; the root's parent is an error."""
        if group == ROOT_GROUP:
            raise SpecificationError("the root group has no parent")
        try:
            return self._parent[group]
        except KeyError:
            raise SpecificationError(f"unknown group {group!r}") from None

    def children_of(self, group: str) -> tuple[str, ...]:
        try:
            return tuple(self._children[group])
        except KeyError:
            raise SpecificationError(f"unknown group {group!r}") from None

    def group_of(self, object_id: int) -> str:
        """Group holding ``object_id`` (the root for independent objects)."""
        return self._membership.get(object_id, ROOT_GROUP)

    def path(self, object_id: int) -> tuple[str, ...]:
        """Groups from the object's own group up to (and including) the root.

        For an independent object this is just ``(ROOT_GROUP,)``.  The path
        order matches the bottom-up control flow of the paper: leaf-most
        group first, root last.
        """
        cached = self._path_cache.get(object_id)
        if cached is not None:
            return cached
        chain: list[str] = []
        node = self.group_of(object_id)
        while node != ROOT_GROUP:
            chain.append(node)
            node = self._parent[node]
        chain.append(ROOT_GROUP)
        path = tuple(chain)
        self._path_cache[object_id] = path
        return path

    def limited_paths(self, levels: frozenset[str]) -> dict[int, tuple[str, ...]]:
        """The shared per-object filtered-path cache for one level set.

        Ledgers bounding exactly ``levels`` hold the returned dict by
        reference and fill it lazily via :meth:`HierarchyLedger.
        _first_violation`; the catalog evicts an object's entry when the
        object moves groups.
        """
        cache = self._limited_cache.get(levels)
        if cache is None:
            cache = self._limited_cache[levels] = {}
        return cache

    def __len__(self) -> int:
        return len(self._parent)

    def __repr__(self) -> str:
        return (
            f"GroupCatalog(groups={len(self._parent)}, "
            f"objects={len(self._membership)})"
        )


@dataclass(frozen=True)
class ChargeOutcome:
    """Result of attempting to charge inconsistency through the hierarchy.

    ``admitted`` is False when some level rejected the charge, in which case
    ``violated_level`` names it (``"object"``, a group name, or
    :data:`ROOT_GROUP`), and ``attempted``/``limit`` describe the failed
    comparison.  When admitted, usage at every level has been updated.
    """

    admitted: bool
    violated_level: str | None = None
    attempted: float = 0.0
    limit: float = UNBOUNDED

    @classmethod
    def ok(cls) -> "ChargeOutcome":
        return _ADMITTED


#: Shared success outcome — frozen, so every admission can return the
#: same instance instead of allocating one per operation.
_ADMITTED = ChargeOutcome(admitted=True)


class HierarchyLedger:
    """Per-transaction inconsistency accounting over a group hierarchy.

    One ledger tracks one *direction* for one transaction — import for a
    query ET, export for an update ET.  The root limit is the transaction
    limit (TIL/TEL); ``group_limits`` assigns limits to any subset of the
    catalog's groups (unlisted groups are unbounded).

    The ledger deliberately knows nothing about *object*-level limits:
    those belong to the objects themselves (OIL/OEL, possibly overridden
    per transaction) and are checked by the caller before consulting the
    ledger — exactly the bottom-up order of the paper.  The convenience
    method :meth:`check_and_charge` performs the complete object-then-
    groups-then-root sequence when given the effective object limit.
    """

    def __init__(
        self,
        catalog: GroupCatalog,
        transaction_limit: float,
        group_limits: Mapping[str, float] | None = None,
    ):
        if math.isnan(transaction_limit) or transaction_limit < 0:
            raise SpecificationError(
                f"transaction limit must be >= 0, got {transaction_limit!r}"
            )
        self._catalog = catalog
        self._limits: dict[str, float] = {ROOT_GROUP: float(transaction_limit)}
        for group, limit in (group_limits or {}).items():
            if not catalog.has_group(group):
                raise SpecificationError(
                    f"limit declared for unknown group {group!r}"
                )
            if math.isnan(limit) or limit < 0:
                raise SpecificationError(
                    f"limit for group {group!r} must be >= 0, got {limit!r}"
                )
            self._limits[group] = float(limit)
        self._usage: dict[str, float] = {name: 0.0 for name in self._limits}
        # Filtered paths shared catalog-wide among ledgers bounding the
        # same level set (see GroupCatalog.limited_paths).
        self._limited = catalog.limited_paths(frozenset(self._limits))

    # -- introspection ----------------------------------------------------

    @property
    def transaction_limit(self) -> float:
        return self._limits[ROOT_GROUP]

    @property
    def total(self) -> float:
        """Inconsistency accumulated at the transaction level so far."""
        return self._usage[ROOT_GROUP]

    def declared_group_limits(self) -> dict[str, float] | None:
        """The BEGIN-time group limits as a new mapping (None when none).

        The root entry is the transaction limit and is not included.
        """
        if len(self._limits) == 1:
            return None
        return {
            group: limit
            for group, limit in self._limits.items()
            if group != ROOT_GROUP
        }

    def limit_of(self, level: str) -> float:
        """Declared limit at ``level`` (``inf`` when unbounded)."""
        return self._limits.get(level, UNBOUNDED)

    def usage_of(self, level: str) -> float:
        """Inconsistency charged so far at ``level``."""
        return self._usage.get(level, 0.0)

    def headroom(self) -> float:
        """Remaining budget at the transaction level."""
        return self.transaction_limit - self.total

    # -- the control mechanism --------------------------------------------

    def _limited_path(self, object_id: int) -> tuple[str, ...]:
        """The object's bounded levels, bottom-up (cached catalog-wide)."""
        levels = self._limited.get(object_id)
        if levels is None:
            limits = self._limits
            levels = tuple(
                level
                for level in self._catalog.path(object_id)
                if level in limits
            )
            self._limited[object_id] = levels
        return levels

    def _first_violation(
        self, object_id: int, amount: float
    ) -> ChargeOutcome | None:
        """The bottom-most violated level, or None if every level admits.

        This is *the* admission predicate: :meth:`try_charge` charges only
        when it returns None, and :meth:`would_admit` is exactly that test,
        so the two can never disagree.
        """
        usage = self._usage
        limits = self._limits
        for level in self._limited_path(object_id):
            attempted = usage[level] + amount
            if attempted > limits[level]:
                return ChargeOutcome(
                    admitted=False,
                    violated_level=level,
                    attempted=attempted,
                    limit=limits[level],
                )
        return None

    def try_charge(self, object_id: int, amount: float) -> ChargeOutcome:
        """Charge ``amount`` along the object's path, bottom-up.

        Implements the paper's control stage: walk the path from the
        object's group to the root; at every level with a declared limit,
        admit only if ``usage + amount <= limit``.  The walk is fused over
        the precomputed limited path — one checking pass, then a tight
        charging pass that runs only when every level admitted — so a
        rejection leaves all usage untouched, with no rollback needed (the
        transaction is about to abort, but a clean ledger keeps the
        accounting exact for diagnostics and tests).
        """
        if amount < 0:
            raise SpecificationError(
                f"inconsistency charge must be >= 0, got {amount!r}"
            )
        _perf.ledger_walks += 1
        violation = self._first_violation(object_id, amount)
        if violation is not None:
            _perf.ledger_rejections += 1
            return violation
        usage = self._usage
        for level in self._limited_path(object_id):
            usage[level] += amount
        return _ADMITTED

    def check_and_charge(
        self, object_id: int, amount: float, object_limit: float = UNBOUNDED
    ) -> ChargeOutcome:
        """Full bottom-up admission: object level first, then the tree.

        ``object_limit`` is the effective OIL/OEL for this object (the
        server-side value, or a per-transaction override).  Per the paper,
        the object check compares the *single operation's* inconsistency
        against the object limit, while group/transaction levels compare
        *accumulated* inconsistency.
        """
        if amount > object_limit:
            return ChargeOutcome(
                admitted=False,
                violated_level="object",
                attempted=amount,
                limit=object_limit,
            )
        return self.try_charge(object_id, amount)

    def check_and_charge_bounded(
        self,
        object_id: int,
        test_amount: float,
        charge_amount: float,
        object_limit: float = UNBOUNDED,
    ) -> ChargeOutcome:
        """Admit against a conservative bound, charge the observed amount.

        The snapshot fast path must guard against divergence it cannot see
        from outside the critical section (a pending uncommitted write may
        commit concurrently), so it *tests* ``test_amount`` — staleness
        plus in-flight delta — against every level, but *charges* only
        ``charge_amount``, the staleness the served read actually
        observed, exactly as a Case-1/Case-2 admission of that read would.
        Requires ``charge_amount <= test_amount``, so an admitted charge
        can never itself violate a level the test cleared.
        """
        if charge_amount < 0 or charge_amount > test_amount:
            raise SpecificationError(
                f"charge {charge_amount!r} must be within [0, {test_amount!r}]"
            )
        if test_amount > object_limit:
            return ChargeOutcome(
                admitted=False,
                violated_level="object",
                attempted=test_amount,
                limit=object_limit,
            )
        _perf.ledger_walks += 1
        violation = self._first_violation(object_id, test_amount)
        if violation is not None:
            _perf.ledger_rejections += 1
            return violation
        usage = self._usage
        for level in self._limited_path(object_id):
            usage[level] += charge_amount
        return _ADMITTED

    def would_admit(self, object_id: int, amount: float) -> bool:
        """True if :meth:`try_charge` would succeed, without charging."""
        return self._first_violation(object_id, amount) is None

    # -- state transfer (process sharding) --------------------------------

    def dump_usage(self) -> dict[str, float]:
        """The accumulated usage per bounded level, as plain data.

        Limits are static (declared at BEGIN) and the limited-path cache
        is catalog-shared, so usage is the only dynamic state a remote
        copy of this ledger needs to replay a charge exactly.
        """
        return dict(self._usage)

    def load_usage(self, usage: Mapping[str, float]) -> None:
        """Overwrite the accumulated usage with a :meth:`dump_usage` dump.

        The dump must come from a ledger declared with the same limits —
        the process-sharded engine ships the canonical usage to the shard
        worker before each operation and adopts the worker's post-state
        after it, so exactly-at-limit admission is preserved across
        processes without a cross-process lock.
        """
        self._usage.clear()
        self._usage.update(usage)

    def update_usage(self, usage: Mapping[str, float]) -> None:
        """Merge a *partial* usage dump — the changed levels only.

        The delta-sync fast path of the process-sharded engine ships only
        the levels whose accumulated usage moved since the receiver's
        last acknowledged version; untouched levels keep their current
        values (usage is monotone, levels are never removed).
        """
        self._usage.update(usage)

    def snapshot(self) -> dict[str, tuple[float, float]]:
        """``{level: (usage, limit)}`` for every level with a limit."""
        return {
            level: (self._usage[level], self._limits[level])
            for level in self._limits
        }

    def __repr__(self) -> str:
        return (
            f"HierarchyLedger(total={self.total:g}, "
            f"limit={self.transaction_limit:g}, levels={len(self._limits)})"
        )
