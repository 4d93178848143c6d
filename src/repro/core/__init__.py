"""Core epsilon-serializability machinery.

The subpackage implements the paper's contribution proper, independent of
any particular concurrency control or runtime:

* :mod:`repro.core.bounds` — TIL/TEL/OIL/OEL and the standard epsilon levels;
* :mod:`repro.core.hierarchy` — hierarchical inconsistency bounds, the
  bottom-up check-and-charge mechanism;
* :mod:`repro.core.accounting` — per-transaction import/export accounts;
* :mod:`repro.core.divergence` — the arithmetic of section 5 (how much
  inconsistency a conflicting read or write carries);
* :mod:`repro.core.aggregates` — result inconsistency for non-sum queries.
"""

from repro.core.accounting import Direction, InconsistencyAccount, ValueRange
from repro.core.aggregates import AggregateResult, aggregate_bounds, result_inconsistency
from repro.core.bounds import (
    HIGH_EPSILON,
    LOW_EPSILON,
    MEDIUM_EPSILON,
    STANDARD_LEVELS,
    UNBOUNDED,
    ZERO_EPSILON,
    EpsilonLevel,
    ObjectBounds,
    TransactionBounds,
    level_by_name,
)
from repro.core.divergence import export_divergence, import_divergence
from repro.core.hierarchy import ROOT_GROUP, ChargeOutcome, GroupCatalog, HierarchyLedger

__all__ = [
    "Direction",
    "InconsistencyAccount",
    "ValueRange",
    "AggregateResult",
    "aggregate_bounds",
    "result_inconsistency",
    "UNBOUNDED",
    "TransactionBounds",
    "ObjectBounds",
    "EpsilonLevel",
    "ZERO_EPSILON",
    "LOW_EPSILON",
    "MEDIUM_EPSILON",
    "HIGH_EPSILON",
    "STANDARD_LEVELS",
    "level_by_name",
    "export_divergence",
    "import_divergence",
    "ROOT_GROUP",
    "ChargeOutcome",
    "GroupCatalog",
    "HierarchyLedger",
]
