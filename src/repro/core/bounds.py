"""Inconsistency-bound specifications (TIL, TEL, OIL, OEL).

The paper specifies inconsistency limits at two mandatory levels:

* **transaction level** — a query epsilon-transaction (ET) carries a
  *transaction import limit* (TIL); an update ET carries a *transaction
  export limit* (TEL);
* **object level** — each object carries an *object import limit* (OIL)
  bounding what any single read may view, and an *object export limit*
  (OEL) bounding what any single write may export.

Intermediate *group* limits are handled by :mod:`repro.core.hierarchy`; this
module holds the flat pieces and the named epsilon presets from the paper's
section 7 table (high / medium / low / zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SpecificationError

__all__ = [
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
]

#: Sentinel limit meaning "no bound at this level".  Using ``inf`` keeps all
#: comparison code uniform: a charge is admitted iff ``usage + d <= limit``.
UNBOUNDED = math.inf


def _validate_limit(name: str, value: float) -> float:
    if type(value) is float and value >= 0:
        return value  # also rules out NaN, which compares False
    value = float(value)
    if math.isnan(value) or value < 0:
        raise SpecificationError(f"{name} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class TransactionBounds:
    """Per-transaction inconsistency limits.

    ``import_limit`` (TIL) applies to query ETs and bounds the total
    inconsistency all their reads may view.  ``export_limit`` (TEL) applies
    to update ETs and bounds the total inconsistency all their writes may
    export to concurrent queries.  Zero limits reduce ESR to classic
    serializability.
    """

    import_limit: float = 0.0
    export_limit: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "import_limit", _validate_limit("TIL", self.import_limit)
        )
        object.__setattr__(
            self, "export_limit", _validate_limit("TEL", self.export_limit)
        )

    @property
    def is_serializable(self) -> bool:
        """True when both limits are zero, i.e. ESR degenerates to SR."""
        return self.import_limit == 0.0 and self.export_limit == 0.0

    def scaled(self, factor: float) -> "TransactionBounds":
        """Return bounds multiplied by ``factor`` (used by sweeps)."""
        if factor < 0:
            raise SpecificationError(f"scale factor must be >= 0, got {factor}")
        return TransactionBounds(
            import_limit=self.import_limit * factor,
            export_limit=self.export_limit * factor,
        )


@dataclass(frozen=True)
class ObjectBounds:
    """Per-object inconsistency limits (OIL and OEL).

    In the prototype these live on the server side with each object and
    apply uniformly to all transactions (the paper assumes OIL/OEL are the
    same for every transaction touching the object).
    """

    import_limit: float = UNBOUNDED
    export_limit: float = UNBOUNDED

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "import_limit", _validate_limit("OIL", self.import_limit)
        )
        object.__setattr__(
            self, "export_limit", _validate_limit("OEL", self.export_limit)
        )


@dataclass(frozen=True)
class EpsilonLevel:
    """A named (TIL, TEL) setting from the paper's section 7 table."""

    name: str
    transaction: TransactionBounds

    @property
    def til(self) -> float:
        return self.transaction.import_limit

    @property
    def tel(self) -> float:
        return self.transaction.export_limit


ZERO_EPSILON = EpsilonLevel("zero-epsilon", TransactionBounds(0, 0))
LOW_EPSILON = EpsilonLevel("low-epsilon", TransactionBounds(10_000, 1_000))
MEDIUM_EPSILON = EpsilonLevel("medium-epsilon", TransactionBounds(50_000, 5_000))
HIGH_EPSILON = EpsilonLevel("high-epsilon", TransactionBounds(100_000, 10_000))

#: The paper's table, ordered from SR to the loosest bounds.
STANDARD_LEVELS = (ZERO_EPSILON, LOW_EPSILON, MEDIUM_EPSILON, HIGH_EPSILON)

_LEVELS_BY_NAME = {level.name: level for level in STANDARD_LEVELS}
# Accept the bare adjectives as well ("high" for "high-epsilon").
_LEVELS_BY_NAME.update(
    {level.name.removesuffix("-epsilon"): level for level in STANDARD_LEVELS}
)


def level_by_name(name: str) -> EpsilonLevel:
    """Look up a standard epsilon level by name.

    Accepts both the full names from the paper ("high-epsilon") and the
    short forms used on its graphs ("high").
    """
    try:
        return _LEVELS_BY_NAME[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_LEVELS_BY_NAME))
        raise SpecificationError(
            f"unknown epsilon level {name!r}; known levels: {known}"
        ) from None
