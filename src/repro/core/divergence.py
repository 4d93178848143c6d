"""Divergence computation: how much inconsistency does an operation carry?

This module holds the pure arithmetic of paper section 5 — given the values
involved in a conflicting operation, compute the magnitude ``d`` of the
inconsistency it would introduce.  The admission decision itself (comparing
``d`` against the bound hierarchy) lives in
:class:`repro.core.accounting.InconsistencyAccount`; keeping the two apart
makes each independently testable.

Import side (section 5.1)
    A query read that is admitted despite a conflict sees the object's
    *present* value instead of its *proper* value — the value the read
    would have returned had no concurrent updates run, i.e. the newest
    committed write older than the query's timestamp.
    ``d = |present - proper|``.

Export side (section 5.2)
    An update write with new value ``N`` exports inconsistency to every
    concurrent query that already read the object.  For each such reader
    with stored proper value ``P_i``, the divergence is
    ``|N - P_i|``; the paper charges the **maximum** over readers,
    because each query reads an object at most once (Wu et al. charge the
    sum, which over-counts under that assumption).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["import_divergence", "export_divergence"]


def import_divergence(present: float, proper: float) -> float:
    """Inconsistency a query read would import (section 5.1).

    ``present`` is the object's current value (possibly uncommitted);
    ``proper`` is the value the read would have seen without concurrent
    updates.  With no concurrent updates the two coincide and the
    divergence is zero.
    """
    return abs(present - proper)


def export_divergence(
    new_value: float, reader_proper_values: Iterable[float]
) -> float:
    """The paper's export rule: maximum divergence over concurrent readers.

    Appropriate when each query reads an object at most once, so the worst
    single reader bounds the export.  Returns 0.0 when there are no
    concurrent readers (the write exports nothing).
    """
    return max(
        (abs(new_value - proper) for proper in reader_proper_values),
        default=0.0,
    )
