"""One definition per paper figure/table (section 8).

Each ``figN`` function reruns the corresponding experiment and returns a
:class:`FigureResult` — labelled series of (x, estimate) points carrying
exactly what the paper plots:

====== ============================================== =====================
Figure x-axis                                          y-axis
====== ============================================== =====================
7      multiprogramming level (MPL)                    throughput (tx/s)
8      MPL                                             successful inconsistent operations
9      MPL                                             number of aborts (retries)
10     MPL                                             total operations (R + W)
11     transaction import limit (TIL), TEL per series  throughput
12     object import limit (OIL, units of w), TIL/series throughput
13     OIL (units of w), TIL per series                average operations per transaction
====== ============================================== =====================

Figures 7–10 come from one MPL sweep and Figures 12–13 from one OIL
sweep, so :func:`mpl_study` / :func:`oil_study` run the simulations once
and the figure functions are cheap views over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bounds import (
    HIGH_EPSILON,
    LOW_EPSILON,
    MEDIUM_EPSILON,
    STANDARD_LEVELS,
    EpsilonLevel,
)
from repro.experiments.config import (
    BOUND_STUDY_MPL,
    MPL_RANGE,
    OIL_SWEEP_W,
    PAPER_PLAN,
    TIL_SWEEP,
    MeasurementPlan,
    bounds_table,
)
from repro.experiments.runner import (
    CellProgress,
    Estimate,
    Measurement,
    measure_many,
)
from repro.sim.system import SimulationConfig

__all__ = [
    "Series",
    "FigureResult",
    "mpl_study",
    "til_study",
    "oil_study",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table1",
    "ALL_FIGURES",
]


@dataclass(frozen=True)
class Series:
    """One labelled curve: x values and aggregated y estimates."""

    label: str
    x: tuple[float, ...]
    y: tuple[Estimate, ...]

    def means(self) -> tuple[float, ...]:
        return tuple(e.mean for e in self.y)


@dataclass(frozen=True)
class FigureResult:
    """A regenerated figure: its axes and series, ready to render."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    notes: str = ""

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.figure_id}")


# -- shared sweeps ------------------------------------------------------------------


def mpl_study(
    plan: MeasurementPlan = PAPER_PLAN,
    levels: tuple[EpsilonLevel, ...] = STANDARD_LEVELS,
    mpls: tuple[int, ...] = MPL_RANGE,
    progress: CellProgress | None = None,
) -> dict[str, dict[int, Measurement]]:
    """The MPL sweep behind Figures 7–10.

    OIL and OEL stay unbounded (the paper holds them "constant at high
    values so that they do not affect the results").  Every (level, MPL,
    seed) cell of the sweep goes into one shared worker pool.
    """
    points = [(level, mpl) for level in levels for mpl in mpls]
    measurements = measure_many(
        [
            SimulationConfig(mpl=mpl, til=level.til, tel=level.tel)
            for level, mpl in points
        ],
        plan,
        progress=progress,
    )
    study: dict[str, dict[int, Measurement]] = {}
    for (level, mpl), measurement in zip(points, measurements):
        study.setdefault(level.name, {})[mpl] = measurement
    return study


def til_study(
    plan: MeasurementPlan = PAPER_PLAN,
    til_sweep: tuple[float, ...] = TIL_SWEEP,
    tels: tuple[float, ...] = (1_000.0, 5_000.0, 10_000.0),
    mpl: int = BOUND_STUDY_MPL,
    progress: CellProgress | None = None,
) -> dict[float, dict[float, Measurement]]:
    """The TIL × TEL sweep behind Figure 11 (one pooled batch)."""
    points = [(tel, til) for tel in tels for til in til_sweep]
    measurements = measure_many(
        [SimulationConfig(mpl=mpl, til=til, tel=tel) for tel, til in points],
        plan,
        progress=progress,
    )
    study: dict[float, dict[float, Measurement]] = {}
    for (tel, til), measurement in zip(points, measurements):
        study.setdefault(tel, {})[til] = measurement
    return study


def oil_study(
    plan: MeasurementPlan = PAPER_PLAN,
    levels: tuple[EpsilonLevel, ...] = (LOW_EPSILON, MEDIUM_EPSILON, HIGH_EPSILON),
    oil_sweep_w: tuple[float, ...] = OIL_SWEEP_W,
    mpl: int = BOUND_STUDY_MPL,
    progress: CellProgress | None = None,
) -> dict[str, dict[float, Measurement]]:
    """The OIL sweep behind Figures 12–13 (OIL in units of w)."""
    w = plan.workload.mean_write_change
    points = [(level, oil_w) for level in levels for oil_w in oil_sweep_w]
    measurements = measure_many(
        [
            SimulationConfig(
                mpl=mpl,
                til=level.til,
                tel=level.tel,
                oil=math.inf if math.isinf(oil_w) else oil_w * w,
            )
            for level, oil_w in points
        ],
        plan,
        progress=progress,
    )
    study: dict[str, dict[float, Measurement]] = {}
    for (level, oil_w), measurement in zip(points, measurements):
        study.setdefault(level.name, {})[oil_w] = measurement
    return study


def _mpl_figure(
    figure_id: str,
    title: str,
    y_label: str,
    metric: str,
    plan: MeasurementPlan,
    study: dict[str, dict[int, Measurement]] | None,
    levels: tuple[EpsilonLevel, ...],
    notes: str = "",
    progress: CellProgress | None = None,
) -> FigureResult:
    if study is None:
        study = mpl_study(plan, levels=levels, progress=progress)
    series = []
    for level in levels:
        if level.name not in study:
            continue
        per_mpl = study[level.name]
        xs = tuple(sorted(per_mpl))
        ys = tuple(per_mpl[x].metric(metric) for x in xs)
        series.append(Series(label=level.name, x=tuple(float(x) for x in xs), y=ys))
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="multiprogramming level",
        y_label=y_label,
        series=tuple(series),
        notes=notes,
    )


# -- the figures -----------------------------------------------------------------------


def fig7(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, dict[int, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 7 — Throughput vs multiprogramming level."""
    return _mpl_figure(
        "fig7",
        "Throughput vs Multiprogramming Level",
        "throughput (transactions/second)",
        "throughput",
        plan,
        study,
        STANDARD_LEVELS,
        notes=(
            "OIL/OEL unbounded.  Expected shape: throughput ordered by "
            "bound level; thrashing point shifts to higher MPL as bounds "
            "increase."
        ),
        progress=progress,
    )


def fig8(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, dict[int, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 8 — Successful inconsistent operations vs MPL.

    The zero-epsilon level is omitted, as in the paper: under SR no
    inconsistent operation is ever admitted.
    """
    return _mpl_figure(
        "fig8",
        "Successful Inconsistent Operations vs Multiprogramming Level",
        "successful inconsistent operations",
        "inconsistent_operations",
        plan,
        study,
        (LOW_EPSILON, MEDIUM_EPSILON, HIGH_EPSILON),
        notes="Increases with both MPL and the inconsistency bounds.",
        progress=progress,
    )


def fig9(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, dict[int, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 9 — Number of aborts (retries) vs MPL."""
    return _mpl_figure(
        "fig9",
        "Number of Aborts vs Multiprogramming Level",
        "aborts (retries)",
        "aborts",
        plan,
        study,
        STANDARD_LEVELS,
        notes=(
            "Aborts are nearly zero at high bounds, shoot up as bounds "
            "shrink, and are highest for zero-epsilon (SR)."
        ),
        progress=progress,
    )


def fig10(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, dict[int, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 10 — Total operations (reads + writes) vs MPL."""
    return _mpl_figure(
        "fig10",
        "Number of Operations (R+W) vs Multiprogramming Level",
        "total operations executed",
        "total_operations",
        plan,
        study,
        STANDARD_LEVELS,
        notes=(
            "At high bounds the total equals the useful-work floor; "
            "operations above the same commit count elsewhere measure "
            "wasted (aborted) work."
        ),
        progress=progress,
    )


def fig11(
    plan: MeasurementPlan = PAPER_PLAN,
    til_sweep: tuple[float, ...] = TIL_SWEEP,
    tels: tuple[float, ...] = (1_000.0, 5_000.0, 10_000.0),
    mpl: int = BOUND_STUDY_MPL,
    study: dict[float, dict[float, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 11 — Throughput vs TIL, with TEL held at constant levels."""
    if study is None:
        study = til_study(plan, til_sweep, tels, mpl, progress=progress)
    series = []
    for tel in tels:
        per_til = study[tel]
        xs = tuple(sorted(per_til))
        series.append(
            Series(
                label=f"TEL={tel:g}",
                x=xs,
                y=tuple(per_til[til].throughput for til in xs),
            )
        )
    return FigureResult(
        figure_id="fig11",
        title="Throughput vs Transaction Import Limit (TEL varies)",
        x_label="transaction import limit (TIL)",
        y_label="throughput (transactions/second)",
        series=tuple(series),
        notes=(
            f"MPL held at {mpl}.  Throughput rises with TIL, steepest at "
            "small-to-medium values."
        ),
    )


def _oil_figure(
    figure_id: str,
    title: str,
    y_label: str,
    metric: str,
    plan: MeasurementPlan,
    study: dict[str, dict[float, Measurement]] | None,
    notes: str,
    progress: CellProgress | None = None,
) -> FigureResult:
    if study is None:
        study = oil_study(plan, progress=progress)
    series = []
    for level_name, per_oil in study.items():
        xs = tuple(sorted(per_oil))
        ys = tuple(per_oil[x].metric(metric) for x in xs)
        til = {level.name: level.til for level in STANDARD_LEVELS}[level_name]
        series.append(Series(label=f"TIL={til:g}", x=xs, y=ys))
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="object import limit (units of w)",
        y_label=y_label,
        series=tuple(series),
        notes=notes,
    )


def fig12(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, dict[float, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 12 — Throughput vs OIL (TIL varies), MPL constant."""
    return _oil_figure(
        "fig12",
        "Throughput vs Object Import Limit (TIL varies)",
        "throughput (transactions/second)",
        "throughput",
        plan,
        study,
        notes=(
            "For low TIL the throughput peaks at an intermediate OIL: "
            "low OIL rejects too much, high OIL admits doomed operations "
            "whose transactions abort later after wasting work."
        ),
        progress=progress,
    )


def fig13(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, dict[float, Measurement]] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Figure 13 — Average operations per transaction vs OIL."""
    return _oil_figure(
        "fig13",
        "Average Number of Operations per Transaction (TIL varies)",
        "operations per committed transaction",
        "operations_per_commit",
        plan,
        study,
        notes=(
            "Includes operations executed by aborted incarnations.  Falls "
            "with OIL at high TIL; for low TIL it falls then rises again "
            "at large OIL (late aborts waste more operations)."
        ),
        progress=progress,
    )


def table1() -> list[dict]:
    """The section 7 bound-levels table (no simulation needed)."""
    return bounds_table()


def _ext_hierarchy(
    plan: MeasurementPlan = PAPER_PLAN,
    progress: CellProgress | None = None,
) -> FigureResult:
    # Imported lazily to avoid a circular import at module load.
    from repro.experiments.extensions import ext_hierarchy

    return ext_hierarchy(plan, progress=progress)


#: Registry used by the CLI and the report generator.
ALL_FIGURES = {
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "ext_hierarchy": _ext_hierarchy,
}
