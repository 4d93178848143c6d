"""Extension experiments beyond the paper's figures.

The paper's evaluation restricts itself to the two-level hierarchy
(transaction + object).  Its section 3 contribution, however, is the
*multi-level* hierarchy, with section 5.3.1 noting only that hierarchical
control "does not come free of charge".  This module quantifies that:

:func:`hierarchy_study` runs the paper workload with every query
declaring group limits over a three-level catalog (transaction → hot →
partition groups → objects), at several strictness settings, measuring
the throughput/accuracy trade-off and the control overhead.
"""

from __future__ import annotations

from repro.experiments.config import BOUND_STUDY_MPL, PAPER_PLAN, MeasurementPlan
from repro.experiments.figures import FigureResult, Series
from repro.experiments.runner import CellProgress, Measurement, measure_many
from repro.sim.system import SimulationConfig
from repro.workload.generator import HOT_GROUP, partition_group

__all__ = ["hierarchy_study", "ext_hierarchy"]


def _limits(spec, hot_limit: float, partition_mult: float):
    """Group-limit tuples: one on 'hot', one per partition subgroup."""
    w = spec.mean_write_change
    return ((HOT_GROUP, hot_limit),) + tuple(
        (partition_group(index), partition_mult * w)
        for index in range(spec.n_partitions)
    )


def hierarchy_settings(spec) -> dict[str, tuple[tuple[str, float], ...] | None]:
    """Named strictness settings for the hierarchical-bounds study."""
    return {
        "flat (no groups)": None,
        "loose groups": _limits(spec, 100_000.0, 50.0),
        "medium groups": _limits(spec, 50_000.0, 4.0),
        "tight groups": _limits(spec, 10_000.0, 1.0),
    }


def hierarchy_study(
    plan: MeasurementPlan = PAPER_PLAN,
    mpl: int = BOUND_STUDY_MPL,
    progress: CellProgress | None = None,
) -> dict[str, Measurement]:
    """Measure each strictness setting at high transaction bounds.

    All settings' repetition cells are submitted to the shared worker
    pool in one batch.
    """
    settings = hierarchy_settings(plan.workload)
    measurements = measure_many(
        [
            SimulationConfig(
                mpl=mpl,
                til=100_000.0,
                tel=10_000.0,
                query_group_limits=limits,
            )
            for limits in settings.values()
        ],
        plan,
        progress=progress,
    )
    return dict(zip(settings, measurements))


def ext_hierarchy(
    plan: MeasurementPlan = PAPER_PLAN,
    study: dict[str, Measurement] | None = None,
    progress: CellProgress | None = None,
) -> FigureResult:
    """Extension figure: throughput and aborts vs group-limit strictness.

    The x axis indexes the strictness settings (0 = flat … 3 = tight);
    two series carry throughput and aborts.  Loose group limits must cost
    nothing (identical to flat); tightening them trades throughput for
    per-group accuracy, exactly as OIL does at the object level.
    """
    if study is None:
        study = hierarchy_study(plan, progress=progress)
    names = list(study)
    xs = tuple(float(i) for i in range(len(names)))
    throughput = Series(
        label="throughput (tx/s)",
        x=xs,
        y=tuple(study[name].throughput for name in names),
    )
    aborts = Series(
        label="aborts",
        x=xs,
        y=tuple(study[name].aborts for name in names),
    )
    return FigureResult(
        figure_id="ext_hierarchy",
        title="Hierarchical group limits: strictness vs throughput",
        x_label=" / ".join(f"{i}={name}" for i, name in enumerate(names)),
        y_label="throughput (tx/s) / aborts",
        series=(throughput, aborts),
        notes=(
            "Extension beyond the paper: three-level hierarchy "
            "(transaction -> hot -> partition groups -> objects) on every "
            "query.  Loose limits are free; tight limits trade throughput "
            "for per-group accuracy."
        ),
    )
