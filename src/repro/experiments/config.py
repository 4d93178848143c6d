"""Experiment configuration: bound levels, sweeps, defaults.

Section 7 of the paper fixes the study's parameters; this module encodes
them once so the figure definitions, the tests and the CLI all agree:

* the epsilon levels table (high / medium / low / zero);
* the MPL range 1–10 (ten client workstations);
* the TIL sweep of Figure 11 and the OIL sweep (in units of the average
  write change ``w``) of Figures 12–13;
* measurement parameters: simulated duration, warm-up, repetitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bounds import STANDARD_LEVELS, EpsilonLevel
from repro.errors import ExperimentError
from repro.workload.spec import PAPER_WORKLOAD, WorkloadSpec

__all__ = [
    "MPL_RANGE",
    "TIL_SWEEP",
    "OIL_SWEEP_W",
    "bounds_table",
    "MeasurementPlan",
    "FAST_PLAN",
    "PAPER_PLAN",
]

#: Multiprogramming levels studied (the paper's LAN had 10 workstations).
MPL_RANGE = tuple(range(1, 11))

#: TIL values swept in Figure 11 (zero = the SR end of the axis).
TIL_SWEEP = (0.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 75_000.0, 100_000.0, 150_000.0)

#: OIL values for Figures 12–13, in units of the average write change w.
OIL_SWEEP_W = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, math.inf)

#: The MPL the paper holds constant in Figures 11–13.
BOUND_STUDY_MPL = 4


def bounds_table(levels: tuple[EpsilonLevel, ...] = STANDARD_LEVELS) -> list[dict]:
    """The section 7 table as data (level name, TIL, TEL)."""
    return [
        {"level": level.name, "TIL": level.til, "TEL": level.tel}
        for level in levels
    ]


@dataclass(frozen=True)
class MeasurementPlan:
    """How long and how often to measure each configuration.

    ``max_workers`` and ``cell_timeout_s`` control the execution backend
    of :func:`~repro.experiments.runner.run_cells`: every ``(config,
    seed)`` repetition cell may run in a separate worker process.  Each
    cell is keyed by its explicit seed from :meth:`seeds` and results are
    reassembled in plan order, so the aggregated estimates are
    bit-identical regardless of the worker count.
    """

    duration_ms: float = 30_000.0
    warmup_ms: float = 3_000.0
    repetitions: int = 3
    base_seed: int = 1
    workload: WorkloadSpec = PAPER_WORKLOAD
    service_time_ms: float | None = None  # None = simulator default
    #: Worker processes for the cell executor; 1 = run in-process.
    max_workers: int = 1
    #: Upper bound on one cell's wall-clock time; None = no limit.
    cell_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ExperimentError("repetitions must be >= 1")
        if self.duration_ms <= self.warmup_ms:
            raise ExperimentError("duration_ms must exceed warmup_ms")
        if self.max_workers < 1:
            raise ExperimentError("max_workers must be >= 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ExperimentError("cell_timeout_s must be positive")

    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(self.repetitions))


#: Short plan for tests and smoke runs.
FAST_PLAN = MeasurementPlan(duration_ms=10_000.0, warmup_ms=1_000.0, repetitions=1)

#: The plan used to regenerate the paper's figures.
PAPER_PLAN = MeasurementPlan(duration_ms=30_000.0, warmup_ms=3_000.0, repetitions=3)
