"""Figure definitions: structure and wiring (tiny measurement plans)."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import HIGH_EPSILON, ZERO_EPSILON
from repro.experiments.config import MeasurementPlan
from repro.experiments.figures import (
    ALL_FIGURES,
    fig7,
    fig8,
    fig11,
    fig12,
    fig13,
    mpl_study,
    oil_study,
    table1,
)
from repro.workload.spec import WorkloadSpec

TINY_PLAN = MeasurementPlan(
    duration_ms=1_500.0,
    warmup_ms=0.0,
    repetitions=1,
    workload=WorkloadSpec(n_objects=40, hot_set_size=8, n_partitions=4),
)


@pytest.fixture(scope="module")
def tiny_mpl_study():
    return mpl_study(
        TINY_PLAN, levels=(ZERO_EPSILON, HIGH_EPSILON), mpls=(1, 2, 3)
    )


class TestMplStudy:
    def test_structure(self, tiny_mpl_study):
        assert set(tiny_mpl_study) == {"zero-epsilon", "high-epsilon"}
        assert set(tiny_mpl_study["zero-epsilon"]) == {1, 2, 3}

    def test_fig7_view(self, tiny_mpl_study):
        figure = fig7(TINY_PLAN, study=tiny_mpl_study)
        assert figure.figure_id == "fig7"
        assert [s.label for s in figure.series] == [
            "zero-epsilon",
            "high-epsilon",
        ]
        assert figure.series[0].x == (1.0, 2.0, 3.0)
        assert all(e.mean >= 0 for s in figure.series for e in s.y)

    def test_fig8_omits_zero_epsilon(self, tiny_mpl_study):
        figure = fig8(TINY_PLAN, study=tiny_mpl_study)
        assert "zero-epsilon" not in [s.label for s in figure.series]


class TestOilStudy:
    def test_fig12_and_fig13_share_a_study(self):
        study = oil_study(
            TINY_PLAN,
            levels=(HIGH_EPSILON,),
            oil_sweep_w=(0.0, 1.0, math.inf),
            mpl=2,
        )
        twelve = fig12(TINY_PLAN, study=study)
        thirteen = fig13(TINY_PLAN, study=study)
        assert twelve.series[0].x == (0.0, 1.0, math.inf)
        assert thirteen.series[0].x == (0.0, 1.0, math.inf)
        assert twelve.series[0].label == "TIL=100000"

    def test_oil_axis_scaled_by_w(self):
        study = oil_study(
            TINY_PLAN, levels=(HIGH_EPSILON,), oil_sweep_w=(2.0,), mpl=1
        )
        measurement = study["high-epsilon"][2.0]
        expected = 2.0 * TINY_PLAN.workload.mean_write_change
        assert measurement.config.oil == expected


class TestFig11:
    def test_series_per_tel(self):
        figure = fig11(
            TINY_PLAN, til_sweep=(0.0, 10_000.0), tels=(1_000.0,), mpl=2
        )
        assert [s.label for s in figure.series] == ["TEL=1000"]
        assert figure.series[0].x == (0.0, 10_000.0)


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == {
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ext_hierarchy",
        }

    def test_table1(self):
        rows = table1()
        assert [row["level"] for row in rows] == [
            "zero-epsilon",
            "low-epsilon",
            "medium-epsilon",
            "high-epsilon",
        ]
