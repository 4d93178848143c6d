"""The paper's qualitative claims, checked on a measured plan.

Figures 7-10 are views over one MPL sweep and Figures 12-13 over one OIL
sweep, so those studies are computed once per module.  Each figure test
regenerates its figure and asserts the paper's shape checks
(:func:`~repro.experiments.analysis.check_figure`) plus the figure's own
reading.  The extension and ablation tests run the comparisons DESIGN.md
lists beyond the paper's figures.  Estimates are bit-identical at any
worker count, so the pool size only changes the wall time.
"""

from __future__ import annotations

import os

import pytest

from repro.core.hierarchy import GroupCatalog, HierarchyLedger
from repro.experiments.analysis import check_figure
from repro.experiments.config import MeasurementPlan
from repro.experiments.extensions import hierarchy_study
from repro.experiments.figures import (
    FigureResult,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    mpl_study,
    oil_study,
)
from repro.sim.system import SimulationConfig, run_simulation

#: Long enough for stable shapes, short enough for tier-1.
BENCH_PLAN = MeasurementPlan(
    duration_ms=30_000.0,
    warmup_ms=3_000.0,
    repetitions=2,
    base_seed=1,
    max_workers=min(2, os.cpu_count() or 1),
)


@pytest.fixture(scope="module")
def shared_mpl_study():
    """The MPL sweep behind Figures 7-10."""
    return mpl_study(BENCH_PLAN)


@pytest.fixture(scope="module")
def shared_oil_study():
    """The OIL sweep behind Figures 12-13."""
    return oil_study(BENCH_PLAN)


def assert_shape(figure: FigureResult) -> None:
    failed = [check for check in check_figure(figure) if not check.passed]
    assert not failed, f"{figure.figure_id} shape checks failed: {failed}"


def _run(**overrides):
    settings = dict(
        mpl=8,
        duration_ms=BENCH_PLAN.duration_ms,
        warmup_ms=BENCH_PLAN.warmup_ms,
        seed=1,
    )
    settings.update(overrides)
    return run_simulation(SimulationConfig(**settings))


class TestFigures:
    def test_fig7_throughput_vs_mpl(self, shared_mpl_study):
        assert_shape(fig7(BENCH_PLAN, study=shared_mpl_study))

    def test_fig8_inconsistent_operations_vs_mpl(self, shared_mpl_study):
        assert_shape(fig8(BENCH_PLAN, study=shared_mpl_study))
        # Under SR semantics the counter must be structurally zero.
        zero_runs = shared_mpl_study["zero-epsilon"]
        assert all(m.inconsistent_operations.mean == 0 for m in zero_runs.values())

    def test_fig9_aborts_vs_mpl(self, shared_mpl_study):
        assert_shape(fig9(BENCH_PLAN, study=shared_mpl_study))

    def test_fig10_total_operations_vs_mpl(self, shared_mpl_study):
        assert_shape(fig10(BENCH_PLAN, study=shared_mpl_study))
        # The waste reading: at MPL 8+, zero-epsilon spends strictly more
        # operations per committed transaction than high-epsilon.
        for mpl in (8, 9, 10):
            zero_opc = shared_mpl_study["zero-epsilon"][mpl].operations_per_commit.mean
            high_opc = shared_mpl_study["high-epsilon"][mpl].operations_per_commit.mean
            assert zero_opc > high_opc * 1.2, (
                f"expected wasted work at MPL {mpl}: zero={zero_opc:.1f} "
                f"high={high_opc:.1f}"
            )

    def test_fig11_throughput_vs_til(self):
        figure = fig11(BENCH_PLAN)
        assert_shape(figure)
        # The SR end of every curve is the floor.
        for series in figure.series:
            means = series.means()
            assert means[0] == min(means) or means[0] <= means[-1] * 0.75

    def test_fig12_throughput_vs_oil(self, shared_oil_study):
        assert_shape(fig12(BENCH_PLAN, study=shared_oil_study))

    def test_fig13_operations_per_transaction_vs_oil(self, shared_oil_study):
        assert_shape(fig13(BENCH_PLAN, study=shared_oil_study))


class TestExtensions:
    def test_hierarchy_strictness_tradeoff(self):
        study = hierarchy_study(BENCH_PLAN)
        flat = study["flat (no groups)"]
        loose = study["loose groups"]
        tight = study["tight groups"]
        # Loose hierarchical limits are free.
        assert loose.throughput.mean >= flat.throughput.mean * 0.93
        # Tight ones bind: fewer inconsistent admissions, lower throughput.
        assert (
            tight.inconsistent_operations.mean
            < flat.inconsistent_operations.mean * 0.75
        )
        assert tight.throughput.mean < flat.throughput.mean
        assert tight.aborts.mean > flat.aborts.mean

    def test_mvto_vs_esr(self):
        """MVTO returns the old version to a late reader; ESR returns the
        current value and only measures the old one (paper §5.1)."""
        sr = _run(protocol="sr", til=0.0, tel=0.0)
        esr = _run(protocol="esr", til=100_000.0, tel=10_000.0)
        mvto = _run(protocol="mvto", til=0.0, tel=0.0)
        # MVTO rides with high-epsilon ESR and beats SR decisively.
        assert 0.8 <= mvto.throughput / esr.throughput <= 1.2
        assert mvto.throughput > sr.throughput * 1.5
        # MVTO is serializable: it admits no inconsistent operation, ever.
        assert mvto.inconsistent_operations == 0
        # MVTO queries never abort; its few aborts are update-side rejections.
        assert mvto.aborts < sr.aborts

    def test_tso_vs_2pl_divergence_control(self):
        """ESR over timestamp ordering against ESR over strict 2PL (the
        paper's reference [21]) on the identical workload."""
        tso_sr = _run(protocol="sr", til=0.0, tel=0.0)
        tso_esr = _run(protocol="esr", til=100_000.0, tel=10_000.0)
        twopl_sr = _run(protocol="2pl-sr", til=0.0, tel=0.0)
        twopl_esr = _run(protocol="2pl", til=100_000.0, tel=10_000.0)
        # ESR defeats the contention on either substrate.
        assert tso_esr.throughput > tso_sr.throughput * 1.5
        assert twopl_esr.throughput > twopl_sr.throughput * 1.3
        # The two ESR engines land in the same ballpark.
        assert 0.75 <= twopl_esr.throughput / tso_esr.throughput <= 1.25
        # Blocking beats abort-restart for the SR baselines (reference [1]).
        assert twopl_sr.throughput >= tso_sr.throughput * 0.95
        # Deadlocks exist only under 2PL; TSO's age-ordered waits are acyclic.
        assert tso_sr.metrics.aborts_by_reason.get("deadlock", 0) == 0
        assert tso_esr.metrics.aborts_by_reason.get("deadlock", 0) == 0


class TestAblations:
    def test_version_window_sensitivity(self):
        """A window of 1 keeps only the newest committed write, so the
        proper value collapses towards the present value and the measured
        import shrinks: the under-charging the paper's 20 avoids."""
        imports = {
            window: _run(
                mpl=6, til=100_000.0, tel=10_000.0, version_window=window
            ).metrics.total_imported
            for window in (1, 20)
        }
        assert imports[1] < imports[20] * 0.5

    def test_hierarchy_depth_charges_alike(self):
        """A three-level group tree with loose limits charges exactly
        what a flat transaction limit does."""
        flat_catalog = GroupCatalog()
        deep_catalog = GroupCatalog()
        deep_catalog.add_group("l1")
        deep_catalog.add_group("l2", parent="l1")
        deep_catalog.add_group("l3", parent="l2")
        for object_id in range(64):
            deep_catalog.assign(object_id, "l3")

        def admit(catalog, limits):
            ledger = HierarchyLedger(catalog, 1e12, limits)
            for object_id in range(64):
                ledger.check_and_charge(object_id, 1.0)
            return ledger.total

        flat_total = admit(flat_catalog, None)
        deep_total = admit(deep_catalog, {"l1": 1e12, "l2": 1e12, "l3": 1e12})
        assert flat_total == deep_total == 64.0
