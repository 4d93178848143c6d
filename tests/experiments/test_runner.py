"""Estimates, confidence intervals, and the measurement runner."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import MeasurementPlan
from repro.experiments.runner import (
    Cell,
    Estimate,
    measure,
    measure_many,
    run_cells,
    shutdown_pool,
    student_t_90,
)
from repro.sim.system import RunResult, SimulationConfig, run_simulation
from repro.workload.spec import WorkloadSpec

TINY = WorkloadSpec(n_objects=40, hot_set_size=8, n_partitions=4)

TINY_PLAN = MeasurementPlan(
    duration_ms=2_000.0, warmup_ms=0.0, repetitions=3, workload=TINY
)


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    shutdown_pool()


class TestStudentT:
    def test_known_values(self):
        assert student_t_90(1) == pytest.approx(6.314)
        assert student_t_90(10) == pytest.approx(1.812)
        assert student_t_90(29) == pytest.approx(1.699)

    def test_large_sample_asymptote(self):
        assert student_t_90(500) == pytest.approx(1.645)

    def test_degenerate(self):
        import math

        assert math.isnan(student_t_90(0))


class TestEstimate:
    def test_single_sample_has_zero_width(self):
        estimate = Estimate.from_samples([42.0])
        assert estimate.mean == 42.0
        assert estimate.half_width == 0.0

    def test_identical_samples_have_zero_width(self):
        estimate = Estimate.from_samples([5.0, 5.0, 5.0])
        assert estimate.half_width == 0.0

    def test_known_interval(self):
        # n=3, mean=10, sample variance=1 -> hw = 2.920 * sqrt(1/3).
        estimate = Estimate.from_samples([9.0, 10.0, 11.0])
        assert estimate.mean == 10.0
        assert estimate.half_width == pytest.approx(2.920 / (3**0.5))

    def test_relative_half_width(self):
        estimate = Estimate.from_samples([9.0, 11.0])
        assert estimate.relative_half_width == estimate.half_width / 10.0

    def test_format(self):
        estimate = Estimate.from_samples([1.0, 2.0])
        assert "±" in f"{estimate:.1f}"


class TestMeasurementPlan:
    def test_seed_sequence(self):
        plan = MeasurementPlan(repetitions=3, base_seed=10)
        assert plan.seeds() == (10, 11, 12)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            MeasurementPlan(repetitions=0)
        with pytest.raises(ExperimentError):
            MeasurementPlan(duration_ms=1_000.0, warmup_ms=2_000.0)


class TestMeasure:
    def test_aggregates_repetitions(self):
        plan = MeasurementPlan(
            duration_ms=3_000.0,
            warmup_ms=300.0,
            repetitions=2,
            workload=TINY,
        )
        config = SimulationConfig(mpl=2, til=100_000.0, tel=10_000.0)
        measurement = measure(config, plan)
        assert len(measurement.runs) == 2
        assert measurement.throughput.mean > 0
        assert len(measurement.throughput.samples) == 2
        # The plan's workload overrode the config's default.
        assert measurement.config.workload is TINY

    def test_metric_lookup(self):
        plan = MeasurementPlan(
            duration_ms=2_000.0, warmup_ms=0.0, repetitions=1, workload=TINY
        )
        measurement = measure(SimulationConfig(mpl=1), plan)
        assert measurement.metric("throughput") is measurement.throughput
        with pytest.raises(AttributeError):
            measurement.metric("config")

    def test_progress_callback(self):
        plan = MeasurementPlan(
            duration_ms=2_000.0, warmup_ms=0.0, repetitions=2, workload=TINY
        )
        seen = []
        measure(SimulationConfig(mpl=1), plan, progress=seen.append)
        assert len(seen) == 2


class TestParallelExecution:
    """The process-pool backend: determinism, ordering, failure handling."""

    def test_estimates_identical_across_worker_counts(self):
        config = SimulationConfig(mpl=2, til=100_000.0, tel=10_000.0)
        serial = measure(config, TINY_PLAN, max_workers=1)
        parallel = measure(config, TINY_PLAN, max_workers=4)
        for name in (
            "throughput",
            "aborts",
            "inconsistent_operations",
            "total_operations",
            "operations_per_commit",
            "commits",
        ):
            assert serial.metric(name) == parallel.metric(name)

    def test_measure_many_identical_across_worker_counts(self):
        configs = [
            SimulationConfig(mpl=1, til=100_000.0, tel=10_000.0),
            SimulationConfig(mpl=2),
        ]
        serial = measure_many(configs, TINY_PLAN, max_workers=1)
        parallel = measure_many(configs, TINY_PLAN, max_workers=4)
        for s, p in zip(serial, parallel):
            assert s.config == p.config
            assert s.throughput == p.throughput
            assert s.aborts == p.aborts

    def test_run_cells_preserves_cell_order(self):
        cells = [
            Cell(config=SimulationConfig(
                mpl=1, workload=TINY, duration_ms=1_000.0, warmup_ms=0.0,
                seed=seed,
            ), seed=seed)
            for seed in (5, 3, 9, 1)
        ]
        results = run_cells(cells, max_workers=2)
        assert [r.cell.seed for r in results] == [5, 3, 9, 1]
        assert all(r.ok and r.wall_s > 0 for r in results)

    def test_progress_reports_every_cell(self):
        config = SimulationConfig(mpl=1, til=100_000.0, tel=10_000.0)
        seen = []
        measure_many(
            [config],
            TINY_PLAN,
            max_workers=2,
            progress=lambda cr, done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_all_cells_failing_raises(self, monkeypatch):
        def boom(config):
            raise RuntimeError("kaput")

        monkeypatch.setattr(
            "repro.experiments.runner.run_simulation", boom
        )
        with pytest.raises(ExperimentError, match="kaput"):
            measure(SimulationConfig(mpl=1), TINY_PLAN, max_workers=1)

    def test_partial_failure_drops_samples(self, monkeypatch):
        real = run_simulation

        def flaky(config):
            if config.seed == 1:
                raise RuntimeError("seed 1 refuses")
            return real(config)

        monkeypatch.setattr("repro.experiments.runner.run_simulation", flaky)
        measurement = measure(
            SimulationConfig(mpl=1), TINY_PLAN, max_workers=1
        )
        assert len(measurement.runs) == 2
        assert len(measurement.failed_cells) == 1
        assert measurement.failed_cells[0].cell.seed == 1
        assert "seed 1 refuses" in measurement.failed_cells[0].error

    def test_timeout_records_failed_cells(self):
        config = SimulationConfig(
            mpl=4, til=100_000.0, tel=10_000.0, duration_ms=120_000.0,
            warmup_ms=0.0,
        )
        cells = [Cell(config=config, seed=0), Cell(config=config, seed=0)]
        results = run_cells(cells, max_workers=2, timeout_s=0.001)
        assert all(not r.ok for r in results)
        assert all("timeout" in r.error for r in results)

    def test_config_and_result_pickle_roundtrip(self):
        config = SimulationConfig(
            mpl=2,
            til=100_000.0,
            tel=10_000.0,
            workload=TINY,
            duration_ms=1_000.0,
            warmup_ms=0.0,
        )
        assert pickle.loads(pickle.dumps(config)) == config
        result = run_simulation(config)
        restored = pickle.loads(pickle.dumps(result))
        assert isinstance(restored, RunResult)
        assert restored.commits == result.commits
        assert restored.config == config

    def test_shutdown_pool_is_idempotent(self):
        from repro.experiments import runner

        run_cells(
            [
                Cell(config=SimulationConfig(
                    mpl=1, workload=TINY, duration_ms=500.0, warmup_ms=0.0,
                ), seed=0)
                for _ in range(2)
            ],
            max_workers=2,
        )
        assert runner._POOL is not None
        shutdown_pool()
        assert runner._POOL is None
        shutdown_pool()  # second call is a no-op

    def test_clean_shutdown_joins_worker_processes(self):
        """The default teardown reaps the children, not just abandons them.

        ``shutdown_pool`` used to pass ``wait=False`` unconditionally, so
        a clean exit left the pool's worker processes running to race
        interpreter teardown; only the crash path may skip the join.
        """
        from repro.experiments import runner

        run_cells(
            [
                Cell(config=SimulationConfig(
                    mpl=1, workload=TINY, duration_ms=500.0, warmup_ms=0.0,
                ), seed=0)
                for _ in range(2)
            ],
            max_workers=2,
        )
        assert runner._POOL is not None
        workers = list(runner._POOL._processes.values())
        assert workers, "pool should have spawned workers"
        shutdown_pool()
        assert all(not worker.is_alive() for worker in workers)
