"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify the knobs the
implementation had to pick:

* **version window** — the paper stores the last 20 committed writes per
  object for proper-value lookup.  A window of 1 degrades the proper
  value towards the present value (divergences collapse to ~0, silently
  under-charging); the ablation shows the measured import falling as the
  window shrinks, which is why 20 matters.
* **hierarchy depth** — group limits add per-operation work; this times
  the admission path at depth 0 (transaction level only) vs depth 3.
"""

from __future__ import annotations

from conftest import BENCH_PLAN

from repro.core.hierarchy import GroupCatalog, HierarchyLedger
from repro.experiments.report import format_table
from repro.sim.system import SimulationConfig, run_simulation


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        mpl=6,
        til=100_000.0,
        tel=10_000.0,
        duration_ms=BENCH_PLAN.duration_ms,
        warmup_ms=BENCH_PLAN.warmup_ms,
        seed=1,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def test_version_window_sensitivity(benchmark):
    """Shrinking the proper-value window under-measures imports."""
    rows = []
    imports = {}
    for window in (1, 5, 20):
        result = run_simulation(_config(mpl=6, version_window=window))
        imports[window] = result.metrics.total_imported
        rows.append(
            (
                window,
                f"{result.throughput:.2f}",
                f"{result.metrics.total_imported:.0f}",
                result.inconsistent_operations,
            )
        )
    benchmark.pedantic(
        run_simulation, args=(_config(version_window=20),), rounds=2
    )
    print()
    print(
        format_table(
            ["window", "throughput", "total imported", "inconsistent ops"],
            rows,
        )
    )
    # A window of 1 keeps only the newest committed write, so the proper
    # value collapses towards the present value and the measured import
    # shrinks dramatically — the under-charging the paper's 20 avoids.
    assert imports[1] < imports[20] * 0.5


def test_hierarchy_depth_overhead(benchmark):
    """Admission cost of deep group trees vs a flat transaction limit."""
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
    deep_total = admit(
        deep_catalog, {"l1": 1e12, "l2": 1e12, "l3": 1e12}
    )
    assert flat_total == deep_total == 64.0
    benchmark(
        lambda: admit(deep_catalog, {"l1": 1e12, "l2": 1e12, "l3": 1e12})
    )
