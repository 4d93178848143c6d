"""``des-figures``: the simulator grid a figure reproduction waits on.

A fixed grid of ``run_simulation`` cells — the paper's four epsilon
levels × MPL 2/6/10, plus one cell per level whose queries declare group
limits over the hot-set hierarchy — is run pass after pass until the time
is up.  ``repro.sim.des`` and ``repro.sim.system`` dominate; this is the
only workload a kernel change can move.

The grid is the paper's, so the cells do not change with ``--seed``: the
seed sets the order they run in.  Every cell is then the same computation
in every pass of every run, and its counters must equal the committed
goldens exactly, whatever the seed.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field

from common import (
    BENCH_DIR,
    OUT_DIR,
    end_to_end,
    peak_rss_mb,
    percentile,
    slice_metrics,
)
from layers import engine_metrics, history_stats, span_metrics
from spans import Tracer, instrument, self_us

MPLS = (2, 6, 10)
#: The simulation seed of every cell.
GRID_SEED = 1993
#: Simulated milliseconds per cell: long enough for the paper's curve
#: shape to show, short enough that a run holds several whole passes.
DURATION_MS = 30_000.0
WARMUP_MS = 5_000.0


def grid(seed: int, record_history: bool = False) -> list:
    """``(name, config)`` for every cell, in the order ``seed`` gives."""
    from repro.core.bounds import STANDARD_LEVELS
    from repro.sim import SimulationConfig

    cells = []
    for level in STANDARD_LEVELS:
        common = dict(
            til=level.til,
            tel=level.tel,
            duration_ms=DURATION_MS,
            warmup_ms=WARMUP_MS,
            seed=GRID_SEED,
            record_history=record_history,
        )
        for mpl in MPLS:
            cells.append((f"{level.name}/mpl{mpl}", SimulationConfig(mpl=mpl, **common)))
        limits = (("hot", level.til * 0.6),) + tuple(
            (f"part{i + 1}", level.til * 0.2) for i in range(10)
        )
        cells.append(
            (
                f"{level.name}/mpl10-groups",
                SimulationConfig(mpl=10, query_group_limits=limits, **common),
            )
        )
    random.Random(seed).shuffle(cells)
    return cells


def cell_counts(result) -> dict[str, int]:
    return {
        "commits": result.commits,
        "aborts": result.aborts,
        "inconsistent_ops": result.inconsistent_operations,
    }


@dataclass
class State:
    seed: int
    cells: list


def setup(seed: int, traced: bool = False) -> State:
    from repro.sim import SimulationConfig, run_simulation

    # A short cell first, so the imports and every lazily built table the
    # simulator needs exist before the window opens.
    run_simulation(
        SimulationConfig(mpl=4, til=50_000, tel=5_000, duration_ms=10_000.0,
                         warmup_ms=1_000.0, seed=GRID_SEED)
    )
    return State(seed, grid(seed))


def teardown(state: State) -> None:
    state.cells.clear()


@dataclass
class Phase:
    wall: float = 0.0
    cpu: float = 0.0
    passes: list[dict[str, dict[str, int]]] = field(default_factory=list)
    #: One per pass: the end-to-end metrics of that pass alone.
    slices: list[dict[str, float]] = field(default_factory=list)
    cell_walls: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # last pass only
    perf: dict = field(default_factory=dict)

    @property
    def commits(self) -> int:
        return sum(c["commits"] for p in self.passes for c in p.values())

    @property
    def rate(self) -> float:
        return end_to_end(self.slices)["commit_txn_s"]


def run_phase(cells, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Whole passes over the grid until ``seconds`` have gone by.

    Only whole passes count: cells differ in commits per wall second, so
    a partial pass would tilt the rate by wherever it happened to stop.
    A pass is also the run's slice.  Latency here is the wall time the
    simulator spends per simulated commit, over the cells of the pass.
    Between cells the collector runs, outside the timing, so that peak
    RSS does not hang on where a generation-2 collection happened to fall.
    """
    from repro import perf
    from repro.sim import run_simulation

    phase = Phase()
    perf.counters.reset()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        counts = {}
        phase.results = []
        pass_wall = pass_cpu = 0.0
        ms_per_commit = []
        for name, config in cells:
            token = tracer.open("sim.system.run_simulation") if tracer else None
            started, cpu_started = time.perf_counter(), time.process_time()
            result = run_simulation(config)
            elapsed = time.perf_counter() - started
            pass_cpu += time.process_time() - cpu_started
            if tracer:
                tracer.close(token)
            counts[name] = cell_counts(result)
            phase.results.append(result)
            phase.cell_walls.append(elapsed)
            pass_wall += elapsed
            ms_per_commit.append(elapsed * 1e3 / max(result.commits, 1))
            gc.collect()
        phase.passes.append(counts)
        phase.slices.append(
            slice_metrics(
                sum(c["commits"] for c in counts.values()),
                pass_wall,
                pass_cpu,
                ms_per_commit,
            )
        )
        if time.perf_counter() - wall0 >= seconds:
            break
    phase.wall = time.perf_counter() - wall0
    phase.cpu = time.process_time() - cpu0
    phase.perf = perf.counters.snapshot()
    return phase


EXPECTED = BENCH_DIR / "expected" / "des-figures.json"


def check_passes(phase: Phase, problems: list[str]) -> None:
    first = phase.passes[0]
    if any(counts != first for counts in phase.passes[1:]):
        problems.append("per-cell counters differ between passes of one run")
    with open(EXPECTED, encoding="utf-8") as fp:
        if json.load(fp) != first:
            problems.append(f"per-cell counters differ from {EXPECTED.name}")
    # The paper's headline: relaxing the bounds buys throughput at MPL 10.
    if first["high-epsilon/mpl10"]["commits"] < first["zero-epsilon/mpl10"]["commits"]:
        problems.append("high-epsilon commits fewer than zero-epsilon at MPL 10")
    for name, counts in first.items():
        if name.startswith("zero-epsilon/") and counts["inconsistent_ops"]:
            problems.append(f"{name}: inconsistent operations admitted at epsilon 0")


def write_expected() -> None:
    phase = run_phase(grid(0), 0.0)
    EXPECTED.parent.mkdir(exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as fp:
        json.dump(phase.passes[0], fp, indent=1, sort_keys=True)
        fp.write("\n")


def run(state: State, seconds: float, setup_s: float):
    phase = run_phase(state.cells, seconds)
    problems: list[str] = []
    check_passes(phase, problems)
    values = end_to_end(phase.slices)
    values["peak_rss_mb"] = peak_rss_mb()
    values["setup_s"] = setup_s
    info = {
        "samples": len(phase.cell_walls),
        "passes": len(phase.passes),
        "outcome_counts": phase.passes[0],
    }
    return values, phase.commits, 0, problems, info


def run_traced(state: State, seconds: float, setup_s: float):
    problems: list[str] = []
    plain = run_phase(state.cells, seconds * 0.4)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_phase(grid(state.seed, record_history=True), seconds * 0.4, tracer)
    check_passes(plain, problems)
    check_passes(traced, problems)

    values: dict[str, float] = {
        "trace_overhead_share": 1.0 - traced.rate / plain.rate
    }
    totals = tracer.totals()
    span_metrics(values, totals)
    cpu_us = traced.cpu * 1e6
    values["engine.self_cpu_share"] = (
        self_us(totals, "engine.manager.") + self_us(totals, "core.hierarchy.")
    ) / cpu_us
    values["sim.self_cpu_share"] = self_us(totals, "sim.") / cpu_us
    tracer.dump(OUT_DIR / f"trace-des-figures-{state.seed}.jsonl")

    counters = plain.perf
    pushes = counters["heap_pushes"] + counters["heap_pushes_avoided"]
    values["sim.des.events_per_s"] = counters["events_dispatched"] / plain.wall
    values["sim.des.events_per_commit"] = (
        counters["events_dispatched"] / plain.commits
    )
    values["sim.des.heap_push_share"] = counters["heap_pushes"] / max(pushes, 1)
    values["sim.system.cell_wall_s_p50"] = percentile(sorted(plain.cell_walls), 50)
    simulated_ms = len(plain.cell_walls) * DURATION_MS
    values["sim.system.sim_ms_per_wall_s"] = simulated_ms / plain.wall

    # The paper's ratios over the grid: the last untraced pass, summed.
    snaps = [result.metrics for result in plain.results]
    total = _sum_snapshots(snaps)
    engine_metrics(values, total, counters["ledger_walks"] // len(plain.passes))
    stats = [history_stats(r.history.events) for r in traced.results]
    ops_share = [s["wasted_ops_share"] for s in stats]
    values["engine.manager.wasted_ops_share"] = sum(ops_share) / len(ops_share)
    for level in ("object", "group", "transaction"):
        values[f"core.hierarchy.rejections.{level}"] = sum(
            s[f"rejections.{level}"] for s in stats
        )
    values["engine.history.events_per_commit"] = sum(
        s["events"] for s in stats
    ) / max(sum(s["commits"] for s in stats), 1)
    values["client.samples"] = len(plain.cell_walls)
    return values, plain.commits + traced.commits, 0, problems, {}


def _sum_snapshots(snaps):
    """Field-wise sum of ``MetricsSnapshot`` counters."""
    from collections import Counter
    from dataclasses import fields

    first = snaps[0]
    summed = {}
    for f in fields(first):
        parts = [getattr(s, f.name) for s in snaps]
        if isinstance(parts[0], dict):
            merged: Counter = Counter()
            for part in parts:
                merged.update(part)
            summed[f.name] = dict(merged)
        else:
            summed[f.name] = sum(parts)
    return type(first)(**summed)
