"""Per-layer metrics, derived the same way for every workload.

Counts come from ``engine.metrics`` (a ``MetricsSnapshot``),
``repro.perf.counters`` and the recorded history; times come from spans
(:mod:`spans`) and, for the wire workloads, the stage replay.
"""

from __future__ import annotations

from common import latency_summary, percentile
from spans import Tracer, mean_us
from stage_replay import stage_replay
from wire import OPS, Driver

ENGINE_CALLS = ("begin", "read", "write", "commit")


def history_stats(events) -> dict[str, float]:
    """Commits, wasted work and rejections by level, from a history."""
    ops: dict[int, int] = {}
    committed: set[int] = set()
    levels = {"object": 0, "group": 0, "transaction": 0}
    for event in events:
        kind = event.kind
        if kind in ("read", "write"):
            ops[event.txn] = ops.get(event.txn, 0) + 1
        elif kind == "commit":
            committed.add(event.txn)
        elif kind == "reject" and event.violated_level is not None:
            level = event.violated_level
            if level == "<transaction>":
                level = "transaction"
            elif level != "object":
                level = "group"
            levels[level] += 1
    total = sum(ops.values())
    wasted = sum(n for txn, n in ops.items() if txn not in committed)
    return {
        "events": len(events),
        "commits": len(committed),
        "wasted_ops_share": wasted / total if total else 0.0,
        "rejections.object": levels["object"],
        "rejections.group": levels["group"],
        "rejections.transaction": levels["transaction"],
    }


def engine_metrics(values: dict, snap, walks: int) -> None:
    """The paper's ratios, from an engine's ``MetricsSnapshot``."""
    commits = max(snap.commits, 1)
    inconsistent = max(snap.inconsistent_operations, 1)
    cases = snap.inconsistent_by_case
    values.update(
        {
            "engine.manager.restarts_per_commit": snap.aborts / commits,
            "engine.manager.waits_per_commit": snap.waits / commits,
            "engine.manager.inconsistent_ops_per_commit": (
                snap.inconsistent_operations / commits
            ),
            "engine.manager.case1_share": (
                cases.get("late-read-committed", 0) / inconsistent
            ),
            "engine.manager.case2_share": (
                cases.get("read-uncommitted", 0) / inconsistent
            ),
            "engine.manager.case3_share": cases.get("late-write", 0) / inconsistent,
            "core.hierarchy.walks_per_commit": walks / commits,
        }
    )


def span_metrics(values: dict, totals: dict) -> None:
    for call in ENGINE_CALLS:
        values[f"engine.manager.{call}_us"] = mean_us(
            totals, f"engine.manager.{call}"
        )
    values["core.hierarchy.charge_us"] = mean_us(totals, "core.hierarchy.admit")


def pool_metrics(values: dict, pools) -> None:
    """What the layers that only run in set-up cost per program."""
    values["workload.generate_us_per_program"] = sum(
        p.generate_us_per_program for p in pools
    ) / len(pools)
    values["lang.compile_us_per_program"] = sum(
        p.compile_us_per_program for p in pools
    ) / len(pools)


def wire_layer_metrics(
    values: dict, codec: str, tracer: Tracer, driver: Driver, window,
    stats: dict, database,
) -> None:
    """Per-layer numbers both wire workloads derive the same way."""
    tally = window.tally
    totals = tracer.totals()
    round_trips: dict[str, list[float]] = {op: [] for op in OPS}
    for _sid, _parent, name, _program, start, end in tracer.spans:
        round_trips[name.removeprefix("client.")].append((end - start) / 1e3)
    for op, samples in round_trips.items():
        if samples:
            values[f"net.aioserver.rtt_p50_us.{op}"] = percentile(sorted(samples), 50)
    replay = stage_replay(driver.captured, driver.begun, codec == "binary", database)
    if replay:
        values[f"net.protocol.{codec}.decode_us"] = replay["decode_us"]
        values[f"net.protocol.{codec}.encode_us"] = replay["encode_us"]
        values["net.requests.dispatch_us"] = replay["dispatch_us"]
        spans = sum(count for count, _t, _s in totals.values())
        mean_rtt = sum(t for _c, t, _s in totals.values()) / max(spans, 1)
        serving = replay["decode_us"] + replay["dispatch_us"] + replay["encode_us"]
        values["net.aioserver.residual_us"] = mean_rtt - serving - replay["engine_us"]
        server_us = window.server_cpu * 1e6
        values["engine.self_cpu_share"] = (
            replay["engine_us"] * tally.requests / server_us
        )
        values["net.self_cpu_share"] = serving * tally.requests / server_us
        # The rest of the server's CPU: the asyncio server itself — the
        # event loop, socket reads and the flush — and the kernel under it.
        values["net.aioserver.residual_cpu_share"] = (
            1.0 - values["engine.self_cpu_share"] - values["net.self_cpu_share"]
        )
        span_metrics(values, replay["totals"])
    values[f"net.protocol.{codec}.bytes_per_req"] = (
        tally.bytes_sent + tally.bytes_received
    ) / max(tally.requests, 1)
    perf = stats["perf"]
    values["net.aioserver.batch_occupancy"] = perf["net_requests_batched"] / max(
        perf["net_batches_drained"], 1
    )
    values["net.aioserver.flushes_per_req"] = perf["net_flushes_coalesced"] / max(
        perf["net_requests_batched"], 1
    )
    values["net.aioserver.backpressure_stalls"] = perf["net_backpressure_stalls"]
    summary = latency_summary(tally.latencies_ms)
    values["client.cpu_share"] = window.client_cpu / window.wall
    values["client.txn_p99_ms"] = summary["p99"]
    values["client.txn_max_ms"] = summary["max"]
    values["client.samples"] = summary["samples"]
    if tally.late_ms:
        values["client.late_p90_ms"] = percentile(sorted(tally.late_ms), 90)
