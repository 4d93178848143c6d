"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands::

    repro table1                          print the bound-levels table
    repro figure fig7 [--fast] [...]      regenerate one paper figure
    repro report [--out EXPERIMENTS.md]   regenerate all figures to markdown
    repro sweep --mpl 4 --til 1e5 ...     one simulation run, metrics printed
    repro sweep ... --profile             same, under cProfile + perf counters
    repro gen-workload out.trace ...      write a client trace file
    repro serve [--async] [--port N] ...  start the networked prototype
    repro run-trace out.trace --port N    replay a trace against a server
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

from repro.core.bounds import level_by_name
from repro.engine.api import PROTOCOLS
from repro.experiments.config import FAST_PLAN, PAPER_PLAN, MeasurementPlan, bounds_table
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import format_table, render_figure
from repro.sim.system import SimulationConfig, run_simulation
from repro.workload.generator import WorkloadGenerator, build_database
from repro.workload.spec import PAPER_WORKLOAD
from repro.workload.trace import read_trace, write_trace

__all__ = ["main"]


def _plan_from_args(args: argparse.Namespace) -> MeasurementPlan:
    plan = FAST_PLAN if args.fast else PAPER_PLAN
    overrides = {}
    if args.duration is not None:
        overrides["duration_ms"] = args.duration
        if plan.warmup_ms >= args.duration:
            overrides["warmup_ms"] = args.duration / 10.0
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if getattr(args, "workers", None) is not None:
        overrides["max_workers"] = args.workers
    if getattr(args, "cell_timeout", None) is not None:
        overrides["cell_timeout_s"] = args.cell_timeout
    if overrides:
        from dataclasses import replace

        plan = replace(plan, **overrides)
    return plan


def _cell_progress_printer():
    """A per-cell progress callback printing one line as each cell lands."""

    def show(cell_result, done: int, total: int) -> None:
        config = cell_result.cell.config
        if cell_result.ok:
            status = f"{cell_result.wall_s:6.2f}s"
        else:
            status = f"FAILED ({cell_result.error})"
        retried = "  (retried)" if cell_result.retried else ""
        print(
            f"  [{done}/{total}] mpl={config.mpl} til={config.til:g} "
            f"tel={config.tel:g} seed={cell_result.cell.seed}  "
            f"{status}{retried}",
            flush=True,
        )

    return show


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = [(r["level"], f"{r['TIL']:,.0f}", f"{r['TEL']:,.0f}") for r in bounds_table()]
    print(format_table(["level", "TIL", "TEL"], rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in ALL_FIGURES:
        print(
            f"unknown figure {args.name!r}; choose from "
            f"{', '.join(sorted(ALL_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    plan = _plan_from_args(args)
    started = time.time()
    progress = None if args.quiet else _cell_progress_printer()
    figure = ALL_FIGURES[args.name](plan, progress=progress)
    print(render_figure(figure, chart=not args.no_chart))
    print(f"\n({time.time() - started:.1f}s wall, {plan.max_workers} worker(s))")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reportgen import generate_experiments_markdown

    plan = _plan_from_args(args)
    cell_progress = None if args.quiet else _cell_progress_printer()
    text = generate_experiments_markdown(
        plan, progress=print, cell_progress=cell_progress
    )
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.level is not None:
        level = level_by_name(args.level)
        til, tel = level.til, level.tel
    else:
        til, tel = args.til, args.tel
    duration = args.duration or 30_000.0
    warmup = args.warmup if args.warmup < duration else duration / 10.0
    config = SimulationConfig(
        mpl=args.mpl,
        til=til,
        tel=tel,
        oil=args.oil,
        oel=args.oel,
        protocol=args.protocol,
        shards=args.shards,
        duration_ms=duration,
        warmup_ms=warmup,
        seed=args.seed,
    )
    if args.profile:
        from repro.perf import counters, profile_call

        counters.reset()
        result, report = profile_call(
            lambda: run_simulation(config), top_n=args.profile_top
        )
        print(report)
        print("perf counters:")
        print(counters.format_table())
        print()
    else:
        result = run_simulation(config)
    m = result.metrics
    rows = [
        ("throughput (tx/s)", f"{result.throughput:.2f}"),
        ("commits (query/update)", f"{m.commits_query}/{m.commits_update}"),
        ("aborts", str(m.aborts)),
        ("aborts by reason", str(dict(m.aborts_by_reason))),
        ("inconsistent ops", str(m.inconsistent_operations)),
        ("by case", str(dict(m.inconsistent_by_case))),
        ("total operations", str(m.total_operations)),
        ("ops per commit", f"{m.operations_per_commit:.2f}"),
        ("waits", str(m.waits)),
        ("server utilisation", f"{result.server_utilisation:.2f}"),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_gen_workload(args: argparse.Namespace) -> int:
    generator = WorkloadGenerator(PAPER_WORKLOAD, seed=args.seed)
    programs = generator.generate_mix(args.count, args.til, args.tel)
    header = (
        f"generated workload: count={args.count} til={args.til:g} "
        f"tel={args.tel:g} seed={args.seed}"
    )
    written = write_trace(args.out, programs, header=header)
    print(f"wrote {written} transactions to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.database import Database
    from repro.net.server import WAIT_TIMEOUT_SECONDS, TransactionServer

    if args.startup:
        database = Database.from_startup_file(args.startup)
    else:
        database = build_database(PAPER_WORKLOAD, seed=args.seed)
    wait_timeout = (
        args.wait_timeout if args.wait_timeout is not None else WAIT_TIMEOUT_SECONDS
    )
    options = dict(
        protocol=args.protocol,
        wait_timeout=wait_timeout,
        snapshot_cache=args.snapshot_cache,
        shards=args.shards,
        processes=args.process_shards,
        record_history=args.record_history,
    )
    if args.use_async:
        from repro.net.aioserver import AsyncTransactionServer

        server = AsyncTransactionServer(database, **options)
        server.start(args.host, args.port)
        close, suffix = server.close, " (selectors)"
    else:
        server = TransactionServer(database, (args.host, args.port), **options)
        close, suffix = server.server_close, ""
    _report_process_mode(server.manager)
    print(f"serving {len(database)} objects on {args.host}:{server.port}{suffix}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        _save_history(args, server.history)
        close()
    return 0


def _save_history(args: argparse.Namespace, history_of) -> None:
    """Write the server's recorded history on shutdown, if asked."""
    if not args.history_out:
        return
    if not args.record_history:
        print(
            "--history-out needs --record-history; nothing recorded",
            file=sys.stderr,
        )
        return
    log = history_of()
    log.save(args.history_out)
    print(f"wrote {len(log)} history events to {args.history_out}")


def _report_process_mode(manager: object) -> None:
    """Tell the operator whether --process-shards actually forked."""
    degraded = getattr(manager, "process_degraded", None)
    pids = getattr(manager, "worker_pids", tuple)()
    if degraded is not None:
        print(f"process sharding degraded to threads ({degraded})")
    elif pids:
        listing = ", ".join(str(pid) for pid in pids)
        print(f"process sharding active (worker pids: {listing})")


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import check_log, render_report
    from repro.engine.history import HistoryLog

    serializability = {"auto": None, "on": True, "off": False}[
        args.serializability
    ]
    results = []
    for path in args.histories:
        log = HistoryLog.load(path)
        results.append(
            check_log(
                log,
                name=os.path.basename(path),
                serializability=serializability,
            )
        )
    report = render_report(
        results, generated=f"repro check {' '.join(args.histories)}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report)
        print(f"wrote report to {args.out}")
    else:
        print(report, end="")
    return 0 if all(result.ok for result in results) else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.check import ChaosConfig, render_report, run_chaos

    config = ChaosConfig(
        clients=args.clients,
        transactions_per_client=args.transactions,
        objects=args.objects,
        protocol=args.protocol,
        server="async" if args.use_async else "threaded",
        shards=args.shards,
        # A kill run needs real worker processes even on a small host.
        processes=(
            "force"
            if args.process_shards and args.kill_workers
            else args.process_shards
        ),
        kill_workers=args.kill_workers,
        disconnect_rate=args.disconnect_rate,
        delay_rate=args.delay_rate,
        seed=args.seed,
    )
    report = run_chaos(config)
    print(
        f"chaos: {report.commits} commits, {report.aborts} aborts, "
        f"{report.disconnects} disconnects, {report.kills} worker kills, "
        f"{report.delayed_frames} delayed frames, {report.bursts} bursts "
        f"over {len(report.history)} recorded events"
    )
    for error in report.errors:
        print(f"harness error: {error}", file=sys.stderr)
    rendered = render_report(
        [report.check],
        title="Chaos History Conformance",
        generated=f"repro chaos --seed {args.seed}",
    )
    if args.history_out:
        report.history.save(args.history_out)
        print(f"wrote history to {args.history_out}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(rendered)
        print(f"wrote report to {args.out}")
    else:
        print(rendered, end="")
    return 0 if report.ok else 1


def _cmd_run_trace(args: argparse.Namespace) -> int:
    from repro.net.client import RemoteConnection

    programs = read_trace(args.trace)
    started = time.time()
    commits = 0
    restarts = 0
    with RemoteConnection(args.host, args.port, site=args.site) as connection:
        for program in programs:
            result, attempts = connection.run_program(program)
            commits += 1
            restarts += attempts
            for line in result.outputs:
                print(line)
    elapsed = time.time() - started
    print(
        f"committed {commits} transactions ({restarts} restarts) "
        f"in {elapsed:.2f}s — {commits / elapsed:.1f} tx/s"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Epsilon serializability with hierarchical inconsistency "
        "bounds (ICDE 1993 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the section 7 bound-levels table")

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("name", help="fig7 .. fig13")
    fig.add_argument("--fast", action="store_true", help="short measurement plan")
    fig.add_argument("--duration", type=float, help="simulated ms per run")
    fig.add_argument("--reps", type=int, help="repetitions per point")
    fig.add_argument("--no-chart", action="store_true", help="table only")
    fig.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count(),
        help="worker processes for repetition cells (default: all cores)",
    )
    fig.add_argument(
        "--cell-timeout",
        type=float,
        help="per-cell wall-clock timeout in seconds (default: none)",
    )
    fig.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    rep.add_argument("--out", default="EXPERIMENTS.md")
    rep.add_argument("--fast", action="store_true")
    rep.add_argument("--duration", type=float)
    rep.add_argument("--reps", type=int)
    rep.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count(),
        help="worker processes for repetition cells (default: all cores)",
    )
    rep.add_argument(
        "--cell-timeout",
        type=float,
        help="per-cell wall-clock timeout in seconds (default: none)",
    )
    rep.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    sweep = sub.add_parser("sweep", help="run one simulation configuration")
    sweep.add_argument("--mpl", type=int, default=4)
    sweep.add_argument("--level", help="zero|low|medium|high (sets TIL/TEL)")
    sweep.add_argument("--til", type=float, default=0.0)
    sweep.add_argument("--tel", type=float, default=0.0)
    sweep.add_argument("--oil", type=float, default=math.inf)
    sweep.add_argument("--oel", type=float, default=math.inf)
    sweep.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        default="esr",
    )
    sweep.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the engine across N per-shard critical sections",
    )
    sweep.add_argument("--duration", type=float)
    sweep.add_argument("--warmup", type=float, default=3_000.0)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile; print top entries and perf counters",
    )
    sweep.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="cumulative-time entries to print with --profile (default 25)",
    )

    gen = sub.add_parser("gen-workload", help="write a client trace file")
    gen.add_argument("out")
    gen.add_argument("--count", type=int, default=100)
    gen.add_argument("--til", type=float, default=100_000.0)
    gen.add_argument("--tel", type=float, default=10_000.0)
    gen.add_argument("--seed", type=int, default=1)

    serve = sub.add_parser("serve", help="start the networked prototype")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7453)
    serve.add_argument("--protocol", choices=PROTOCOLS, default="esr")
    serve.add_argument("--startup", help="database startup file")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the engine across N per-shard critical sections "
        "(per-shard locks replace the global engine mutex)",
    )
    serve.add_argument(
        "--process-shards",
        action="store_true",
        help="run each shard's engine in its own worker process (needs "
        "--shards > 1); degrades to threads on one core or without fork",
    )
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve with the non-blocking pipelined server instead of the "
        "thread-per-connection server",
    )
    serve.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        help="seconds a strict-ordering wait may park before the server "
        "aborts the transaction (default 30)",
    )
    serve.add_argument(
        "--snapshot-cache",
        action="store_true",
        help="serve bounded-staleness query reads from the epsilon "
        "snapshot cache, outside the engine critical section (ESR only)",
    )
    serve.add_argument(
        "--record-history",
        action="store_true",
        help="record a full event history (begin/read/write/wait/reject/"
        "commit/abort) the offline checker can replay",
    )
    serve.add_argument(
        "--history-out",
        default=None,
        help="write the recorded history to this file on shutdown "
        "(needs --record-history)",
    )

    check = sub.add_parser(
        "check",
        help="replay recorded histories through the conformance checker",
    )
    check.add_argument(
        "histories", nargs="+", help="history files (repro serve --history-out)"
    )
    check.add_argument(
        "--serializability",
        choices=("auto", "on", "off"),
        default="auto",
        help="epsilon-0 serialization-graph check: auto runs it exactly "
        "when every transaction declared zero bounds (default auto)",
    )
    check.add_argument(
        "--out", default=None, help="write the markdown report here"
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injecting schedule against a live server and "
        "check the recorded history",
    )
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument(
        "--transactions",
        type=int,
        default=25,
        help="transactions per client (default 25)",
    )
    chaos.add_argument("--objects", type=int, default=32)
    chaos.add_argument("--protocol", choices=PROTOCOLS, default="esr")
    chaos.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="target the non-blocking pipelined server (default: threaded)",
    )
    chaos.add_argument("--shards", type=int, default=1)
    chaos.add_argument(
        "--process-shards",
        action="store_true",
        help="run shards in worker processes (enables --kill-workers)",
    )
    chaos.add_argument(
        "--kill-workers",
        type=int,
        default=0,
        help="SIGKILL this many shard workers mid-run (process shards)",
    )
    chaos.add_argument("--disconnect-rate", type=float, default=0.05)
    chaos.add_argument("--delay-rate", type=float, default=0.1)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--history-out", default=None, help="save the recorded history here"
    )
    chaos.add_argument(
        "--out", default=None, help="write the markdown report here"
    )

    run = sub.add_parser("run-trace", help="replay a trace against a server")
    run.add_argument("trace")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=7453)
    run.add_argument("--site", type=int, default=1)

    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "figure": _cmd_figure,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "gen-workload": _cmd_gen_workload,
    "serve": _cmd_serve,
    "check": _cmd_check,
    "chaos": _cmd_chaos,
    "run-trace": _cmd_run_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
