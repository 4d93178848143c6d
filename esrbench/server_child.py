"""The system under test for the wire workloads, in its own process.

    python3 esrbench/server_child.py '{"workload": "wire_esr_mix", "seed": 1}'

Builds the workload's database, starts ``repro.net.aioserver`` on a free
port and prints ``{"port": N}``.  Then answers one-word commands on stdin
with one JSON line each, until ``quit`` or end of input:

``stats``    perf counters, engine metrics and resource usage so far
``history``  statistics and ``repro.check`` verdict of the recorded
             history (only with ``"record_history": true``)
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import resource
import sys
import time

import common


def main() -> int:
    config = json.loads(sys.argv[1])
    if config.get("cpu") is not None:
        # Before any thread exists, so the server's loop thread inherits it.
        os.sched_setaffinity(0, {config["cpu"]})
    common.bootstrap()
    from repro import perf
    from repro.net.aioserver import serve_in_thread

    workload = importlib.import_module(config["workload"])
    record = bool(config.get("record_history"))
    server = serve_in_thread(
        workload.build_database(config["seed"]),
        protocol="esr",
        record_history=record,
        **workload.SERVER_OPTIONS,
    )
    perf.counters.reset()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "stats":
                usage = resource.getrusage(resource.RUSAGE_SELF)
                answer = {
                    "perf": perf.counters.snapshot(),
                    "metrics": dataclasses.asdict(server.manager.metrics.snapshot()),
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "peak_rss_mb": usage.ru_maxrss / 1024.0,
                    "loop": server.loop_implementation,
                }
            elif command == "history" and record:
                answer = history_report(server)
            else:
                answer = {"error": f"unknown command {command!r}"}
            print(json.dumps(answer), flush=True)
    finally:
        server.shutdown()
    return 0


def history_report(server) -> dict:
    from layers import history_stats
    from repro.check import check_log

    log = server.server.history()
    stats = history_stats(log.events)
    started = time.perf_counter()
    checked = check_log(log, name="wire")
    stats["check_seconds"] = time.perf_counter() - started
    stats["check_events"] = checked.events
    stats["violations"] = len(checked.violations)
    stats["label"] = checked.label
    return stats


if __name__ == "__main__":
    sys.exit(main())
