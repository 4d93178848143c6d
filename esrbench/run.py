"""esrbench: the repository's benchmark, one workload per invocation.

    python3 esrbench/run.py --workload engine-replay --seed 3 --seconds 20 --trace 0

Prints progress to stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
is the measured run (every end-to-end metric); ``--trace 1`` is the
traced run (every per-layer metric).  Without ``--workload`` every
workload runs, untraced and then traced.  See ``esrbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

import common

#: Workload name -> module.  Each module has ``setup(seed, traced)``,
#: ``teardown(state)``, ``run(state, seconds, setup_s)`` and
#: ``run_traced(state, seconds, setup_s)``.
WORKLOADS = {
    "wire-esr-mix": "wire_esr_mix",
    "wire-open-query": "wire_open_query",
    "engine-replay": "engine_replay",
    "des-figures": "des_figures",
}


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    process_started = time.perf_counter()
    module = importlib.import_module(WORKLOADS[name])
    import repro  # noqa: F401  (import cost is part of set-up)

    import_s = time.perf_counter() - process_started
    state, setup_median = common.timed_setups(
        lambda: module.setup(seed, trace), module.teardown
    )
    setup_s = import_s + setup_median
    try:
        runner = module.run_traced if trace else module.run
        values, attempted, failed, problems, info = runner(state, seconds, setup_s)
    finally:
        module.teardown(state)
    for problem in problems:
        print(f"esrbench: {name}: FAILED CHECK: {problem}", file=sys.stderr)
    info["host"] = common.provenance()
    print(common.INFO_PREFIX + json.dumps(info, default=str), file=sys.stderr)
    correct = not problems
    if not correct:
        failed = max(failed, 1)
    line = common.result_line(spec, trace, values, max(attempted, 1), failed, correct)
    return line


def print_table(name: str, trace: bool, result: dict) -> None:
    kind = "traced" if trace else "measured"
    print(
        f"## {name} ({kind}): correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>16.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process, and with it the
        # layout of every dict and set of strings: the same code runs a
        # few percent faster or slower from one process to the next.
        # Start again with it fixed; the server child inherits it.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    common.bootstrap()
    spec = common.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is not None:
        line = run_one(args.workload, args.seed, seconds, bool(args.trace), spec)
        print(line)
        return 0
    print(f"# esrbench seed={args.seed} host={json.dumps(common.provenance())}")
    for entry in spec["workloads"]:
        for trace in (False, True):
            result, _info = common.invoke(entry["name"], args.seed, seconds, trace)
            print_table(entry["name"], trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
