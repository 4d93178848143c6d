"""Shared plumbing: locating the program, statistics, the result line.

Nothing here imports ``repro`` at module level; :func:`bootstrap` puts the
checkout's ``src/`` on ``sys.path`` first, so the benchmark measures the
source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import compileall
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Traces and other run products; named in the root ``.gitignore``.
OUT_DIR = ROOT / ".esrbench_out"

#: A program is resubmitted at most this often before it counts as failed.
MAX_ATTEMPTS = 50


def bootstrap() -> None:
    """Make ``repro`` importable from this checkout, byte-compiled.

    Compiling first is the benchmark's build step: without it the first
    run in a fresh checkout pays for it inside ``setup_s``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"esrbench: no program to measure: {SRC / 'repro'} is missing"
        )
    compileall.compile_dir(str(SRC), quiet=2, workers=1)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def median(values: list[float]) -> float:
    return percentile(sorted(values), 50)


def latency_summary(samples_ms: list[float]) -> dict[str, float]:
    """p50/p90/p99/max and the sample count of one latency series."""
    ordered = sorted(samples_ms)
    return {
        "p50": percentile(ordered, 50),
        "p90": percentile(ordered, 90),
        "p99": percentile(ordered, 99),
        "max": ordered[-1],
        "samples": len(ordered),
    }


#: Of the four metrics computed per slice, the one where more is better.
_HIGHER_IS_BETTER = ("commit_txn_s",)


def end_to_end(slices: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's mean over the fastest quarter of a run's slices.

    A run is cut into slices of equal work (a pass over the grid, a cycle
    over the pool) or equal time (a second of the window) and every
    metric is computed per slice.  The hosts this runs on slow down by a
    tenth or more for seconds at a time, sometimes for most of a run, and
    such interference only ever makes a slice slower.  So the run reports
    the mean of the quarter of its slices on the fast side — highest for
    a rate, lowest for a time or a cost: the part of the run the host
    left alone.  Over eight runs of ``wire-esr-mix`` the plain mean of
    ``commit_txn_s`` ranged over 20 % and the median slice over 16 %; this
    ranged over 6 %.  A change to the program moves every slice, and the
    fast quarter with them.
    """
    if not slices:
        raise ValueError("no complete slice in the window")
    keep = math.ceil(len(slices) / 4)
    out = {}
    for name in slices[0]:
        ordered = sorted(
            (one[name] for one in slices), reverse=name in _HIGHER_IS_BETTER
        )
        out[name] = sum(ordered[:keep]) / keep
    return out


def slice_metrics(
    committed: int, wall: float, cpu: float, latencies_ms: list[float]
) -> dict[str, float]:
    ordered = sorted(latencies_ms)
    return {
        "commit_txn_s": committed / wall,
        "txn_p50_ms": percentile(ordered, 50),
        "txn_p90_ms": percentile(ordered, 90),
        "cpu_us_per_txn": cpu * 1e6 / committed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def timed_setups(setup, teardown, repeats: int = 3):
    """Set up ``repeats`` times; keep the last state, report the median.

    One set-up is too noisy to gate (process spawn, page cache), and a
    later change that moves work into set-up must show, so each run
    repeats it and reports the median of the repeats.
    """
    durations = []
    state = None
    for index in range(repeats):
        started = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - started)
        if index < repeats - 1:
            teardown(state)
    return state, median(durations)


def result_line(
    spec: dict, trace: bool, values: dict[str, float], attempted: int, failed: int,
    correct: bool,
) -> str:
    """The contract's last line: every metric of the run's kind, by name."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        # A per-layer metric a workload does not exercise reads 0; an
        # end-to-end metric has no such default.
        value = values.get(name, 0.0) if trace else values[name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    unknown = set(values) - {entry["name"] for entry in wanted}
    if unknown:
        raise KeyError(f"metrics not named in BENCHMARK.json: {sorted(unknown)}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


INFO_PREFIX = "esrbench-info: "


def invoke(workload: str, seed: int, seconds: float, trace: bool):
    """One run in a process of its own; returns ``(result, info)``.

    Every run is its own process so that peak RSS, import time and CPU
    affinity start clean, exactly as when the driver calls ``run.py``.
    """
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"esrbench: {workload} seed {seed} exited {done.returncode}")
    info = {}
    for line in done.stderr.splitlines():
        if line.startswith(INFO_PREFIX):
            info = json.loads(line[len(INFO_PREFIX):])
        else:
            print(line, file=sys.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1]), info
