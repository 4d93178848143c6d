"""The server child: spawning, probing, measuring a window, stopping."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import BENCH_DIR, end_to_end, slice_metrics
from wire import Driver, Tally

_TICKS = os.sysconf("SC_CLK_TCK")


def pin_apart() -> int | None:
    """Pin the generator to one CPU; return another for the server child.

    Left to the scheduler the two sometimes share a core and sometimes do
    not, and the closed-loop rate differs by a quarter between the two
    placements; pinned, a run measures the same machine every time.
    With a single CPU nothing is pinned and the answer is None.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


class ServerChild:
    """``server_child.py`` as a subprocess, spoken to over its pipes."""

    def __init__(self, workload: str, seed: int, record_history: bool = False):
        self._affinity = os.sched_getaffinity(0)
        config = {
            "workload": workload,
            "seed": seed,
            "record_history": record_history,
            "cpu": pin_apart(),
        }
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server_child.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = json.loads(self.process.stdout.readline())["port"]
        except (ValueError, KeyError):
            self.stop()
            raise RuntimeError("esrbench: the server child did not start") from None

    def command(self, word: str) -> dict:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"esrbench: server child died on {word!r}")
        return json.loads(line)

    def cpu_seconds(self) -> float:
        """User + system CPU of the child so far, from ``/proc``.

        Read from outside so that probing at a window boundary costs the
        child nothing (no command to answer, no GIL hand-over).
        """
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as fp:
            # Fields 14 and 15, counted after the parenthesised command.
            fields = fp.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark so far, MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("esrbench: no VmHWM in /proc status")

    def stop(self) -> None:
        """End the child and wait for it; kill it if it will not go."""
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.write("quit\n")
                process.stdin.flush()
                process.stdin.close()
                process.wait(timeout=15)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
        os.sched_setaffinity(0, self._affinity)
        for pipe in (process.stdin, process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


@dataclass
class Window:
    """A stretch of a run: what happened, and one-second slices of it."""

    tally: Tally = field(default_factory=Tally)
    wall: float = 0.0
    server_cpu: float = 0.0
    client_cpu: float = 0.0
    slices: list[dict[str, float]] = field(default_factory=list)
    #: ``(programs committed so far, server peak RSS)`` at each cut.
    rss_marks: list[tuple[int, float]] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return end_to_end(self.slices)["commit_txn_s"]


async def measure_window(
    driver: Driver, child: "ServerChild", seconds: float
) -> Window:
    """Let the sessions run for ``seconds``, cut into slices of a second.

    The server's CPU is read from ``/proc`` at each cut, so a slice's CPU
    per transaction is the server's alone.
    """
    window = Window()
    count = max(1, round(seconds))
    begin = time.perf_counter()
    driver.swap_tally()
    mark = (begin, child.cpu_seconds(), time.process_time())
    for index in range(count):
        await driver.sleep(begin + seconds * (index + 1) / count - time.perf_counter())
        tally = driver.swap_tally()
        now = (time.perf_counter(), child.cpu_seconds(), time.process_time())
        wall, server_cpu, client_cpu = (b - a for a, b in zip(mark, now))
        mark = now
        window.tally.add(tally)
        window.wall += wall
        window.server_cpu += server_cpu
        window.client_cpu += client_cpu
        window.rss_marks.append((window.tally.committed, child.peak_rss_mb()))
        if tally.committed:
            window.slices.append(
                slice_metrics(tally.committed, wall, server_cpu, tally.latencies_ms)
            )
    return window
