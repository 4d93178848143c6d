"""Spans recorded by the benchmark around calls into each layer.

The program under test carries no tracing of its own yet, so the traced
run wraps the layers' public entry points from here — class attributes
are swapped for timing wrappers while :func:`instrument` is active and
restored afterwards.  Spans stay in memory until the run ends.

A span is ``(id, parent, name, program, start_ns, end_ns)``; ``name`` is
``<layer>.<function>`` with the layer a module name, ``program`` the
index of the program being executed (-1 outside any).
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter_ns

#: At most this many spans are written out; all of them are aggregated.
DUMP_LIMIT = 200_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.current = -1
        self.program = -1
        self._next = 0

    def open(self, name: str) -> tuple[int, int, str, int]:
        """Start a span by hand; pass the result to :meth:`close`."""
        sid = self._next
        self._next += 1
        parent = self.current
        self.current = sid
        return sid, parent, name, perf_counter_ns()

    def close(self, token: tuple[int, int, str, int]) -> None:
        end = perf_counter_ns()
        sid, parent, name, start = token
        self.current = parent
        self.spans.append((sid, parent, name, self.program, start, end))

    def add(self, name: str, start_ns: int, end_ns: int, program: int) -> None:
        """Record a span timed elsewhere (a request's round trip)."""
        sid = self._next
        self._next += 1
        self.spans.append((sid, -1, name, program, start_ns, end_ns))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token)

        return traced

    # -- reading ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(count, total_us, self_us)``.

        Self time is the span's duration minus its direct children's.
        """
        children: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, _program, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, name, _program, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e3
            row[2] += (end - start - children.get(sid, 0)) / 1e3
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(
                '{"spans_recorded":%d,"spans_written":%d}\n'
                % (len(self.spans), min(len(self.spans), DUMP_LIMIT))
            )
            for sid, parent, name, program, start, end in self.spans[:DUMP_LIMIT]:
                fp.write(
                    '{"id":%d,"parent":%d,"name":"%s","program":%d,'
                    '"start_ns":%d,"end_ns":%d}\n'
                    % (sid, parent, name, program, start, end)
                )


def mean_us(totals: dict[str, tuple[int, float, float]], name: str) -> float:
    count, total, _self = totals.get(name, (0, 0.0, 0.0))
    return total / count if count else 0.0


def self_us(totals: dict[str, tuple[int, float, float]], prefix: str) -> float:
    return sum(s for name, (_c, _t, s) in totals.items() if name.startswith(prefix))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the engine's calls and the ledger's admission.

    ``TransactionManager`` is the unsharded ESR engine every workload
    here runs; ``InconsistencyAccount.admit`` is where an operation that
    carries inconsistency enters the TIL/GIL/OIL walk.
    """
    from repro.core.accounting import InconsistencyAccount
    from repro.engine.manager import TransactionManager

    targets = [
        (TransactionManager, method, f"engine.manager.{method}")
        for method in ("begin", "read", "write", "commit")
    ]
    targets.append((InconsistencyAccount, "admit", "core.hierarchy.admit"))
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in targets]
    try:
        for cls, attr, name in targets:
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
        yield tracer
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)
