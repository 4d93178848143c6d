"""Simulated clients: synchronous submitters that resubmit until commit.

Each client mirrors the paper's prototype clients (section 6): it works
through its transaction load one at a time, submitting operations
synchronously over the (simulated) RPC transport; if the server aborts a
transaction, the client immediately resubmits it with a fresh timestamp,
repeating until it commits.  BEGIN is client-local (timestamps are
generated at the client sites); Read/Write are full RPCs; COMMIT is a
null RPC.
"""

from __future__ import annotations

import random
from typing import Generator, Iterable, Iterator

from repro.engine.results import Granted, Rejected
from repro.engine.timestamps import TimestampGenerator
from repro.errors import EvaluationError
from repro.lang.ast import OutputStmt, Program, ReadStmt, WriteStmt
from repro.lang.compiler import compile_program
from repro.lang.eval import evaluate_expr
from repro.sim.des import Timeout
from repro.sim.latency import LatencyModel, PAPER_LATENCY
from repro.sim.server import SimServer

__all__ = ["SimClient"]


class SimClient:
    """One client site: a trace of programs and a timestamp generator."""

    def __init__(
        self,
        site: int,
        server: SimServer,
        programs: Iterable[Program],
        latency: LatencyModel = PAPER_LATENCY,
        seed: int = 0,
        clock_skew: float = 0.0,
    ):
        self.site = site
        self.server = server
        self._programs: Iterator[Program] = iter(programs)
        self.latency = latency
        self._rng = random.Random(seed)
        #: Constant offset of this site's local clock from simulated time.
        #: The paper's client sites had up to two minutes of skew, which it
        #: corrected to a virtual synchronized clock; the simulator's
        #: default is zero skew (perfectly corrected).  A non-zero value
        #: here models an *uncorrected* site, which demonstrably distorts
        #: timestamp-ordering fairness (see tests).
        self.clock_skew = clock_skew
        self._timestamps = TimestampGenerator(
            site=site, clock=lambda: server.engine.now + self.clock_skew
        )
        #: Transactions committed by this client.
        self.committed = 0
        #: Abort-and-resubmit cycles this client went through.
        self.restarts = 0
        #: output(...) lines produced by committed transactions.
        self.outputs: list[str] = []

    # -- the client process ------------------------------------------------------

    def process(self) -> Generator[object, None, None]:
        """The client's top-level simulation process.

        Works through the trace, submitting each program repeatedly
        until it commits.
        """
        for program in self._programs:
            compiled = compile_program(program)
            while True:
                committed, outputs = yield from self._attempt(compiled)
                if committed:
                    break
                self.restarts += 1
                if self.latency.restart_delay > 0:
                    yield Timeout(self.latency.restart_delay)
            self.committed += 1
            self.outputs.extend(outputs)

    def _attempt(self, compiled) -> Generator[object, None, tuple[bool, list[str]]]:
        """One incarnation: begin, run the body, commit. False on abort."""
        manager = self.server.manager
        txn = manager.begin(
            compiled.kind,
            compiled.bounds,
            timestamp=self._timestamps.next(),
            group_limits=compiled.group_limits,
            object_limits=compiled.object_limits,
        )
        environment: dict[str, float] = {}
        outputs: list[str] = []
        for stmt in compiled.program.body:
            if isinstance(stmt, ReadStmt):
                yield Timeout(self.latency.operation_delay(self._rng))
                outcome = yield from self.server.perform_read(
                    txn, stmt.object_id
                )
                if isinstance(outcome, Rejected):
                    return False, outputs
                assert isinstance(outcome, Granted)
                if stmt.target is not None and outcome.value is not None:
                    environment[stmt.target] = outcome.value
            elif isinstance(stmt, WriteStmt):
                try:
                    value = evaluate_expr(stmt.value, environment)
                except EvaluationError:
                    # A malformed program cannot succeed on retry either;
                    # abort it and surface the failure to the caller.
                    yield from self.server.perform_abort(txn, "program-error")
                    raise
                yield Timeout(self.latency.operation_delay(self._rng))
                outcome = yield from self.server.perform_write(
                    txn, stmt.object_id, value
                )
                if isinstance(outcome, Rejected):
                    return False, outputs
            elif isinstance(stmt, OutputStmt):
                # output() is client-local: no RPC, no simulated delay.
                text = "".join(
                    part
                    if isinstance(part, str)
                    else _render(evaluate_expr(part, environment))
                    for part in stmt.parts
                )
                outputs.append(text)
        if compiled.program.terminator == "abort":
            yield Timeout(self.latency.commit_delay(self._rng))
            yield from self.server.perform_abort(txn, "client-abort")
            return True, []
        yield Timeout(self.latency.commit_delay(self._rng))
        yield from self.server.perform_commit(txn)
        return True, outputs


def _render(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"
