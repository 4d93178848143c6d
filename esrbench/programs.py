"""Program pools: generated once in set-up, cycled in the measured window.

``repro.workload`` produces ASTs; driving an engine or a socket from an
AST would put the interpreter's cost on the generator's side of every
measurement.  :func:`flatten` therefore reduces each generated program to
the only two shapes the generator emits — a query reading a list of
objects, and an update whose writes are ``value read + delta`` — and
refuses anything else, so a change to the generator under ``src/`` cannot
silently change the offered load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

READ = 0
WRITE = 1


@dataclass(frozen=True)
class FlatProgram:
    """One program as the drivers execute it."""

    index: int
    is_query: bool
    limit: float
    group_limits: tuple[tuple[str, float], ...]
    #: ``(READ, object, 0.0)`` or ``(WRITE, object, delta)``; a write
    #: stores the value this attempt read from the same object plus delta.
    ops: tuple[tuple[int, int, float], ...]

    @property
    def deltas(self) -> tuple[tuple[int, float], ...]:
        return tuple((obj, d) for code, obj, d in self.ops if code == WRITE)


def flatten(program, index: int) -> FlatProgram:
    from repro.lang.ast import (
        BinaryOp,
        Number,
        OutputStmt,
        ReadStmt,
        Variable,
        WriteStmt,
    )

    ops: list[tuple[int, int, float]] = []
    read_into: dict[str, int] = {}
    for stmt in program.body:
        if isinstance(stmt, ReadStmt):
            ops.append((READ, stmt.object_id, 0.0))
            if stmt.target is not None:
                read_into[stmt.target] = stmt.object_id
        elif isinstance(stmt, WriteStmt):
            expr = stmt.value
            if not (
                isinstance(expr, BinaryOp)
                and expr.op in ("+", "-")
                and isinstance(expr.left, Variable)
                and isinstance(expr.right, Number)
                and read_into.get(expr.left.name) == stmt.object_id
            ):
                raise ValueError(
                    f"program {index}: write to {stmt.object_id} is not "
                    "'value read from it ± constant'"
                )
            delta = expr.right.value if expr.op == "+" else -expr.right.value
            ops.append((WRITE, stmt.object_id, float(delta)))
        elif not isinstance(stmt, OutputStmt):
            raise ValueError(f"program {index}: unexpected statement {stmt!r}")
    if program.terminator != "commit" or program.object_limits:
        raise ValueError(f"program {index}: unexpected header or terminator")
    return FlatProgram(
        index=index,
        is_query=program.is_query,
        limit=float(program.transaction_limit),
        group_limits=tuple(sorted(program.group_limits.items())),
        ops=tuple(ops),
    )


@dataclass
class Pool:
    programs: list[FlatProgram]
    #: Set-up costs of the layers that only run in set-up.
    generate_us_per_program: float
    compile_us_per_program: float


def build_pool(
    spec,
    seed: int,
    sessions: int,
    per_session: int,
    til: float,
    tel: float,
    partitioned: bool,
    query_group_limits: dict[str, float] | None,
) -> list[Pool]:
    """One pool per session, each from its own seeded generator.

    ``partitioned`` gives session ``k`` the paper's write partition for
    site ``k + 1``; without it every session writes anywhere in the hot
    set, so update–update conflicts occur.
    """
    from repro.lang.compiler import compile_program
    from repro.workload import WorkloadGenerator, partition_for_site

    pools = []
    for session in range(sessions):
        generator = WorkloadGenerator(
            spec,
            seed=seed * 1_000_003 + session + 1,
            partition=(
                partition_for_site(spec, session + 1) if partitioned else None
            ),
            query_group_limits=query_group_limits,
        )
        started = time.perf_counter()
        asts = generator.generate_mix(per_session, til, tel)
        generated = time.perf_counter()
        for ast in asts:
            compile_program(ast)
        compiled = time.perf_counter()
        pools.append(
            Pool(
                programs=[
                    flatten(ast, session * per_session + i)
                    for i, ast in enumerate(asts)
                ],
                generate_us_per_program=(generated - started) * 1e6 / per_session,
                compile_us_per_program=(compiled - generated) * 1e6 / per_session,
            )
        )
    return pools
