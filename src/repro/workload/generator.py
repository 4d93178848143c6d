"""Random transaction generation (the clients' data files, paper §6).

The generator produces :class:`~repro.lang.ast.Program` values — the same
representation the parser yields — so generated workloads can be written
to trace files, replayed through any runtime, and inspected as source.

Queries read a set of distinct objects and output their sum (the paper's
query shape).  Updates are read-modify-write transactions: each written
object is first read, then written back with a bounded random change, plus
padding reads to reach the target operation count.  Objects are drawn from
a small hot set with high probability to create the paper's high conflict
ratio.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, Sequence

from repro.engine.database import Database
from repro.core.bounds import ObjectBounds
from repro.lang.ast import (
    BinaryOp,
    LimitDecl,
    Number,
    OutputStmt,
    Program,
    ReadStmt,
    Statement,
    Variable,
    WriteStmt,
)
from repro.workload.spec import WorkloadSpec

__all__ = ["WorkloadGenerator", "build_database"]


#: Group names used when a workload database is built with groups: the
#: hot set forms one group, subdivided into one subgroup per partition.
HOT_GROUP = "hot"


def partition_group(partition_index: int) -> str:
    """Catalog group name for hot-set partition ``partition_index`` (0-based)."""
    return f"part{partition_index + 1}"


def build_database(
    spec: WorkloadSpec,
    seed: int = 0,
    object_bounds: ObjectBounds | None = None,
    version_window: int | None = None,
    with_groups: bool = False,
) -> Database:
    """Create the initial database for a workload.

    Object values are drawn uniformly from the spec's value range; all
    objects share ``object_bounds`` (defaulting to unbounded OIL/OEL, the
    setting the paper uses while studying transaction-level bounds).

    With ``with_groups`` the catalog gains a three-level hierarchy over
    the hot set — ``hot`` at the top, one ``partN`` subgroup per write
    partition — so queries can declare group limits (paper section 3.1)
    against it; cold objects stay independent.
    """
    rng = random.Random(seed)
    kwargs = {} if version_window is None else {"version_window": version_window}
    db = Database(**kwargs)
    for object_id in spec.object_ids:
        value = rng.randint(spec.value_min, spec.value_max)
        db.create_object(object_id, float(value), object_bounds)
    if with_groups:
        db.catalog.add_group(HOT_GROUP)
        hot = hot_set_for(spec)
        for index in range(spec.n_partitions):
            name = partition_group(index)
            db.catalog.add_group(name, parent=HOT_GROUP)
            for object_id in hot[index :: spec.n_partitions]:
                db.catalog.assign(object_id, name)
    return db


@lru_cache(maxsize=32)
def hot_set_for(spec: WorkloadSpec) -> tuple[int, ...]:
    """The workload's hot set — a fixed random sample of the object ids.

    Derived deterministically from the spec alone so every generator
    (one per client) conflicts on the same objects.  A spec is frozen
    and the result a tuple, so the sample is drawn once per spec rather
    than once per caller (every client of every simulated cell asks).
    """
    hot_rng = random.Random(spec.hot_set_size * 2654435761 + spec.n_objects)
    return tuple(sorted(hot_rng.sample(list(spec.object_ids), spec.hot_set_size)))


def partition_for_site(spec: WorkloadSpec, site: int) -> tuple[int, ...]:
    """The hot-set slice client ``site`` may write (1-based site ids).

    Partitions are interleaved slices of the hot set; sites beyond
    ``spec.n_partitions`` wrap around and share a partition.
    """
    hot = hot_set_for(spec)
    index = (site - 1) % spec.n_partitions
    partition = hot[index :: spec.n_partitions]
    # With more partitions than hot objects some slices are empty; fall
    # back to a single object so the site can still generate updates.
    if not partition:
        partition = (hot[index % len(hot)],)
    return partition


class WorkloadGenerator:
    """Seeded generator of query and update epsilon transactions.

    ``partition`` restricts this client's *write targets* (reads roam the
    whole database).  Pass :func:`partition_for_site` for the paper-style
    partitioned workload, or None to let updates write anywhere in the
    hot set (higher, unrelaxable update-update conflict).
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int = 0,
        partition: tuple[int, ...] | None = None,
        query_group_limits: dict[str, float] | None = None,
    ):
        self.spec = spec
        self._rng = random.Random(seed)
        self.hot_set: tuple[int, ...] = hot_set_for(spec)
        self.partition: tuple[int, ...] = (
            tuple(partition) if partition is not None else self.hot_set
        )
        #: Group limits attached to every generated query (LIMIT lines);
        #: requires a database built ``with_groups``.
        self.query_group_limits: dict[str, float] = dict(query_group_limits or {})
        hot = set(self.hot_set)
        self._cold_set: tuple[int, ...] = tuple(
            object_id for object_id in spec.object_ids if object_id not in hot
        )
        #: Where an update's padding reads go: cold objects, or the hot
        #: set when the spec leaves none cold.
        self._read_pool: tuple[int, ...] = self._cold_set or self.hot_set
        #: No write target can be a padding read (always so when the
        #: partition is part of the hot set and some objects are cold):
        #: updates then sample the pool as it stands.
        self._writes_miss_read_pool = set(self.partition).isdisjoint(
            self._read_pool
        )

    # -- object selection -------------------------------------------------------

    def _choose_objects(self, count: int) -> list[int]:
        """Choose ``count`` distinct objects, hot-set biased."""
        rng = self._rng
        hot_fraction = self.spec.hot_access_fraction
        hot, cold = self.hot_set, self._cold_set
        chosen: set[int] = set()
        # Cap hot picks at the hot-set size; overflow goes cold.
        want_hot = sum(1 for _ in range(count) if rng.random() < hot_fraction)
        want_hot = min(want_hot, len(hot), count)
        # ``sample`` picks by position, so the tuples draw exactly what
        # a list copy (or an equal filtered list) of them would.
        chosen.update(rng.sample(hot, want_hot))
        # Nothing chosen so far is cold: the cold set needs no filter.
        from_cold = min(count - want_hot, len(cold))
        chosen.update(rng.sample(cold, from_cold))
        still_short = count - want_hot - from_cold
        if still_short:
            # Too few cold objects: top up from the hot ones left.
            chosen.update(
                rng.sample([o for o in hot if o not in chosen], still_short)
            )
        objects = list(chosen)
        rng.shuffle(objects)
        return objects

    def _ops_count(self, mean: int, spread: int, minimum: int) -> int:
        low = max(minimum, mean - spread)
        high = mean + spread
        return self._rng.randint(low, high)

    # -- transaction generation ----------------------------------------------------

    def generate_query(self, til: float) -> Program:
        """A sum query over ~``query_ops_mean`` distinct objects."""
        spec = self.spec
        count = self._ops_count(spec.query_ops_mean, spec.query_ops_spread, 1)
        count = min(count, spec.n_objects)
        objects = self._choose_objects(count)
        body: list[Statement] = []
        terms: list[Variable] = []
        for index, object_id in enumerate(objects, start=1):
            name = f"t{index}"
            body.append(ReadStmt(object_id=object_id, target=name))
            terms.append(Variable(name))
        total: object = terms[0]
        for term in terms[1:]:
            total = BinaryOp("+", total, term)
        body.append(OutputStmt(parts=("Sum is: ", total)))
        limits = tuple(
            LimitDecl(name=group, value=value)
            for group, value in sorted(self.query_group_limits.items())
        )
        return Program(
            kind="query",
            transaction_limit=til,
            limits=limits,
            body=tuple(body),
        )

    def generate_update(self, tel: float) -> Program:
        """A read-modify-write update ET of ~``update_ops_mean`` operations.

        Write targets come from this client's partition; the padding reads
        go to cold objects (account lookups that conflict with nobody), so
        update-update conflicts only arise between sites sharing a
        partition.
        """
        spec = self.spec
        total_ops = self._ops_count(
            spec.update_ops_mean,
            spec.update_ops_spread,
            2 * spec.writes_per_update or 1,
        )
        writes = min(spec.writes_per_update, total_ops // 2, len(self.partition))
        extra_reads = total_ops - 2 * writes
        write_targets = self._rng.sample(self.partition, writes)
        candidates: Sequence[int] = self._read_pool
        if not self._writes_miss_read_pool:
            written = set(write_targets)
            candidates = [o for o in candidates if o not in written]
        extra_reads = min(extra_reads, len(candidates))
        read_only = self._rng.sample(candidates, extra_reads)
        body: list[Statement] = []
        var = 0
        for object_id in write_targets:
            var += 1
            name = f"t{var}"
            body.append(ReadStmt(object_id=object_id, target=name))
            delta = self._write_delta()
            op = "+" if delta >= 0 else "-"
            body.append(
                WriteStmt(
                    object_id=object_id,
                    value=BinaryOp(op, Variable(name), Number(abs(delta))),
                )
            )
        for object_id in read_only:
            var += 1
            body.append(ReadStmt(object_id=object_id, target=f"t{var}"))
        return Program(
            kind="update",
            transaction_limit=tel,
            body=tuple(body),
        )

    def _write_delta(self) -> float:
        """A signed change: typically ~``w``, occasionally a large transfer."""
        spec = self.spec
        w = spec.mean_write_change
        if self._rng.random() < spec.large_change_fraction:
            magnitude = self._rng.uniform(
                spec.large_change_min_mult * w, spec.large_change_max_mult * w
            )
        else:
            magnitude = self._rng.uniform(0.5 * w, 1.5 * w)
        sign = 1.0 if self._rng.random() < 0.5 else -1.0
        return round(sign * magnitude)

    def generate(self, til: float, tel: float) -> Program:
        """One transaction of random kind per the spec's query fraction."""
        if self._rng.random() < self.spec.query_fraction:
            return self.generate_query(til)
        return self.generate_update(tel)

    def generate_mix(self, count: int, til: float, tel: float) -> list[Program]:
        """A client's transaction load: ``count`` random transactions."""
        return [self.generate(til, tel) for _ in range(count)]

    def stream(self, til: float, tel: float) -> Iterator[Program]:
        """An endless stream of transactions (for open-ended runs)."""
        while True:
            yield self.generate(til, tel)
