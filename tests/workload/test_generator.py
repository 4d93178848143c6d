"""The workload generator."""

from __future__ import annotations

import hashlib
import itertools
import statistics

import pytest

from repro.lang.ast import ReadStmt, WriteStmt
from repro.lang.compiler import format_program
from repro.workload.generator import (
    WorkloadGenerator,
    build_database,
    hot_set_for,
    partition_for_site,
)
from repro.workload.spec import PAPER_WORKLOAD, WorkloadSpec

SMALL = WorkloadSpec(n_objects=50, hot_set_size=10, n_partitions=5)


class TestBuildDatabase:
    def test_size_and_value_range(self):
        db = build_database(PAPER_WORKLOAD, seed=1)
        assert len(db) == 1000
        values = [obj.committed_value for obj in db.objects()]
        assert min(values) >= 1000 and max(values) <= 9999

    def test_deterministic_for_seed(self):
        a = build_database(SMALL, seed=7).committed_snapshot()
        b = build_database(SMALL, seed=7).committed_snapshot()
        assert a == b

    def test_different_seeds_differ(self):
        a = build_database(SMALL, seed=1).committed_snapshot()
        b = build_database(SMALL, seed=2).committed_snapshot()
        assert a != b


class TestHotSetAndPartitions:
    def test_hot_set_is_deterministic_and_sized(self):
        assert hot_set_for(SMALL) == hot_set_for(SMALL)
        assert len(hot_set_for(SMALL)) == SMALL.hot_set_size

    def test_partitions_cover_hot_set_disjointly(self):
        parts = [partition_for_site(SMALL, s) for s in range(1, 6)]
        combined = [obj for part in parts for obj in part]
        assert sorted(combined) == sorted(hot_set_for(SMALL))

    def test_sites_wrap_past_partition_count(self):
        assert partition_for_site(SMALL, 1) == partition_for_site(SMALL, 6)

    def test_more_partitions_than_hot_objects(self):
        spec = WorkloadSpec(n_objects=50, hot_set_size=3, n_partitions=10)
        part = partition_for_site(spec, 5)
        assert len(part) >= 1


class TestQueryGeneration:
    def test_query_shape(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=1)
        program = generator.generate_query(til=100_000.0)
        assert program.kind == "query"
        assert program.transaction_limit == 100_000.0
        spread = PAPER_WORKLOAD.query_ops_spread
        assert (
            PAPER_WORKLOAD.query_ops_mean - spread
            <= program.read_count()
            <= PAPER_WORKLOAD.query_ops_mean + spread
        )
        assert program.write_count() == 0

    def test_query_reads_distinct_objects(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=2)
        program = generator.generate_query(til=1.0)
        touched = program.objects_touched()
        assert len(touched) == len(set(touched))

    def test_query_is_hot_biased(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=3)
        hot = set(generator.hot_set)
        hot_hits = total = 0
        for _ in range(30):
            for object_id in generator.generate_query(1.0).objects_touched():
                total += 1
                hot_hits += object_id in hot
        assert hot_hits / total > 0.6


class TestSmallDatabases:
    def test_query_tops_up_from_the_hot_objects_not_chosen(self):
        """A cold set shorter than a query's overflow used to raise
        ``ValueError: Sample larger than population`` (third call here):
        the remainder comes from the hot objects not chosen yet."""
        spec = WorkloadSpec(
            n_objects=30, hot_set_size=20, hot_access_fraction=0.5
        )
        generator = WorkloadGenerator(spec, seed=1)
        cold = set(spec.object_ids) - set(generator.hot_set)
        took_every_cold_object = 0
        for _ in range(200):
            query = generator.generate_query(10)
            ids = [s.object_id for s in query.body if isinstance(s, ReadStmt)]
            assert 16 <= len(ids) <= 24
            assert len(ids) == len(set(ids))
            assert set(ids) <= set(spec.object_ids)
            took_every_cold_object += cold <= set(ids)
        assert took_every_cold_object


class TestUpdateGeneration:
    def test_update_shape(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=1)
        program = generator.generate_update(tel=10_000.0)
        assert program.kind == "update"
        ops = program.read_count() + program.write_count()
        spread = PAPER_WORKLOAD.update_ops_spread
        assert (
            PAPER_WORKLOAD.update_ops_mean - spread
            <= ops
            <= PAPER_WORKLOAD.update_ops_mean + spread
        )
        assert program.write_count() <= PAPER_WORKLOAD.writes_per_update

    def test_updates_are_read_modify_write(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=1)
        program = generator.generate_update(tel=1.0)
        reads = {
            stmt.object_id: stmt.target
            for stmt in program.body
            if isinstance(stmt, ReadStmt)
        }
        for stmt in program.body:
            if isinstance(stmt, WriteStmt):
                assert stmt.object_id in reads

    def test_update_writes_stay_in_partition(self):
        partition = partition_for_site(PAPER_WORKLOAD, 3)
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=5, partition=partition)
        for _ in range(20):
            program = generator.generate_update(tel=1.0)
            for stmt in program.body:
                if isinstance(stmt, WriteStmt):
                    assert stmt.object_id in partition

    def test_mean_write_change_calibrated(self):
        spec = WorkloadSpec(large_change_fraction=0.0)
        generator = WorkloadGenerator(spec, seed=11)
        deltas = [abs(generator._write_delta()) for _ in range(2000)]
        assert statistics.mean(deltas) == pytest.approx(
            spec.mean_write_change, rel=0.1
        )

    def test_large_changes_present_when_configured(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=11)
        deltas = [abs(generator._write_delta()) for _ in range(2000)]
        w = PAPER_WORKLOAD.mean_write_change
        big = sum(1 for d in deltas if d >= PAPER_WORKLOAD.large_change_min_mult * w)
        assert 0.05 < big / len(deltas) < 0.3


class TestMixAndStream:
    def test_mix_respects_query_fraction(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=4)
        programs = generator.generate_mix(400, til=1.0, tel=1.0)
        queries = sum(1 for p in programs if p.is_query)
        assert 0.2 < queries / len(programs) < 0.4

    def test_stream_is_endless(self):
        generator = WorkloadGenerator(SMALL, seed=1)
        stream = generator.stream(til=1.0, tel=1.0)
        programs = [next(stream) for _ in range(25)]
        assert len(programs) == 25

    def test_deterministic_by_seed(self):
        a = WorkloadGenerator(SMALL, seed=9).generate_mix(10, 1.0, 1.0)
        b = WorkloadGenerator(SMALL, seed=9).generate_mix(10, 1.0, 1.0)
        assert a == b


NO_COLD_SET = WorkloadSpec(n_objects=40, hot_set_size=40)

#: label -> (spec, generator keywords).  Between them: the paper's
#: partitioned sites, writes anywhere in the hot set, LIMIT lines, a
#: database with nothing cold (queries and padding reads fall back to the
#: hot set), and a write partition inside the cold set (padding reads
#: must step around the write targets).
PINNED_STREAMS = {
    "site1": (
        PAPER_WORKLOAD,
        dict(partition=partition_for_site(PAPER_WORKLOAD, 1)),
    ),
    "site7": (
        PAPER_WORKLOAD,
        dict(partition=partition_for_site(PAPER_WORKLOAD, 7)),
    ),
    "unpartitioned": (PAPER_WORKLOAD, dict(partition=None)),
    "group-limits": (
        PAPER_WORKLOAD,
        dict(
            partition=partition_for_site(PAPER_WORKLOAD, 1),
            query_group_limits={"hot": 30_000.0, "part1": 10_000.0},
        ),
    ),
    "no-cold-set": (
        NO_COLD_SET,
        dict(partition=partition_for_site(NO_COLD_SET, 3)),
    ),
    "partition-overlaps-cold": (
        PAPER_WORKLOAD,
        dict(partition=tuple(PAPER_WORKLOAD.object_ids[:12])),
    ),
}

#: sha256 over ``format_program`` of the first 2,000 programs of
#: ``stream(50_000, 5_000)``, computed on the tree before the generator
#: stopped filtering its pools per program (PR 14).  These define the
#: generator's output: a change that moves one has changed every figure.
PINNED_DIGESTS = {
    ("site1", 1): "a69d85b6499eeea1fa60966ad0f83362cfc70cca35195a47eb3e574b45d5583d",
    ("site1", 2): "b82747a85f2f86d70d9ee0b5025d97a879ffab2c0ccee4d77e5c6195fec0b6c4",
    ("site1", 3): "88572bfb0584329924eafca8d820b14b12ac41bc49678a20ac1f3d9b6582b923",
    ("site7", 1): "c43c1b64200842c6b89e7d9fb154f297818281c48fa4c8046b6cca7e56baf530",
    ("site7", 2): "c0ad40983cff2e33a8c55aa35873f5302d6f22ed3c507db4b5137fa9cf799c5a",
    ("site7", 3): "026ab093a5832255cacd15327aef1780ada27d707720d95eaaf98d43a4c5142c",
    ("unpartitioned", 1): "6d7f48c10c9b289007315563c383cc440ec15ae3dae8b23efe4c1ed592b5f871",
    ("unpartitioned", 2): "047a549198b393616a7fc246dfa44d030c45436e347535f716895cd54f3a6a3b",
    ("unpartitioned", 3): "fc3683b9a76fb636a56529a19dfc36dbaf4f8050377342ed235029d7e70b13ba",
    ("group-limits", 1): "6f6aa7420281bd0b8fb0c387efa8674bd1929de70813490021cf51dffb4fafdf",
    ("group-limits", 2): "ff26b464d7eab48e3cfaafb4a4980ad1bbc5c1e868a823539b4e0f742d7ef575",
    ("group-limits", 3): "5fa9a9f6d0bbb37162aa4e8932805f6a6099bd83dcf7b96fdec4ffba228ce4df",
    ("no-cold-set", 1): "8051520cfc2931a8d5129ad44459d90ffe204271d429e9bd4fca95c8baf13ced",
    ("no-cold-set", 2): "0d60fe547cfaa307112dbd0c8274184d30f2091ad44fd575f51ab214cc8c95cd",
    ("no-cold-set", 3): "7c2fce36f690d35d5e926e23284d31f70c198920d7c32491aad183a767077096",
    ("partition-overlaps-cold", 1): "f0d4ab4b71ca7ebf70e8029fc1d9c29a5e264a5b3a15e6b058d1ea81852ca36b",
    ("partition-overlaps-cold", 2): "d87f6857ec7f74382a534dc4f384de516538106652ccdf75b0ff0c15e93412ed",
    ("partition-overlaps-cold", 3): "885ee0389a531df0c1cd07f301ba0eb038d90817538ae88b8035e7d33e597846",
}


class TestProgramsArePinned:
    @pytest.mark.parametrize(("label", "seed"), sorted(PINNED_DIGESTS))
    def test_stream_digest(self, label, seed):
        spec, keywords = PINNED_STREAMS[label]
        generator = WorkloadGenerator(spec, seed=seed, **keywords)
        digest = hashlib.sha256()
        for program in itertools.islice(
            generator.stream(50_000.0, 5_000.0), 2000
        ):
            digest.update(format_program(program).encode())
        assert digest.hexdigest() == PINNED_DIGESTS[(label, seed)]

    def test_the_fallback_cases_are_what_they_claim(self):
        spec, keywords = PINNED_STREAMS["partition-overlaps-cold"]
        generator = WorkloadGenerator(spec, seed=1, **keywords)
        assert not set(generator.partition).isdisjoint(
            set(spec.object_ids) - set(generator.hot_set)
        )
        assert set(hot_set_for(NO_COLD_SET)) == set(NO_COLD_SET.object_ids)
