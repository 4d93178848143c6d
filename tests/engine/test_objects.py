"""Data objects: versions, proper values, staging, reader registry."""

from __future__ import annotations

import pytest

from repro.core.bounds import ObjectBounds
from repro.engine.objects import DataObject, Version
from repro.engine.timestamps import GENESIS, Timestamp


def ts(t: float) -> Timestamp:
    return Timestamp(t, 0, 0)


class TestValueViews:
    def test_initial_state(self):
        obj = DataObject(7, 5_000.0)
        assert obj.present_value == 5_000.0
        assert obj.committed_value == 5_000.0
        assert not obj.has_uncommitted_write
        assert obj.versions() == (Version(GENESIS, 5_000.0),)

    def test_present_value_reflects_staged_write(self):
        obj = DataObject(7, 5_000.0)
        obj.stage_write(1, ts(10), 6_000.0)
        assert obj.present_value == 6_000.0
        assert obj.committed_value == 5_000.0  # in-place + shadow semantics

    def test_default_bounds_unbounded(self):
        obj = DataObject(7, 1.0)
        assert obj.bounds == ObjectBounds()


class TestProperValue:
    def test_walks_back_to_newest_older_write(self):
        obj = DataObject(7, 1_000.0)
        for t, value in ((10, 2_000.0), (20, 3_000.0), (30, 4_000.0)):
            obj.stage_write(t, ts(t), value)
            obj.commit_write()
        assert obj.proper_value_for(ts(25)) == 3_000.0
        assert obj.proper_value_for(ts(15)) == 2_000.0
        assert obj.proper_value_for(ts(5)) == 1_000.0
        assert obj.proper_value_for(ts(35)) == 4_000.0

    def test_window_eviction_falls_back_to_oldest_retained(self):
        obj = DataObject(7, 1_000.0, version_window=3)
        for t in range(1, 10):
            obj.stage_write(t, ts(t), 1_000.0 + t)
            obj.commit_write()
        # Window retains writes 7, 8, 9; a very old reader gets write 7.
        # Its true proper value is the initial 1000, so with values rising
        # the fallback under-estimates the divergence (2 instead of 9).
        assert obj.proper_value_for(ts(0.5)) == 1_007.0
        assert obj.present_value - obj.proper_value_for(ts(0.5)) == 2.0

        # Values are not monotone: after 1100, 900, 1200, 1010 the window
        # retains 900, 1200, 1010, and the fallback over-estimates the
        # divergence (110 instead of 10 from the initial 1000).
        swing = DataObject(7, 1_000.0, version_window=3)
        for t, value in ((1, 1_100.0), (2, 900.0), (3, 1_200.0), (4, 1_010.0)):
            swing.stage_write(t, ts(t), value)
            swing.commit_write()
        assert swing.proper_value_for(ts(0.5)) == 900.0
        assert abs(swing.present_value - swing.proper_value_for(ts(0.5))) == 110.0
        assert abs(swing.present_value - 1_000.0) == 10.0

    def test_paper_window_is_twenty(self):
        obj = DataObject(7, 0.0)
        for t in range(1, 30):
            obj.stage_write(t, ts(t), float(t))
            obj.commit_write()
        assert len(obj.versions()) == 20


class TestStaging:
    def test_commit_promotes_and_versions(self):
        obj = DataObject(7, 5_000.0)
        obj.stage_write(1, ts(10), 6_000.0)
        obj.commit_write()
        assert obj.committed_value == 6_000.0
        assert obj.committed_write_ts == ts(10)
        assert not obj.has_uncommitted_write
        assert obj.versions()[-1] == Version(ts(10), 6_000.0)

    def test_abort_restores_shadow(self):
        obj = DataObject(7, 5_000.0)
        obj.stage_write(1, ts(10), 6_000.0)
        obj.abort_write()
        assert obj.committed_value == 5_000.0
        assert obj.present_value == 5_000.0
        assert not obj.has_uncommitted_write
        assert len(obj.versions()) == 1  # aborted write leaves no version

    def test_same_transaction_overwrites_keeping_shadow(self):
        obj = DataObject(7, 5_000.0)
        obj.stage_write(1, ts(10), 6_000.0)
        obj.stage_write(1, ts(10), 7_000.0)
        assert obj.present_value == 7_000.0
        obj.abort_write()
        assert obj.committed_value == 5_000.0

    def test_conflicting_stager_is_a_bug(self):
        obj = DataObject(7, 5_000.0)
        obj.stage_write(1, ts(10), 6_000.0)
        with pytest.raises(AssertionError):
            obj.stage_write(2, ts(11), 6_500.0)

    def test_commit_and_abort_without_stage_are_noops(self):
        obj = DataObject(7, 5_000.0)
        obj.commit_write()
        obj.abort_write()
        assert obj.committed_value == 5_000.0


class TestReadBookkeeping:
    def test_read_ts_only_advances(self):
        obj = DataObject(7, 0.0)
        obj.record_read(1, ts(10), True, 0.0)
        obj.record_read(2, ts(5), False, 0.0)
        assert obj.read_ts == ts(10)
        assert obj.last_reader_was_query  # the newest read was the query

    def test_newest_reader_kind_tracked(self):
        obj = DataObject(7, 0.0)
        obj.record_read(1, ts(10), True, 0.0)
        obj.record_read(2, ts(20), False, 0.0)
        assert not obj.last_reader_was_query

    def test_query_readers_register_proper_values(self):
        obj = DataObject(7, 0.0)
        obj.record_read(1, ts(10), True, 111.0)
        obj.record_read(2, ts(12), True, 222.0)
        obj.record_read(3, ts(14), False, 0.0)  # updates never register
        assert obj.query_readers == {1: 111.0, 2: 222.0}

    def test_forget_reader(self):
        obj = DataObject(7, 0.0)
        obj.record_read(1, ts(10), True, 111.0)
        obj.forget_reader(1)
        obj.forget_reader(99)  # unknown id is fine
        assert obj.query_readers == {}

    def test_repr_mentions_pending_writer(self):
        obj = DataObject(7, 5.0)
        obj.stage_write(42, ts(1), 6.0)
        assert "writer=42" in repr(obj)
