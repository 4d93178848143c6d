"""The engine-replay interleaver is deterministic."""

from dataclasses import replace

import engine_replay
import layers


def small_state(seed):
    state = engine_replay.setup(seed)
    state.pools = [replace(pool, programs=pool.programs[:40]) for pool in state.pools]
    return state


def one_cycle(state):
    engine, initial = engine_replay.engine_for(state)
    cycle = engine_replay.replay_cycle(
        engine, state.pools, float("inf"), seed=state.seed
    )
    final = engine.database.committed_snapshot()
    return cycle, engine_replay.outcome_counts(engine, final), initial, final


def test_two_replays_of_one_seed_are_identical():
    state = small_state(5)
    first, first_counts, _, _ = one_cycle(state)
    second, second_counts, _, _ = one_cycle(state)
    assert first.complete and second.complete
    assert first_counts == second_counts
    for field in ("committed", "failed", "restarts", "ops", "committed_deltas"):
        assert getattr(first, field) == getattr(second, field), field
    assert first.committed == 16 * 40 and first.failed == 0
    assert first.restarts > 0, "the workload is meant to conflict"


def test_another_seed_is_another_history():
    _, counts_a, _, _ = one_cycle(small_state(5))
    _, counts_b, _, _ = one_cycle(small_state(6))
    assert counts_a != counts_b


def test_history_statistics_agree_with_the_interleaver():
    from repro.engine.history import HistoryLog

    state = small_state(5)
    engine, _ = engine_replay.engine_for(state)
    cycle = engine_replay.replay_cycle(
        engine, state.pools, float("inf"), seed=state.seed
    )
    stats = layers.history_stats(HistoryLog.from_engine(engine).events)
    snap = engine.metrics.snapshot()
    assert stats["commits"] == cycle.committed == snap.commits
    levels = sum(stats[f"rejections.{level}"] for level in ("object", "group", "transaction"))
    assert levels == snap.aborts_by_reason["bound-violation"]
    # Every granted operation is an event; those of aborted attempts are waste.
    assert 0.0 < stats["wasted_ops_share"] < 1.0
    assert cycle.ops == snap.reads + snap.writes
