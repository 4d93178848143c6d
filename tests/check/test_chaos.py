"""Chaos harness smoke: faults injected, history still conformant."""

from __future__ import annotations

import random
import signal

import pytest

from repro.check import ChaosConfig, chaos, check_log, run_chaos
from repro.engine.procshard import process_sharding_unavailable


class TestChaosSmoke:
    def test_threaded_server_with_disconnects(self):
        config = ChaosConfig(
            clients=2,
            transactions_per_client=8,
            server="threaded",
            disconnect_rate=0.2,
            seed=5,
        )
        report = run_chaos(config)
        assert report.ok, (report.errors, report.check.violations)
        assert report.commits > 0
        assert len(report.history) > 0
        # The same history replays clean from its serialised form too.
        from repro.engine.history import HistoryLog

        again = HistoryLog.loads(report.history.dumps())
        assert check_log(again).ok

    def test_async_server_with_bursts(self):
        config = ChaosConfig(
            clients=2,
            transactions_per_client=8,
            server="async",
            burst_rate=0.5,
            seed=6,
        )
        report = run_chaos(config)
        assert report.ok, (report.errors, report.check.violations)
        assert report.commits > 0

    @pytest.mark.skipif(
        process_sharding_unavailable() == "no-fork",
        reason="process sharding needs the fork start method",
    )
    def test_worker_kill_leaves_history_conformant(self):
        config = ChaosConfig(
            clients=2,
            transactions_per_client=10,
            server="async",
            shards=2,
            processes="force",
            kill_workers=1,
            seed=7,
        )
        report = run_chaos(config)
        assert report.kills == 1
        assert report.ok, (report.errors, report.check.violations)

    def test_unknown_server_kind_is_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(ChaosConfig(server="carrier-pigeon"))


class TestKillWorkers:
    def test_failed_over_shards_are_never_picked(self, monkeypatch):
        """A failed-over shard reports ``None`` for its pid: the victim
        comes from the live pids, and the killing stops when none is left
        (a ``None`` used to reach ``os.kill`` and raise ``TypeError``)."""

        class Manager:
            def __init__(self):
                self.answers = [(None, 4242), (None, None)]

            def worker_pids(self):
                return self.answers.pop(0)

        killed = []

        def kill(pid, sig):
            if not isinstance(pid, int):  # as the real os.kill does
                raise TypeError(f"an integer is required, got {pid!r}")
            killed.append((pid, sig))

        monkeypatch.setattr(chaos.os, "kill", kill)
        monkeypatch.setattr(chaos.time, "sleep", lambda seconds: None)
        assert chaos._kill_workers(Manager(), 3, random.Random(0)) == 1
        assert killed == [(4242, signal.SIGKILL)]
