"""The command-line interface."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import _COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig7", "--fast"])
        assert args.name == "fig7"
        assert args.fast

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_subcommand_builds_its_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert command in capsys.readouterr().out

    def test_removed_subcommand_is_an_argparse_error(self, capsys):
        for command in ("bench-net", "bench-hotpath"):
            with pytest.raises(SystemExit) as exit_info:
                main([command])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestTable1:
    def test_prints_paper_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "high-epsilon" in out
        assert "100,000" in out
        assert "zero-epsilon" in out


class TestSweep:
    def test_runs_one_configuration(self, capsys):
        code = main(
            [
                "sweep",
                "--mpl",
                "2",
                "--level",
                "high",
                "--duration",
                "4000",
                "--warmup",
                "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (tx/s)" in out

    def test_explicit_bounds(self, capsys):
        assert main(["sweep", "--mpl", "1", "--duration", "3000"]) == 0
        assert "aborts" in capsys.readouterr().out

    def test_profile_flag_prints_profile_and_counters(self, capsys):
        code = main(
            [
                "sweep",
                "--mpl",
                "1",
                "--duration",
                "2000",
                "--warmup",
                "200",
                "--profile",
                "--profile-top",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "perf counters:" in out
        assert "events dispatched" in out
        assert "throughput (tx/s)" in out


class TestGenWorkload:
    def test_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "load.trace"
        code = main(["gen-workload", str(out_file), "--count", "7"])
        assert code == 0
        assert "wrote 7 transactions" in capsys.readouterr().out
        from repro.workload.trace import read_trace

        assert len(read_trace(out_file)) == 7


class TestFigure:
    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_table1_style_figure_runs_fast(self, capsys):
        # The cheapest real figure at a tiny duration; still end-to-end.
        code = main(
            [
                "figure",
                "fig11",
                "--duration",
                "2500",
                "--reps",
                "1",
                "--no-chart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TEL=" in out


class TestServeAndRunTrace:
    def test_round_trip_over_tcp(self, tmp_path, capsys):
        from repro.engine.database import Database
        from repro.net.server import TransactionServer

        # Generate a small trace against the paper id space.
        trace = tmp_path / "load.trace"
        main(["gen-workload", str(trace), "--count", "3", "--seed", "2"])

        from repro.workload.generator import build_database
        from repro.workload.spec import PAPER_WORKLOAD

        server = TransactionServer(build_database(PAPER_WORKLOAD, seed=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(
                [
                    "run-trace",
                    str(trace),
                    "--port",
                    str(server.port),
                ]
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        out = capsys.readouterr().out
        assert "committed 3 transactions" in out


class TestServeAsync:
    def test_serves_in_the_foreground_until_interrupted(self):
        """``serve --async`` runs the loop on the main thread: it answers
        over TCP, and Ctrl-C stops it cleanly."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--async", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = ""
            while not banner.startswith("serving"):
                banner = proc.stdout.readline()
                assert banner, "the server exited before serving"
            assert banner.rstrip().endswith("(selectors)")
            port = int(banner.split()[-2].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(b'{"op": "time"}\n')
                reply = json.loads(sock.makefile().readline())
            assert reply["ok"] is True and reply["time"] > 0
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30.0)
            assert proc.returncode == 0
            assert "shutting down" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
