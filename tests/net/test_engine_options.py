"""Engine options are spelled once: ``create_engine``'s keyword list.

Every host — both servers, their ``serve_*`` helpers and the in-process
``LocalClient`` — keeps only its own parameters and hands every other
keyword to :func:`~repro.engine.api.create_engine` untouched.  So each
engine option reaches the engine through each host, and a keyword no
one knows is a ``TypeError`` before any port is bound.
"""

from __future__ import annotations

import asyncio
import inspect
import socket

import pytest

from repro.engine.api import create_engine
from repro.engine.database import Database
from repro.engine.metrics import MetricsCollector
from repro.engine.procshard import process_sharding_unavailable
from repro.engine.timestamps import TimestampGenerator
from repro.net.aioserver import AsyncTransactionServer, serve_in_thread
from repro.net.server import TransactionServer, serve_forever
from repro.runtime import LocalClient


def _database() -> Database:
    db = Database()
    db.create_many((i, 100.0) for i in range(1, 5))
    return db


def _stamped_site(manager) -> int:
    txn = manager.begin("query")
    manager.abort(txn)
    return txn.timestamp.site


def _forked(manager) -> bool:
    if process_sharding_unavailable() == "no-fork":
        return True  # degraded to threads; nothing to observe
    return any(pid is not None for pid in manager.worker_pids())


_METRICS = MetricsCollector()

#: option -> (keywords to pass, what the built engine must show).  Each
#: option's keywords are its own plus whatever it needs to take effect.
OBSERVED = {
    "protocol": ({"protocol": "sr"}, lambda m: m.protocol == "sr"),
    "snapshot_cache": (
        {"snapshot_cache": True},
        lambda m: m.snapshot is not None,
    ),
    "metrics": ({"metrics": _METRICS}, lambda m: m.metrics is _METRICS),
    "timestamps": (
        {"timestamps": TimestampGenerator(site=7)},
        lambda m: _stamped_site(m) == 7,
    ),
    "shards": ({"shards": 2}, lambda m: m.shards == 2),
    "processes": ({"shards": 2, "processes": "force"}, _forked),
    "record_history": (
        {"record_history": True},
        lambda m: m.recorder.recording,
    ),
}

ENGINE_OPTIONS = [
    name
    for name, parameter in inspect.signature(create_engine).parameters.items()
    if parameter.default is not inspect.Parameter.empty
]


def _build(host: str, **options):
    """Build ``host`` on a fresh database; return (engine, close)."""
    database = _database()
    if host == "TransactionServer":
        server = TransactionServer(database, **options)
        return server.manager, server.server_close
    if host == "serve_forever":
        server = serve_forever(database, **options)
        return server.manager, lambda: (server.shutdown(), server.server_close())
    if host == "AsyncTransactionServer":
        server = AsyncTransactionServer(database, **options)
        return server.manager, lambda: asyncio.run(server.aclose())
    if host == "serve_in_thread":
        handle = serve_in_thread(database, **options)
        return handle.manager, handle.shutdown
    client = LocalClient(database, **options)
    return client.manager, getattr(client.manager, "close", lambda: None)


HOSTS = [
    "TransactionServer",
    "serve_forever",
    "AsyncTransactionServer",
    "serve_in_thread",
    "LocalClient",
]


def test_every_engine_option_is_observed():
    assert sorted(OBSERVED) == sorted(ENGINE_OPTIONS)


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("option", ENGINE_OPTIONS)
def test_option_reaches_the_engine(host, option):
    options, observe = OBSERVED[option]
    manager, close = _build(host, **options)
    try:
        assert observe(manager)
    finally:
        close()


@pytest.mark.parametrize("host", HOSTS)
def test_unknown_keyword_fails_before_binding(host, monkeypatch):
    def bind(self, address):
        raise AssertionError(f"bound {address} before rejecting the keyword")

    monkeypatch.setattr(socket.socket, "bind", bind)
    with pytest.raises(TypeError, match="export_limit"):
        _build(host, export_limit=1.0)
