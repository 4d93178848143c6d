"""The shard topologies the composite tests run on.

``create_engine`` knows two (thread shards, worker-process shards); the
third only arises at run time — a worker-backed composite one of whose
slots has been swapped for an in-process shard — so it is built here.
"""

from __future__ import annotations

import os
import signal

from repro.engine.api import create_engine

#: ``processes=`` values for a ``shards > 1`` engine, one per topology.
#: On hosts without fork the last two degrade to thread shards (so a
#: parameterisation over them never skips, it just runs threads again).
TOPOLOGIES = {"threads": False, "processes": "force", "failed-over": "failover"}


def build_engine(database, protocol="esr", *, processes=False, **kwargs):
    """``create_engine``, plus ``processes="failover"``: process shards
    with shard 0's worker SIGKILLed and failed over before any
    transaction begins (ids, timestamps and metrics are untouched)."""
    if processes != "failover":
        return create_engine(database, protocol, processes=processes, **kwargs)
    engine = create_engine(database, protocol, processes="force", **kwargs)
    pids = engine.worker_pids()
    if pids:
        os.kill(pids[0], signal.SIGKILL)
        os.waitpid(pids[0], 0)
        engine._failover(0)
        assert engine.failed_shards() == (0,)
        assert engine.worker_pids()[0] is None
    return engine
