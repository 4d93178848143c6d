"""Stage replay: what each serving stage costs per request, in-process.

The client sees only a request's round trip.  To split it, the traced
run keeps the requests it sent and afterwards feeds them, in sending
order, through the server's own stages against a fresh engine:

    codec decode  ->  net.requests.submit_request  ->  codec encode

Decode and encode are timed over the whole stream at once; dispatch is
``submit_request``'s self time, the engine and ledger calls inside it
being spans of their own.  What remains of the client-observed round
trip is the asyncio server's share: socket I/O, the dispatch queue, the
flush, and the kernel.

Transaction ids are the server's to assign, so a replayed ``begin`` maps
the id the live server answered to the one the fresh engine gives, and
later requests are rewritten through that map before dispatch.  A
request that would park is counted and skipped: nothing can wake it here.
"""

from __future__ import annotations

import time

from spans import Tracer, instrument, self_us


def stage_replay(captured, begun, binary: bool, database) -> dict[str, float]:
    from repro.engine.api import create_engine
    from repro.net.protocol import BINARY_CODEC, JSON_CODEC, decode_message
    from repro.net.requests import NeedsWait, submit_request

    if not captured:
        return {}
    if binary:
        codec, decode = BINARY_CODEC, BINARY_CODEC.decode
        bodies = [frame[4:] for _rid, frame in captured]
    else:
        codec, decode = JSON_CODEC, decode_message
        bodies = [frame[:-1] for _rid, frame in captured]

    started = time.perf_counter()
    messages = [decode(body) for body in bodies]
    decode_s = time.perf_counter() - started

    engine = create_engine(database, "esr")
    sessions: dict = {}
    live_to_replayed: dict[int, int] = {}
    responses = []
    parked = 0
    tracer = Tracer()
    with instrument(tracer):
        for (rid, _frame), message in zip(captured, messages):
            live = message.get("txn")
            if live is not None:
                message["txn"] = live_to_replayed.get(live, -1)
            token = tracer.open("net.requests.submit_request")
            result = submit_request(engine, message, sessions)
            tracer.close(token)
            if type(result) is NeedsWait:
                parked += 1
                continue
            if message["op"] == "begin" and result.get("ok") and rid in begun:
                live_to_replayed[begun[rid]] = result["txn"]
            result["id"] = rid
            responses.append(result)

    started = time.perf_counter()
    for response in responses:
        codec.encode_response(response)
    encode_s = time.perf_counter() - started

    totals = tracer.totals()
    count = len(messages)
    return {
        "requests": count,
        "parked": parked,
        "refused": sum(1 for r in responses if not r.get("ok")),
        "decode_us": decode_s * 1e6 / count,
        "encode_us": encode_s * 1e6 / max(len(responses), 1),
        "dispatch_us": self_us(totals, "net.requests.") / count,
        "engine_us": (
            self_us(totals, "engine.manager.") + self_us(totals, "core.hierarchy.")
        )
        / count,
        "totals": totals,
    }
