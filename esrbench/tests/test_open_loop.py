"""Open-loop schedules, and latency charged from the intended start."""

import asyncio
import json
import time

import wire_open_query
from programs import READ, FlatProgram
from wire import Driver

STEPS = [(2_000.0, 0.5), (5_000.0, 0.5)]


def test_schedule_is_a_pure_function_of_the_seed():
    first = wire_open_query.schedule(7, STEPS)
    assert first == wire_open_query.schedule(7, STEPS)
    assert first != wire_open_query.schedule(8, STEPS)
    assert len(first) == wire_open_query.STREAMS
    for arrivals in first:
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= at < 1.0 for at in arrivals)
    # About rate × duration arrivals in all: 1000 + 2500.
    assert 3_000 < sum(len(arrivals) for arrivals in first) < 4_000


def test_programs_are_a_pure_function_of_the_seed():
    assert wire_open_query.stream_programs(3, 0) == wire_open_query.stream_programs(3, 0)
    assert wire_open_query.stream_programs(3, 0) != wire_open_query.stream_programs(4, 0)


class StallingServer:
    """Speaks just enough of the JSON line protocol, and goes deaf for a
    while: requests that arrive during the stall are answered after it."""

    def __init__(self):
        self.stall = (float("inf"), float("inf"))
        self.next_txn = 0

    async def handle(self, reader, writer):
        while line := await reader.readline():
            message = json.loads(line)
            start, end = self.stall
            now = time.perf_counter()
            if start <= now < end:
                await asyncio.sleep(end - now)
            answer = {"ok": True}
            if message["op"] == "time":
                answer["time"] = time.time()
            elif message["op"] == "begin":
                self.next_txn += 1
                answer["txn"] = self.next_txn
            elif message["op"] == "read":
                answer.update(value=float(message["object"]), inconsistency=0.0,
                              esr_case=None)
            if "id" in message:
                answer["id"] = message["id"]
            writer.write(json.dumps(answer, separators=(",", ":")).encode() + b"\n")
        writer.close()


def test_latency_includes_a_stall_for_every_arrival_scheduled_during_it():
    period, count = 0.010, 80
    arrivals = [period * (i + 1) for i in range(count)]
    stall_from, stall_to = 0.295, 0.495  # the server is deaf for 200 ms
    program = FlatProgram(0, True, 0.0, (), ((READ, 5, 0.0),))

    async def scenario():
        fake = StallingServer()
        server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        driver = Driver()
        await driver.connect("127.0.0.1", port, 1, binary=False)
        driver.add_session(0, 1, [program], arrivals)
        driver.start()
        fake.stall = (driver.origin + stall_from, driver.origin + stall_to)
        unfinished = await driver.drain(10.0)
        await driver.close()
        server.close()
        await server.wait_closed()
        return unfinished, driver.tally

    unfinished, tally = asyncio.run(scenario())
    assert unfinished == 0
    assert tally.committed == count and tally.failed == 0
    # One session runs its arrivals in order, so sample i is arrival i.
    during = [
        (at, ms) for at, ms in zip(arrivals, tally.latencies_ms)
        if stall_from <= at < stall_to
    ]
    assert len(during) >= 19
    for at, ms in during:
        # Charged from the intended start: what was left of the stall
        # when the arrival was due is in its latency, although the
        # generator could not even send it until the session was free.
        assert ms >= (stall_to - at) * 1e3 - 1.0
    before = [ms for at, ms in zip(arrivals, tally.latencies_ms) if at < 0.25]
    assert max(before) < 100.0
