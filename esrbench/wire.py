"""The load generator: hand-framed requests on raw asyncio streams.

Everything the generator puts on the wire is framed here, from
``docs/protocol.md``, with no import from ``repro.net`` — a change to the
program's own clients or codecs cannot change the offered load.  One
process, no threads, at most ``nproc`` connections; concurrency comes
from sessions pipelined on each connection by correlation id.

A :class:`Session` runs one program at a time, one request in flight (a
write needs the value its read returned, and a parked read must not be
overtaken by its own transaction's next operation).  Closed-loop
sessions start the next program the moment one commits.  Open-loop
sessions follow a precomputed arrival schedule: an arrival that finds its
session busy starts as soon as the session is free, and latency is
charged from the *intended* start either way.
"""

from __future__ import annotations

import asyncio
import json
import re
import struct
import time
from dataclasses import dataclass, field

from common import MAX_ATTEMPTS
from programs import READ, FlatProgram

MAX_LINE = 1 << 20
#: A traced run keeps at most this many of its requests for stage replay.
CAPTURE_LIMIT = 150_000

# binary-1 layouts, little-endian: u32 size | u8 type | payload, the
# correlation id always the last 8 bytes.
_BEGIN = struct.Struct("<IBBBddiiQ")
_READ = struct.Struct("<IBQQQ")
_WRITE = struct.Struct("<IBQQdQ")
_COMMIT = struct.Struct("<IBQQ")
_JSON_HEAD = struct.Struct("<IB")
_OK_TXN = struct.Struct("<QQ")
_OK_VALUE = struct.Struct("<ddBQ")
_U64 = struct.Struct("<Q")

OPS = ("begin", "read", "write", "commit")

_NUMBER = rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?"
_OK_LINE = re.compile(
    rb'\{"ok":true(?:,"txn":(\d+)|,"value":(%s),"inconsistency":%s,'
    rb'"esr_case":(?:null|"[a-z-]+"))?,"id":(\d+)\}' % (_NUMBER, _NUMBER)
)


class ProtocolFailure(Exception):
    """The server answered something the protocol does not allow here."""


@dataclass
class Tally:
    """What happened while this tally was current."""

    committed: int = 0
    failed: int = 0
    restarts: int = 0
    requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    wrong_values: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    deltas: list[tuple[int, float]] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        """Fold a later tally into this one."""
        for name, value in vars(other).items():
            if isinstance(value, list):
                getattr(self, name).extend(value)
            else:
                setattr(self, name, getattr(self, name) + value)


class Connection:
    """One TCP connection and the requests in flight on it."""

    def __init__(self, driver: "Driver", binary: bool):
        self.driver = driver
        self.binary = binary
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.pending: dict[int, "Session"] = {}
        self.out: list[bytes] = []
        self.clock_offset = 0.0
        self._pump: asyncio.Task | None = None

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE + 1
        )
        # Clock synchronisation, then (for binary-1) codec negotiation —
        # the connection lifecycle of docs/protocol.md.
        sent = time.time()
        self.writer.write(b'{"op":"time"}\n')
        answer = json.loads(await self.reader.readuntil(b"\n"))
        self.clock_offset = answer["time"] - (sent + time.time()) / 2.0
        if self.binary:
            self.writer.write(b'{"op":"hello","codecs":["binary-1"]}\n')
            hello = json.loads(await self.reader.readuntil(b"\n"))
            if not (hello.get("ok") and hello.get("codec") == "binary-1"):
                raise ProtocolFailure(f"binary-1 declined: {hello!r}")
        self._pump = asyncio.ensure_future(self._read_loop())

    def flush(self) -> None:
        if self.out:
            data = b"".join(self.out)
            self.out.clear()
            self.driver.tally.bytes_sent += len(data)
            self.writer.write(data)

    async def _read_loop(self) -> None:
        reader = self.reader
        pending = self.pending
        buffer = b""
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                buffer += chunk
                self.driver.tally.bytes_received += len(chunk)
                now = time.perf_counter()
                if self.binary:
                    pos, end = 0, len(buffer)
                    while end - pos >= 4:
                        size = int.from_bytes(buffer[pos : pos + 4], "little")
                        if end - pos - 4 < size:
                            break
                        body = buffer[pos + 4 : pos + 4 + size]
                        pos += 4 + size
                        kind = body[0]
                        if kind == 0x83 and size == 26:
                            value, _inc, _case, rid = _OK_VALUE.unpack_from(body, 1)
                            pending.pop(rid).answered(True, value, now)
                        elif kind == 0x82 and size == 17:
                            txn, rid = _OK_TXN.unpack_from(body, 1)
                            pending.pop(rid).answered(True, txn, now)
                        elif (kind == 0x84 and size == 18) or (
                            kind == 0x81 and size == 9
                        ):
                            (rid,) = _U64.unpack_from(body, size - 8)
                            pending.pop(rid).answered(True, None, now)
                        elif kind == 0x0F:
                            self._json_answer(body[1:], now)
                        else:
                            raise ProtocolFailure(
                                f"frame type 0x{kind:02x} of {size} bytes"
                            )
                    buffer = buffer[pos:]
                else:
                    lines = buffer.split(b"\n")
                    buffer = lines.pop()
                    for line in lines:
                        self._json_answer(line, now)
                self.flush()
        except (ProtocolFailure, KeyError, ValueError, struct.error) as exc:
            self.driver.abandon(f"malformed response: {exc!r}")
        except (ConnectionError, OSError) as exc:
            self.driver.abandon(f"connection lost: {exc!r}")
        else:
            if not self.driver.closing:
                self.driver.abandon("server closed the connection")

    def _json_answer(self, payload: bytes, now: float) -> None:
        # The three ok shapes the server formats by hand are matched by
        # hand here, so the generator stays cheaper than the server;
        # anything else goes through the JSON parser.
        match = _OK_LINE.fullmatch(payload)
        if match is not None:
            txn, value, rid = match.groups()
            session = self.pending.pop(int(rid))
            if txn is not None:
                session.answered(True, int(txn), now)
            elif value is not None:
                session.answered(True, float(value), now)
            else:
                session.answered(True, None, now)
            return
        answer = json.loads(payload)
        if not isinstance(answer, dict) or "ok" not in answer:
            raise ProtocolFailure(f"not a response: {payload[:80]!r}")
        session = self.pending.pop(answer["id"])
        if answer["ok"] is True:
            session.answered(True, answer.get("txn", answer.get("value")), now)
        elif answer.get("error") == "aborted":
            session.answered(False, None, now)
        else:
            raise ProtocolFailure(f"error response: {payload[:200]!r}")

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._pump is not None:
            await self._pump


class Session:
    """One logical client: a program at a time, a request at a time."""

    def __init__(
        self,
        driver: "Driver",
        connection: Connection,
        site: int,
        programs: list[FlatProgram],
        arrivals: list[float] | None = None,
    ):
        self.driver = driver
        self.connection = connection
        self.site = site
        self.programs = programs
        self.position = 0
        #: Open loop: intended starts, seconds from the driver's origin.
        self.arrivals = arrivals
        self.arrival_index = 0
        self.program: FlatProgram | None = None
        self.attempts = 0
        self.step = -1
        self.txn = 0
        self.seq = 0
        self.values: dict[int, float] = {}
        self.started = 0.0
        self.op = 0  # index into OPS of the request in flight
        self.rid = 0  # its correlation id
        self.sent_ns = 0
        #: Values read by the last committed program (the check query).
        self.last_values: dict[int, float] = {}

    # -- starting programs ---------------------------------------------

    def start_next(self, now: float) -> None:
        """Closed loop: next program at once.  Open loop: per schedule."""
        driver = self.driver
        if self.arrivals is None:
            if not driver.running:
                driver.session_idle(self)
                return
            self._start(self._next_program(), now)
            return
        if self.arrival_index >= len(self.arrivals):
            driver.session_idle(self)
            return
        due = driver.origin + self.arrivals[self.arrival_index]
        if due <= now:
            self._arrive(due)  # behind schedule: start at once
        else:
            driver.loop.call_at(
                driver.loop_origin + self.arrivals[self.arrival_index],
                self._timer_fired,
                due,
            )

    def _timer_fired(self, due: float) -> None:
        self.driver.tally.late_ms.append((time.perf_counter() - due) * 1e3)
        self._arrive(due)
        self.connection.flush()

    def _arrive(self, due: float) -> None:
        self.arrival_index += 1
        self._start(self._next_program(), due)

    def _next_program(self) -> FlatProgram:
        program = self.programs[self.position % len(self.programs)]
        self.position += 1
        return program

    def run_once(self, program: FlatProgram) -> None:
        """Run one extra program now (the value-check query)."""
        self._start(program, time.perf_counter())
        self.connection.flush()

    def _start(self, program: FlatProgram, started: float) -> None:
        self.program = program
        self.started = started
        self.attempts = 0
        self.driver.active += 1
        self._begin()

    # -- requests --------------------------------------------------------

    def _send(self, op: int, frame: bytes) -> None:
        driver = self.driver
        rid = driver.next_id = driver.next_id + 1
        connection = self.connection
        connection.pending[rid] = self
        connection.out.append(frame)
        self.op = op
        self.rid = rid
        if driver.tracing:
            self.sent_ns = time.perf_counter_ns()
            if len(driver.captured) < CAPTURE_LIMIT:
                driver.captured.append((rid, frame))

    def _begin(self) -> None:
        self.attempts += 1
        self.step = -1
        self.values = {}
        program = self.program
        driver = self.driver
        rid = driver.next_id + 1
        kind = "query" if program.is_query else "update"
        if self.connection.binary:
            self.seq += 1
            ticks = time.time() + self.connection.clock_offset
            if program.group_limits:
                # Group limits do not fit the fixed begin layout; the
                # long tail rides a JSON frame (type 0x0F).
                payload = json.dumps(
                    {
                        "op": "begin",
                        "kind": kind,
                        "limit": program.limit,
                        "timestamp": [ticks, self.site, self.seq],
                        "group_limits": dict(program.group_limits),
                        "id": rid,
                    },
                    separators=(",", ":"),
                ).encode()
                frame = _JSON_HEAD.pack(len(payload) + 1, 0x0F) + payload
            else:
                frame = _BEGIN.pack(
                    35, 0x01, 0 if program.is_query else 1, 0x01,
                    program.limit, ticks, self.site, self.seq, rid,
                )
        else:
            frame = b'{"op":"begin","kind":"%s","limit":%a,"id":%d}\n' % (
                kind.encode(), program.limit, rid,
            )
        self._send(0, frame)

    def _operate(self) -> None:
        program = self.program
        ops = program.ops
        step = self.step
        rid = self.driver.next_id + 1
        binary = self.connection.binary
        if step == len(ops):
            frame = (
                _COMMIT.pack(17, 0x04, self.txn, rid)
                if binary
                else b'{"op":"commit","txn":%d,"id":%d}\n' % (self.txn, rid)
            )
            self._send(3, frame)
            return
        code, object_id, delta = ops[step]
        if code == READ:
            frame = (
                _READ.pack(25, 0x02, self.txn, object_id, rid)
                if binary
                else b'{"op":"read","txn":%d,"object":%d,"id":%d}\n'
                % (self.txn, object_id, rid)
            )
            self._send(1, frame)
        else:
            value = self.values[object_id] + delta
            frame = (
                _WRITE.pack(33, 0x03, self.txn, object_id, value, rid)
                if binary
                else b'{"op":"write","txn":%d,"object":%d,"value":%a,"id":%d}\n'
                % (self.txn, object_id, value, rid)
            )
            self._send(2, frame)

    # -- responses -------------------------------------------------------

    def answered(self, ok: bool, payload, now: float) -> None:
        driver = self.driver
        tally = driver.tally
        tally.requests += 1
        program = self.program
        if self.sent_ns:  # sent while tracing
            driver.tracer.add(
                "client." + OPS[self.op],
                self.sent_ns,
                time.perf_counter_ns(),
                program.index,
            )
            self.sent_ns = 0
            if self.op == 0 and ok:
                driver.begun[self.rid] = payload
        if not ok:
            # Aborted by the server: resubmit under a fresh timestamp.
            if self.attempts >= MAX_ATTEMPTS:
                tally.failed += 1
                self._finished(now)
            else:
                tally.restarts += 1
                self._begin()
            return
        op = self.op
        if op == 0:
            if type(payload) is not int:
                raise ProtocolFailure(f"begin answered {payload!r}")
            self.txn = payload
            self.step = 0
        elif op == 3:
            tally.committed += 1
            tally.latencies_ms.append((now - self.started) * 1e3)
            if not program.is_query:
                tally.deltas.extend(program.deltas)
            self.last_values = self.values
            self._finished(now)
            return
        else:
            if op == 1:
                if type(payload) is not float:
                    raise ProtocolFailure(f"read answered {payload!r}")
                object_id = program.ops[self.step][1]
                self.values[object_id] = payload
                expected = driver.expected_value
                if expected is not None and payload != expected(object_id):
                    tally.wrong_values += 1
            self.step += 1
        self._operate()

    def _finished(self, now: float) -> None:
        self.program = None
        driver = self.driver
        driver.active -= 1
        driver.program_done()
        self.start_next(now)


class Driver:
    """Every session of one run, and the counters they share."""

    def __init__(self):
        self.loop = asyncio.get_running_loop()
        self.connections: list[Connection] = []
        self.sessions: list[Session] = []
        self.tally = Tally()
        self.next_id = 0
        self.active = 0
        #: Sessions start further programs only while this is set.
        self.running = False
        self.closing = False
        self.error: str | None = None
        self.origin = 0.0  # perf_counter at schedule time zero
        self.loop_origin = 0.0  # loop.time() at schedule time zero
        self.total_done = 0
        self._notify_at = 0
        self._notify: asyncio.Event | None = None
        self._idle: asyncio.Event = asyncio.Event()
        self._failed: asyncio.Event = asyncio.Event()
        self._idle_sessions: set[int] = set()
        #: Where reads have one right answer (no writers): object -> value.
        self.expected_value = None
        # Traced runs: request spans, and the message stream for replay.
        self.tracer = None
        #: While set, every request sent is timed and kept for replay.
        self.tracing = False
        self.captured: list[tuple[int, bytes]] = []
        #: Correlation id of each answered begin -> the txn id it got.
        self.begun: dict[int, int] = {}

    async def connect(self, host: str, port: int, count: int, binary: bool) -> None:
        for _ in range(count):
            connection = Connection(self, binary)
            await connection.open(host, port)
            self.connections.append(connection)

    def add_session(self, connection_index, site, programs, arrivals=None) -> Session:
        session = Session(
            self, self.connections[connection_index], site, programs, arrivals
        )
        self.sessions.append(session)
        return session

    def start(self) -> None:
        now = time.perf_counter()
        self.origin = now
        self.loop_origin = self.loop.time()
        self.running = True
        self._idle_sessions.clear()
        self._idle.clear()
        for session in self.sessions:
            session.start_next(now)
        for connection in self.connections:
            connection.flush()

    # -- progress --------------------------------------------------------

    def program_done(self) -> None:
        self.total_done += 1
        if self._notify is not None and self.total_done >= self._notify_at:
            self._notify.set()

    async def wait_for_programs(self, count: int) -> None:
        """Return once ``count`` more programs have finished."""
        self._notify_at = self.total_done + count
        self._notify = asyncio.Event()
        await self._wait(self._notify)
        self._notify = None

    def session_idle(self, session: Session) -> None:
        self._idle_sessions.add(id(session))
        if len(self._idle_sessions) == len(self.sessions):
            self._idle.set()

    async def drain(self, timeout: float) -> int:
        """Let what is in flight or still scheduled finish; start no more.

        Closed-loop sessions stop after their current program; open-loop
        sessions run their schedule out.  Returns how many programs were
        unfinished or unstarted when ``timeout`` ran out.
        """
        self.running = False
        if len(self._idle_sessions) < len(self.sessions):
            try:
                await asyncio.wait_for(self._wait(self._idle), timeout)
            except asyncio.TimeoutError:
                pass
        return self.active + sum(
            len(s.arrivals) - s.arrival_index
            for s in self.sessions
            if s.arrivals is not None
        )

    async def _wait(self, event: asyncio.Event) -> None:
        await event.wait()
        if self.error is not None:
            raise ProtocolFailure(self.error)

    async def sleep(self, seconds: float) -> None:
        """Let the sessions run for ``seconds``; raise if a connection fails."""
        try:
            await asyncio.wait_for(self._failed.wait(), seconds)
        except asyncio.TimeoutError:
            return
        raise ProtocolFailure(self.error)

    def abandon(self, reason: str) -> None:
        """A connection failed: wake whoever is waiting, with the reason."""
        if self.error is None:
            self.error = reason
        self._failed.set()
        self._idle.set()
        if self._notify is not None:
            self._notify.set()

    def swap_tally(self) -> Tally:
        tally, self.tally = self.tally, Tally()
        return tally

    async def close(self) -> None:
        self.closing = True
        for connection in self.connections:
            await connection.close()
