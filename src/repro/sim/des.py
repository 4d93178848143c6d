"""A small process-based discrete-event simulation kernel.

The performance study replaces the paper's LAN of DECstations with a
deterministic simulator: client and server activities are generator-based
*processes* that advance simulated time by yielding either a
:class:`Timeout` (elapse simulated milliseconds) or an :class:`Event`
(block until something triggers it).  The kernel is deliberately tiny —
an event heap, processes, and one-shot events — because that is all the
client/server model needs, and determinism matters more than features:
given the same seeds, a simulation run is bit-for-bit reproducible, which
a real threaded prototype under the GIL is not.

Scheduling internals (the hot path)
-----------------------------------

Most scheduled work is *zero-delay*: every event trigger, resource grant
and process spawn resumes "now".  Those bypass the ``heapq`` entirely and
go through ``_ready``, a plain FIFO deque of callbacks due at the current
instant; only positive delays pay for a heap push/pop.  Dispatch order is
identical to a single ``(time, seq)`` heap because of an invariant the
two-queue split maintains: a heap entry due *now* was necessarily pushed
before the clock reached ``now`` (a zero delay never enters the heap), so
it precedes every ready-queue entry, and the ready queue itself preserves
FIFO order.  The clock never advances while ready callbacks are pending.
``RunResult`` metrics are bit-identical to the single-heap kernel for
identical configs and seeds — the golden determinism tests pin this.

A resource grant is zero-delay only for a process that queued.  With a
unit free, :meth:`Resource.acquire` takes it during the call and says so
(the event it returns is already triggered), and the caller goes
straight on to its service time: no event object, no trip through the
ready queue.  Nothing about *who holds what when* changes, because the
unit was always taken inside ``acquire``; the one thing the skipped hop
could reorder is two heap entries whose due times are float-equal (the
caller's service timeout now gets its ``seq`` before, not after,
whatever else runs at that instant), and the goldens would show that.

Usage sketch::

    engine = Engine()

    def client():
        yield Timeout(17.5)            # an RPC round trip
        done = Event()
        engine.call_later(5.0, done.trigger)
        yield done                     # block on a wake-up

    engine.spawn(client())
    engine.run(until=1000.0)
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, Iterable

from repro.perf import counters as _perf

__all__ = ["Event", "Timeout", "Process", "Engine", "Resource"]


class Event:
    """A one-shot signal processes can wait on.

    Triggering wakes every waiter (via the engine, at the current
    simulated time).  Waiting on an already-triggered event resumes
    immediately.  Events never un-trigger.
    """

    __slots__ = ("triggered", "_waiters")

    def __init__(self) -> None:
        self.triggered = False
        self._waiters: list[Process] = []

    def trigger(self) -> None:
        if self.triggered:
            return
        self.triggered = True
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process._engine._ready.append(process._step)

    def _add_waiter(self, process: "Process") -> bool:
        """Register a waiter; returns False if already triggered."""
        if self.triggered:
            return False
        self._waiters.append(process)
        return True

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else f"waiters={len(self._waiters)}"
        return f"Event({state})"


#: What :meth:`Resource.acquire` returns when a unit is free.  Events
#: never un-trigger, so every immediate grant can be this one object.
_GRANTED = Event()
_GRANTED.trigger()


class Timeout:
    """Yield value: elapse ``delay`` simulated milliseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay:g})"


class Process:
    """A running generator; yields Timeout/Event, finishes on return.

    ``completed`` is an :class:`Event` triggered when the generator
    returns, letting other processes join on it.
    """

    __slots__ = ("_engine", "_generator", "completed", "name")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[object, None, None],
        name: str = "",
    ):
        self._engine = engine
        self._generator = generator
        self.completed = Event()
        self.name = name

    def _step(self) -> None:
        try:
            yielded = next(self._generator)
        except StopIteration:
            self.completed.trigger()
            return
        engine = self._engine
        if isinstance(yielded, Timeout):
            # Inlined call_later: Timeout already validated delay >= 0.
            delay = yielded.delay
            if delay == 0.0:
                engine._ready.append(self._step)
            else:
                engine._seq = seq = engine._seq + 1
                heappush(engine._heap, (engine.now + delay, seq, self._step))
        elif isinstance(yielded, Event):
            if yielded.triggered:
                engine._ready.append(self._step)
            else:
                yielded._waiters.append(self)
        else:
            raise TypeError(
                f"process {self.name or self._generator!r} yielded "
                f"{yielded!r}; expected Timeout or Event"
            )

    def __repr__(self) -> str:
        return f"Process({self.name or self._generator!r})"


class Engine:
    """The event loop: a FIFO ready queue plus a time-ordered heap.

    ``events_dispatched`` / ``fastpath_dispatched`` count, cumulatively,
    the callbacks this engine has run and how many of them skipped the
    heap; both also feed :data:`repro.perf.counters`.
    """

    __slots__ = ("now", "_heap", "_seq", "_ready", "events_dispatched",
                 "fastpath_dispatched")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        #: Callbacks due at the current instant, in FIFO order.
        self._ready: deque[Callable[[], None]] = deque()
        self.events_dispatched = 0
        self.fastpath_dispatched = 0

    # -- scheduling -------------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated milliseconds."""
        if delay == 0.0:
            self._ready.append(callback)
        elif delay > 0:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay, seq, callback))
        else:
            raise ValueError(f"delay must be >= 0, got {delay}")

    def _resume_soon(self, process: Process) -> None:
        self._ready.append(process._step)

    def spawn(
        self, generator: Generator[object, None, None], name: str = ""
    ) -> Process:
        """Create a process and schedule its first step at the current time."""
        process = Process(self, generator, name)
        self._ready.append(process._step)
        return process

    # -- execution ----------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drain the event queues; returns the final simulated time.

        With ``until`` set, execution stops once the next event lies past
        that time (and ``now`` is advanced exactly to ``until``).  Without
        it, runs until no events remain.  The clock never moves backwards:
        an ``until`` earlier than ``now`` leaves the clock where it is.
        """
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        now = self.now
        dispatched = 0
        fast = 0
        try:
            while True:
                # Heap entries due now predate (and so precede) every
                # ready entry; otherwise ready work runs before the clock
                # may advance.
                if heap and (not ready or heap[0][0] <= now):
                    when = heap[0][0]
                    if until is not None and when > until:
                        break
                    _, _, callback = heappop(heap)
                    if when != now:
                        now = when
                        self.now = when
                elif ready:
                    if until is not None and now > until:
                        break
                    callback = popleft()
                    fast += 1
                else:
                    break
                dispatched += 1
                callback()
        finally:
            self.events_dispatched += dispatched
            self.fastpath_dispatched += fast
            _perf.events_dispatched += dispatched
            _perf.heap_pushes += dispatched - fast
            _perf.heap_pushes_avoided += fast
        if until is not None and until > now:
            now = until
            self.now = until
        return now

    def run_until_complete(self, processes: Iterable[Process]) -> float:
        """Run until every listed process has finished."""
        pending = list(processes)
        heap = self._heap
        ready = self._ready
        while any(not p.completed.triggered for p in pending):
            if heap and (not ready or heap[0][0] <= self.now):
                when, _, callback = heappop(heap)
                self.now = when
                _perf.heap_pushes += 1
            elif ready:
                callback = ready.popleft()
                self.fastpath_dispatched += 1
                _perf.heap_pushes_avoided += 1
            else:
                unfinished = [p for p in pending if not p.completed.triggered]
                raise RuntimeError(
                    f"simulation deadlock: {len(unfinished)} process(es) "
                    f"blocked with no pending events: {unfinished[:5]}"
                )
            self.events_dispatched += 1
            _perf.events_dispatched += 1
            callback()
        return self.now

    def pending_events(self) -> int:
        return len(self._heap) + len(self._ready)

    def __repr__(self) -> str:
        return f"Engine(now={self.now:g}, pending={self.pending_events()})"


class Resource:
    """A counted resource with a FIFO queue (e.g. server CPU threads).

    Models the paper's multithreaded server as ``capacity`` parallel
    service units: a process acquires a unit, holds it for the service
    time, and releases it; excess requests queue first-come first-served
    (a :class:`collections.deque`, so handing a unit to the next waiter
    is O(1) no matter how deep the queue gets).  Usage::

        grant = resource.acquire()
        if not grant.triggered:  # every unit busy: wait in the queue
            yield grant          # resumes holding a unit
        yield Timeout(service_time)
        resource.release()

    (Yielding an already-triggered grant is allowed too; it costs one
    zero-delay resume.)

    The resource also tracks busy time for utilisation reporting.
    """

    __slots__ = ("_engine", "capacity", "_in_use", "_queue", "_busy_since", "busy_time")

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Event] = deque()
        self._busy_since: float | None = None
        self.busy_time = 0.0

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is granted.

        The unit is considered held from the moment the returned event
        triggers; the caller must eventually :meth:`release` it.  With a
        unit free that moment is this call: the unit is taken here and
        the event comes back already triggered, so a caller need not
        wait on it.
        """
        if self._in_use < self.capacity:
            self._take()
            return _GRANTED
        grant = Event()
        self._queue.append(grant)
        return grant

    def release(self) -> None:
        """Return a unit; hands it straight to the next queued waiter."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching acquire()")
        if self._queue:
            # The unit passes directly to the next waiter: _in_use stays
            # unchanged, so utilisation accounting keeps running.
            grant = self._queue.popleft()
            grant.trigger()
            return
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self._engine.now - self._busy_since
            self._busy_since = None

    def _take(self) -> None:
        if self._in_use == 0:
            self._busy_since = self._engine.now
        self._in_use += 1

    @property
    def queued(self) -> int:
        return len(self._queue)

    def busy_snapshot(self) -> float:
        """Cumulative busy time up to the current simulated instant."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self._engine.now - self._busy_since
        return busy

    def utilisation(self, elapsed: float, since_busy: float = 0.0) -> float:
        """Fraction of ``elapsed`` time at least one unit was busy.

        ``since_busy`` subtracts a :meth:`busy_snapshot` taken at the start
        of the measurement window (e.g. the end of a warm-up phase).
        """
        busy = self.busy_snapshot() - since_busy
        return busy / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"Resource(capacity={self.capacity}, in_use={self._in_use}, "
            f"queued={len(self._queue)})"
        )
