"""Wait registry: who is blocked on whom, and wake-ups on completion.

Strict ordering makes operations wait for the commit/abort of an older
conflicting transaction.  The engine itself is runtime-agnostic — it only
*reports* :class:`~repro.engine.results.MustWait` — and this registry is
the bridge to whatever runtime hosts it:

* the discrete-event simulator subscribes a callback that re-schedules the
  blocked client process;
* the threaded network server subscribes a callback that notifies the
  blocked worker thread's condition variable;
* the non-blocking network server subscribes a parked entry's ``set``,
  which queues the operation for its loop to retry.

The registry also exposes the wait-for relation for inspection; since
waiters are always younger than the transactions they wait for, the
relation is acyclic by construction, and :meth:`assert_no_cycle` verifies
that invariant in tests.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable

__all__ = ["WaitRegistry"]


class WaitRegistry:
    """Subscriptions of blocked operations, keyed by blocking transaction."""

    def __init__(self) -> None:
        self._waiters: dict[int, list[Callable[[], None]]] = defaultdict(list)
        # waiter txn id -> blocking txn id, for introspection only.
        self._waiting_on: dict[int, int] = {}

    def subscribe(
        self,
        blocking_transaction: int,
        callback: Callable[[], None],
        waiter_transaction: int | None = None,
    ) -> None:
        """Invoke ``callback`` once ``blocking_transaction`` completes."""
        self._waiters[blocking_transaction].append(callback)
        if waiter_transaction is not None:
            self._waiting_on[waiter_transaction] = blocking_transaction

    def wait_event(
        self,
        blocking_transaction: int,
        waiter_transaction: int | None = None,
    ) -> threading.Event:
        """A ``threading.Event`` set when ``blocking_transaction`` completes.

        The threaded server's worker threads sleep on it.  The
        non-blocking server needs no event: it passes a parked entry's
        ``set`` to :meth:`subscribe`, which appends the entry to its
        loop's ready list (and wakes the loop when a shard lane fires it).
        """
        event = threading.Event()
        self.subscribe(
            blocking_transaction,
            event.set,
            waiter_transaction=waiter_transaction,
        )
        return event

    def fire(self, completed_transaction: int) -> int:
        """Wake everything waiting on ``completed_transaction``.

        Returns the number of callbacks invoked.  Callbacks are drained
        before being invoked so a callback that immediately re-subscribes
        (a retried operation blocking on a different transaction) is safe.
        """
        callbacks = self._waiters.pop(completed_transaction, [])
        # The completed transaction may itself have been registered as a
        # waiter (a blocked operation whose transaction was then aborted,
        # e.g. on wait-timeout); drop its own entry too or it leaks.
        self._waiting_on.pop(completed_transaction, None)
        stale = [
            waiter
            for waiter, blocker in self._waiting_on.items()
            if blocker == completed_transaction
        ]
        for waiter in stale:
            del self._waiting_on[waiter]
        for callback in callbacks:
            callback()
        return len(callbacks)

    def waiting_on(self, waiter_transaction: int) -> int | None:
        """The transaction ``waiter_transaction`` is blocked on, if any."""
        return self._waiting_on.get(waiter_transaction)

    def pending_waiters(self) -> int:
        """Total callbacks currently registered."""
        return sum(len(cbs) for cbs in self._waiters.values())

    def assert_no_cycle(self) -> None:
        """Verify the wait-for relation is acyclic (it must always be)."""
        for start in self._waiting_on:
            seen = {start}
            node = self._waiting_on.get(start)
            while node is not None:
                if node in seen:
                    raise AssertionError(
                        f"wait-for cycle detected starting at {start}"
                    )
                seen.add(node)
                node = self._waiting_on.get(node)

    def __repr__(self) -> str:
        return f"WaitRegistry(pending={self.pending_waiters()})"
