"""The wait registry."""

from __future__ import annotations

import pytest

from repro.engine.scheduler import WaitRegistry


class TestWaitRegistry:
    def test_fire_invokes_and_drains(self):
        registry = WaitRegistry()
        calls = []
        registry.subscribe(7, lambda: calls.append("a"))
        registry.subscribe(7, lambda: calls.append("b"))
        assert registry.fire(7) == 2
        assert calls == ["a", "b"]
        assert registry.fire(7) == 0  # drained

    def test_fire_unknown_is_noop(self):
        assert WaitRegistry().fire(99) == 0

    def test_waiting_on_introspection(self):
        registry = WaitRegistry()
        registry.subscribe(7, lambda: None, waiter_transaction=3)
        assert registry.waiting_on(3) == 7
        registry.fire(7)
        assert registry.waiting_on(3) is None

    def test_fire_clears_the_completed_waiters_own_entry(self):
        # Regression: a blocked transaction that itself completes (e.g.
        # aborted on wait-timeout) used to leave its _waiting_on entry
        # behind forever.
        registry = WaitRegistry()
        registry.subscribe(7, lambda: None, waiter_transaction=3)
        registry.fire(3)  # the *waiter* completes, not the blocker
        assert registry.waiting_on(3) is None
        # The blocker's completion still works and finds nothing stale.
        registry.fire(7)
        assert registry.waiting_on(3) is None

    def test_pending_waiters_count(self):
        registry = WaitRegistry()
        registry.subscribe(1, lambda: None)
        registry.subscribe(2, lambda: None)
        registry.subscribe(2, lambda: None)
        assert registry.pending_waiters() == 3

    def test_callback_may_resubscribe(self):
        registry = WaitRegistry()
        calls = []

        def chain():
            calls.append("first")
            registry.subscribe(8, lambda: calls.append("second"))

        registry.subscribe(7, chain)
        registry.fire(7)
        registry.fire(8)
        assert calls == ["first", "second"]

    def test_acyclic_wait_chain_passes(self):
        registry = WaitRegistry()
        registry.subscribe(2, lambda: None, waiter_transaction=3)
        registry.subscribe(1, lambda: None, waiter_transaction=2)
        registry.assert_no_cycle()

    def test_cycle_detection(self):
        registry = WaitRegistry()
        registry.subscribe(2, lambda: None, waiter_transaction=1)
        registry.subscribe(1, lambda: None, waiter_transaction=2)
        with pytest.raises(AssertionError, match="cycle"):
            registry.assert_no_cycle()

    def test_repr(self):
        registry = WaitRegistry()
        registry.subscribe(1, lambda: None)
        assert "pending=1" in repr(registry)


class TestWaitForEdges:
    """``fire`` drops every wait-for edge into or out of the finished
    transaction, however the edge appeared or moved, and no other."""

    def test_resubscribing_waiter_moves_its_edge(self):
        registry = WaitRegistry()
        registry.subscribe(7, lambda: None, waiter_transaction=3)
        registry.subscribe(8, lambda: None, waiter_transaction=3)
        assert registry.waiting_on(3) == 8
        # The old blocker finishing must not drop the newer edge ...
        registry.fire(7)
        assert registry.waiting_on(3) == 8
        # ... and the new blocker finishing drops it.
        registry.fire(8)
        assert registry.waiting_on(3) is None
        assert registry._waiting_on == {}

    def test_mirror_noted_edge_is_dropped_on_fire(self):
        from repro.engine.procshard import _MirrorWaitRegistry

        registry = _MirrorWaitRegistry()
        registry.note(3, 7)
        registry.note(4, 7)
        registry.note(5, 9)
        assert registry.waiting_on(4) == 7
        assert registry.fire(7) == 0  # nothing subscribed in a worker
        assert registry.waiting_on(3) is None
        assert registry.waiting_on(4) is None
        assert registry.waiting_on(5) == 9
        registry.fire(5)  # the waiter itself finishing
        assert registry._waiting_on == {}

    def test_no_cycle_on_a_chain_after_firing_its_head(self):
        registry = WaitRegistry()
        registry.subscribe(1, lambda: None, waiter_transaction=2)
        registry.subscribe(2, lambda: None, waiter_transaction=3)
        registry.subscribe(2, lambda: None, waiter_transaction=4)
        registry.assert_no_cycle()
        registry.fire(1)
        assert registry.waiting_on(2) is None
        assert registry.waiting_on(3) == registry.waiting_on(4) == 2
        registry.assert_no_cycle()
        registry.fire(2)
        assert registry._waiting_on == {}
