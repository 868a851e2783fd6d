"""Tests for the discrete-event queue."""

import pytest

from repro.netsim.engine import EventQueue


class TestScheduling:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("b"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(3.0, lambda: order.append("c"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: order.append(n))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5.0, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [5.0]
        assert queue.now == 5.0

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        queue = EventQueue(start_time=10.0)
        with pytest.raises(ValueError):
            queue.schedule_at(5.0, lambda: None)

    def test_nested_scheduling(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule(1.0, lambda: order.append("second"))

        queue.schedule(1.0, first)
        queue.run()
        assert order == ["first", "second"]
        assert queue.now == 2.0


class TestRun:
    def test_run_until_stops_before_later_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(5.0, lambda: fired.append(5))
        executed = queue.run(until=2.0)
        assert executed == 1
        assert fired == [1]
        assert queue.now == 2.0  # clock advanced to the horizon

    def test_run_max_events(self):
        queue = EventQueue()
        fired = []
        for i in range(5):
            queue.schedule(float(i + 1), lambda i=i: fired.append(i))
        queue.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_run_until_with_budget_to_spare_lands_on_until(self):
        queue = EventQueue()
        fired = []
        for when in (1.0, 2.0, 3.0, 9.0):
            queue.schedule_at(when, lambda when=when: fired.append(when))
        assert queue.run(until=5.0, max_events=10) == 3
        assert fired == [1.0, 2.0, 3.0]
        assert queue.now == 5.0          # exactly until, not 3.0
        assert queue.run() == 1 and queue.now == 9.0

    def test_run_until_stops_at_the_budget(self):
        queue = EventQueue()
        fired = []
        for when in (1.0, 2.0, 3.0):
            queue.schedule_at(when, lambda when=when: fired.append(when))
        assert queue.run(until=5.0, max_events=2) == 2
        assert fired == [1.0, 2.0]
        # The 3.0 event is still due: the clock must not jump over it.
        assert queue.now == 2.0
        assert queue.run(until=5.0, max_events=0) == 0
        assert queue.run(until=5.0) == 1 and queue.now == 5.0

    def test_step_on_empty_returns_false(self):
        assert EventQueue().step() is False


class TestStepBatch:
    def test_coalesces_simultaneous_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(1.0, lambda: fired.append("b"))
        queue.schedule(2.0, lambda: fired.append("later"))
        executed = queue.step_batch()
        assert executed == 2
        assert fired == ["a", "b"]
        assert queue.now == 1.0

    def test_includes_events_scheduled_at_batch_time(self):
        """A callback that schedules more work *at* the batch timestamp
        sees it drained in the same batch, not deferred."""
        queue = EventQueue()
        fired = []

        def first():
            fired.append("first")
            queue.schedule_at(queue.now, lambda: fired.append("chained"))

        queue.schedule(1.0, first)
        queue.schedule(3.0, lambda: fired.append("later"))
        executed = queue.step_batch()
        assert executed == 2
        assert fired == ["first", "chained"]
        assert queue.now == 1.0

    def test_empty_queue_returns_zero(self):
        queue = EventQueue()
        assert queue.step_batch() == 0

    def test_batches_partition_the_timeline(self):
        queue = EventQueue()
        fired = []
        for t, name in [(1.0, "a"), (1.0, "b"), (2.0, "c")]:
            queue.schedule(t, lambda n=name: fired.append(n))
        assert queue.step_batch() == 2
        assert queue.step_batch() == 1
        assert queue.step_batch() == 0
        assert fired == ["a", "b", "c"]
