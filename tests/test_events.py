"""Tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.events import PeriodicTimer, Simulator, Timer
from repro.utils.rng import spawn_rng


def _noop():
    pass


class TestSimulator:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_runs_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        for t in [0.5, 0.1, 0.9, 0.3]:
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == [0.1, 0.3, 0.5, 0.9]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(1.0000001, lambda: fired.append("b"))
        sim.run(until=1.0)
        assert fired == ["a"]
        assert sim.now == 1.0

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.run(until=1.0)
        assert fired == []
        sim.run(until=3.0)
        assert fired == ["late"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_max_events_limit(self):
        sim = Simulator()
        count = [0]

        def loop():
            count[0] += 1
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        sim.run(max_events=5)
        assert count[0] == 5

    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        e1.cancel()
        assert sim.pending() == 1

    def test_pending_drains_with_run(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.pending() == 3
        sim.run(until=2.0)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_fire_keeps_pending_exact(self):
        # e.g. a PeriodicTimer stopped from its own callback cancels the
        # event that just fired; the live counter must not double-count
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        later = []
        sim.schedule(10.0, lambda: later.append(sim.now))
        sim.run(until=5.0)
        fired.cancel()
        assert sim.pending() == 1
        sim.run()
        assert later == [10.0]

    def test_stop_from_periodic_callback_keeps_pending_exact(self):
        from repro.events import PeriodicTimer

        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
        timer.start()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.pending() == 1  # the t=10 event is still live

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 1

    def test_pending_matches_heap_count_under_random_churn(self):
        # pending() is derived (heap size minus tombstones): after every
        # operation it must equal a brute-force count of the heap
        # entries that can still fire
        rng = spawn_rng(20120813, "test:pending")
        sim = Simulator()
        handles = []

        def live_entries():
            return sum(1 for entry in sim._heap
                       if len(entry) == 4 or not entry[2].cancelled)

        for _ in range(3000):
            op = int(rng.integers(6))
            if op == 0:
                handles.append(sim.schedule(float(rng.random()), _noop))
            elif op == 1:
                sim.call_at(sim.now + float(rng.random()), _noop)
            elif op == 2 and handles:
                # live, fired or already cancelled: each must be safe
                event = handles[int(rng.integers(len(handles)))]
                event.cancel()
                event.cancel()
            elif op == 3:
                sim.run(until=sim.now)
            elif op == 4:
                sim.run(max_events=int(rng.integers(1, 8)))
            elif op == 5 and rng.random() < 0.1:
                # a cancel storm, enough tombstones to force _compact
                storm = [sim.schedule(float(rng.random()), _noop)
                         for _ in range(100)]
                for event in storm:
                    event.cancel()
            assert sim.pending() == live_entries()
        assert sim.compactions > 0
        sim.run()
        assert sim.pending() == 0 == len(sim._heap)

    def test_run_collects_tombstones_and_keeps_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        e1.cancel()
        assert sim.pending() == 1
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5, 2.0]
        assert sim.pending() == 0 == len(sim._heap)

    def test_run_collects_a_lone_tombstone(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.pending() == 0
        sim.run()
        assert len(sim._heap) == 0
        assert sim.processed_events == 0

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_property_fires_in_nondecreasing_time(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestTypedFastPath:
    """call_at: the no-handle, closure-free scheduling path."""

    def test_call_at_passes_args(self):
        sim = Simulator()
        got = []
        sim.call_at(0.5, got.append, ("x", 2))
        sim.run()
        assert got == [("x", 2)]

    def test_schedule_passes_args_too(self):
        sim = Simulator()
        got = []
        sim.schedule(0.5, lambda a, b: got.append((a, b)), "y", 3)
        sim.run()
        assert got == [("y", 3)]

    def test_same_timestamp_fifo_across_both_entry_shapes(self):
        # fast-path and cancellable entries share one seq stream, so ties
        # fire strictly in scheduling order regardless of shape
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, 0)
        sim.schedule(1.0, fired.append, 1)
        sim.call_at(1.0, fired.append, 2)
        sim.schedule_at(1.0, fired.append, 3)
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_until_inclusive_for_fast_path(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, "at")
        sim.call_at(1.0000001, fired.append, "after")
        sim.run(until=1.0)
        assert fired == ["at"]
        assert sim.now == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_at(-0.1, lambda: None)

    def test_call_at_in_past_rejected(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: sim.call_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_counts_in_pending(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.run()
        assert sim.pending() == 0


class TestCancellationSemantics:
    def test_cancel_own_event_from_its_callback_is_noop(self):
        sim = Simulator()
        holder = {}

        def fire():
            holder["event"].cancel()  # already fired: must not double-count

        holder["event"] = sim.schedule(1.0, fire)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending() == 0
        assert sim.processed_events == 2

    def test_cancel_sibling_at_same_timestamp_from_callback(self):
        sim = Simulator()
        fired = []
        second = None

        def first_cb():
            fired.append("a")
            second.cancel()  # same-timestamp sibling, not yet fired

        sim.schedule(1.0, first_cb)
        second = sim.schedule(1.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a"]
        assert sim.pending() == 0

    def test_stop_then_resume_processes_remaining_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.now == 1.0  # stop leaves now at the stopping event
        sim.run()  # resumes: _stopped resets on entry
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_compaction_collects_tombstones_below_heap_top(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, lambda: fired.append("top"))  # stays the heap top
        doomed = [sim.schedule(1.0 + i * 1e-6, lambda: fired.append("no"))
                  for i in range(5000)]
        for event in doomed:
            event.cancel()
        # bounded compaction rebuilt the heap without popping anything:
        # the cancelled entries below the top are gone, not just skipped
        assert sim.compactions >= 1
        assert len(sim._heap) < 200
        assert sim.pending() == 1
        sim.run()
        assert fired == ["top"]


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]

    def test_restart_replaces_expiry(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_armed_and_expiry(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(3.0)
        assert timer.armed
        assert timer.expiry == 3.0

    def test_restart_from_own_callback(self):
        sim = Simulator()
        fired = []

        def cb():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, cb)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert not timer.armed

    def test_pull_earlier_reschedules(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.start(1.0)  # earlier: must cancel and re-push
        sim.run()
        assert fired == [1.0]

    def test_push_back_after_fire_rearms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]


    def test_cancel_after_push_back_suppresses_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(2.0)
        sim.run(until=1.5)  # past the first expiry, before the second
        assert fired == []
        assert timer.expiry == 2.0
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_restart_to_same_expiry_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]

    def test_callback_sees_timer_disarmed(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append((timer.armed, timer.expiry)))
        timer.start(1.0)
        sim.run()
        assert seen == [(False, None)]

    def test_restart_churn_keeps_heap_bounded(self):
        """Each restart cancels and re-pushes; the tombstones it leaves are
        compacted away, so the heap holds O(1) entries per live timer."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for i in range(5000):
            timer.start(1.0 + i * 1e-6)
        assert sim.compactions >= 1
        assert len(sim._heap) < 200
        assert sim.pending() == 1
        sim.run()
        assert fired == [1.0 + 4999 * 1e-6]


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        timer.stop()
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: (fired.append(sim.now),
                                                 timer.stop()))
        timer.start()
        sim.run(until=10.0)
        assert fired == [1.0]

    def test_first_delay_override(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(first_delay=0.25)
        sim.run(until=1.5)
        timer.stop()
        assert fired == [0.25, 1.25]

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)

    def test_period_change_takes_effect_next_firing(self):
        sim = Simulator()
        fired = []

        def cb():
            fired.append(sim.now)
            timer.period = 0.5

        timer = PeriodicTimer(sim, 1.0, cb)
        timer.start()
        sim.run(until=2.2)
        timer.stop()
        assert fired == [1.0, 1.5, 2.0]

    def test_start_from_own_callback_leaves_no_duplicate(self):
        # regression: a callback calling start() mid-fire used to have its
        # freshly scheduled event overwritten by the post-callback
        # reschedule, leaving an uncancellable duplicate cadence
        sim = Simulator()
        fired = []

        def cb():
            fired.append(sim.now)
            if len(fired) == 1:
                timer.start(0.5)  # restart the cadence from t=1.0

        timer = PeriodicTimer(sim, 1.0, cb)
        timer.start()
        sim.run(until=4.0)
        timer.stop()
        assert fired == [1.0, 1.5, 2.5, 3.5]

    def test_stop_from_own_callback_after_restart(self):
        sim = Simulator()
        fired = []

        def cb():
            fired.append(sim.now)
            timer.start(0.25)
            timer.stop()

        timer = PeriodicTimer(sim, 1.0, cb)
        timer.start()
        sim.run(until=10.0)
        assert fired == [1.0]
        assert sim.pending() == 0
