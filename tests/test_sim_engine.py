"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import Engine, PeriodicTask, SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=50.0).now == 50.0

    def test_run_until_advances_clock_even_without_events(self):
        eng = Engine()
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_clock_moves_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(3.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [3.5]
        assert eng.now == 3.5


class TestScheduling:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("call", [
        lambda eng: eng.schedule(float("nan"), lambda: None),
        lambda eng: eng.schedule_at(float("nan"), lambda: None),
        lambda eng: eng.run(until=float("nan")),
    ], ids=["schedule", "schedule_at", "run_until"])
    def test_nan_time_rejected(self, call):
        eng = Engine()
        fired = []
        eng.schedule(2.0, lambda: fired.append(eng.now))
        eng.schedule(3.0, lambda: fired.append(eng.now))
        with pytest.raises(SimulationError):
            call(eng)
        eng.run()
        assert fired == [2.0, 3.0]
        assert eng.now == 3.0

    def test_schedule_at_past_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(5.0, lambda: None)

    def test_fifo_for_same_timestamp(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.schedule(1.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(3.0, lambda: order.append("c"))
        eng.schedule(1.0, lambda: order.append("a"))
        eng.schedule(2.0, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling_during_run(self):
        eng = Engine()
        seen = []

        def outer():
            eng.schedule(2.0, lambda: seen.append(eng.now))

        eng.schedule(1.0, outer)
        eng.run()
        assert seen == [3.0]

    def test_len_counts_pending(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert len(eng) == 2

class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        seen = []
        ev = eng.schedule(1.0, lambda: seen.append(1))
        ev.cancel()
        eng.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        ev = eng.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        eng.run()

    def test_cancelled_events_not_counted_in_len(self):
        eng = Engine()
        ev = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        ev.cancel()
        assert len(eng) == 1

class TestRunControl:
    def test_until_excludes_later_events(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, lambda: seen.append("early"))
        eng.schedule(10.0, lambda: seen.append("late"))
        eng.run(until=5.0)
        assert seen == ["early"]
        assert eng.now == 5.0
        eng.run()  # the late event is still pending
        assert seen == ["early", "late"]

    def test_until_is_inclusive_of_boundary_events(self):
        eng = Engine()
        seen = []
        eng.schedule(5.0, lambda: seen.append(1))
        eng.run(until=5.0)
        assert seen == [1]

    def test_max_events_bound(self):
        eng = Engine()
        seen = []
        for i in range(10):
            eng.schedule(float(i + 1), lambda i=i: seen.append(i))
        eng.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_stop_halts_immediately(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, lambda: (seen.append(1), eng.stop()))
        eng.schedule(2.0, lambda: seen.append(2))
        eng.run(until=10.0)
        assert seen == [1]
        # clock is NOT advanced to `until` after a stop
        assert eng.now == 1.0

    def test_reentrant_run_rejected(self):
        eng = Engine()

        def bad():
            eng.run()

        eng.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            eng.run()

    def test_events_processed_counter(self):
        eng = Engine()
        for i in range(4):
            eng.schedule(float(i), lambda: None)
        eng.run()
        assert eng.events_processed == 4

    def test_exception_in_callback_propagates_and_engine_reusable(self):
        eng = Engine()

        def boom():
            raise ValueError("boom")

        eng.schedule(1.0, boom)
        eng.schedule(2.0, lambda: None)
        with pytest.raises(ValueError):
            eng.run()
        # engine is not left in "running" state
        eng.run()
        assert eng.now == 2.0


class TestPeriodicTask:
    def test_fires_every_period(self):
        eng = Engine()
        times = []
        PeriodicTask(eng, 2.0, lambda: times.append(eng.now))
        eng.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_first_delay_override(self):
        eng = Engine()
        times = []
        PeriodicTask(eng, 5.0, lambda: times.append(eng.now), first_delay=1.0)
        eng.run(until=7.0)
        assert times == [1.0, 6.0]

    def test_stop_prevents_future_firings(self):
        eng = Engine()
        times = []
        task = PeriodicTask(eng, 1.0, lambda: times.append(eng.now))
        eng.schedule(2.5, task.stop)
        eng.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_stop_from_within_callback(self):
        eng = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] == 3:
                task.stop()

        task = PeriodicTask(eng, 1.0, tick)
        eng.run(until=100.0)
        assert count[0] == 3

    def test_zero_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Engine(), 0.0, lambda: None)

    @pytest.mark.parametrize("kwargs", [
        {"period": float("nan")},
        {"period": 1.0, "first_delay": float("nan")},
    ], ids=["period", "first_delay"])
    def test_nan_timing_rejected(self, kwargs):
        eng = Engine()
        period = kwargs.pop("period")
        with pytest.raises(SimulationError):
            PeriodicTask(eng, period, lambda: None, **kwargs)
        assert len(eng) == 0

    def test_jitter_requires_rng(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Engine(), 1.0, lambda: None, jitter=0.5)

    def test_jitter_decorrelates_two_tasks(self, rng):
        eng = Engine()
        times_a, times_b = [], []
        PeriodicTask(eng, 10.0, lambda: times_a.append(eng.now),
                     jitter=2.0, rng=rng)
        PeriodicTask(eng, 10.0, lambda: times_b.append(eng.now),
                     jitter=2.0, rng=rng)
        eng.run(until=100.0)
        assert times_a != times_b


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            eng = Engine()
            trace = []
            PeriodicTask(eng, 1.5, lambda: trace.append(("a", eng.now)))
            PeriodicTask(eng, 2.5, lambda: trace.append(("b", eng.now)))
            eng.schedule(4.0, lambda: trace.append(("x", eng.now)))
            eng.run(until=20.0)
            return trace

        assert run_once() == run_once()
