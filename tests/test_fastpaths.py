"""Regression tests for the optimized hot paths.

Each fast path must be behaviourally identical to the general path it
shortcuts; these tests pin the boundary cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import SyncBuffer
from repro.core.stream import UploadScheduler
from repro.network.fairshare import waterfill_rates
from repro.sim.engine import Engine, Event, PeriodicTask


class TestSyncBufferBulkPath:
    def test_bulk_path_with_pending_falls_back(self):
        buf = SyncBuffer()
        buf.receive(5)  # pending gap
        advanced = buf.receive_range(0, 7)
        assert advanced == 8
        assert buf.head == 7
        assert buf.pending == frozenset()

    def test_bulk_path_entirely_behind_head(self):
        buf = SyncBuffer()
        buf.receive_range(0, 9)
        assert buf.receive_range(2, 7) == 0
        assert buf.head == 9

    def test_bulk_path_overlapping_head(self):
        buf = SyncBuffer()
        buf.receive_range(0, 4)
        assert buf.receive_range(3, 8) == 4
        assert buf.head == 8

    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 20)),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_range_vs_single_equivalence(self, ranges):
        """receive_range == a sequence of single receives, always."""
        bulk = SyncBuffer()
        single = SyncBuffer()
        for first, span in ranges:
            last = first + span
            a = bulk.receive_range(first, last)
            b = sum(single.receive(i) for i in range(first, last + 1))
            assert a == b
        assert bulk.head == single.head
        assert bulk.pending == single.pending


class TestDeliverFastPath:
    def test_underloaded_matches_waterfill_exactly(self):
        """When capacity covers demand, the fast path and waterfill agree."""
        demands = [1.0, 1.0, 12.0]
        assert waterfill_rates(100.0, demands) == demands

    def test_delivery_identical_across_paths(self):
        # same scenario, capacities straddling the fast-path threshold
        def run(cap):
            sched = UploadScheduler(cap, 1.0, 1.0)
            for c in range(3):
                sched.subscribe(c, 0, 1)
            got = {c: 0 for c in range(3)}

            def push(conn, first, last):
                got[conn.child_id] += last - first + 1

            for head in range(1, 21):
                sched.deliver(1.0, [head], 1 << 30, push)
            return got

        ample = run(100.0)   # fast path
        exact = run(3.0)     # exactly at the threshold (sum of demands)
        assert ample == exact  # all caught-up children track live rate


class TestEventOrdering:
    def test_slots_prevent_dict_bloat(self):
        ev = Event(0.0, 0, lambda: None)
        with pytest.raises(AttributeError):
            ev.extra = 1  # __slots__ keeps the hot object lean

    def test_heap_order_stability_after_optimization(self):
        eng = Engine()
        order = []
        for i in range(50):
            eng.schedule(float(i % 3), lambda i=i: order.append(i))
        eng.run()
        # within each timestamp, insertion order is preserved
        by_time = {0: [], 1: [], 2: []}
        for i in order:
            by_time[i % 3].append(i)
        for ids in by_time.values():
            assert ids == sorted(ids)


class TestLiveEventCounter:
    """``len(engine)`` is an O(1) counter; it must track the heap exactly."""

    @staticmethod
    def _brute_force(eng):
        return sum(1 for _t, _s, ev in eng._heap if not ev.cancelled)

    def test_counter_matches_brute_force_under_cancel_heavy_workload(self):
        eng = Engine()
        rng = np.random.default_rng(42)
        live = []
        for _step in range(1500):
            action = int(rng.integers(0, 3))
            if action == 0 or not live:
                live.append(eng.schedule(float(rng.integers(0, 100)),
                                         lambda: None))
            elif action == 1:
                live.pop(int(rng.integers(0, len(live)))).cancel()
            else:
                # double-cancel must not decrement the counter twice
                ev = live[int(rng.integers(0, len(live)))]
                ev.cancel()
                ev.cancel()
            assert len(eng) == self._brute_force(eng)

    def test_counter_through_partial_and_full_runs(self):
        eng = Engine()
        evs = [eng.schedule(float(i), lambda: None) for i in range(100)]
        for ev in evs[::3]:
            ev.cancel()
        eng.run(max_events=20)
        assert len(eng) == self._brute_force(eng)
        eng.run()
        assert len(eng) == 0 == self._brute_force(eng)

    def test_cancel_after_firing_is_a_counted_noop(self):
        eng = Engine()
        fired_ev = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        eng.run(until=1.5)
        assert len(eng) == 1
        # the back-reference is detached on pop: a late cancel of an event
        # that already fired must not corrupt the live count
        fired_ev.cancel()
        assert len(eng) == 1 == self._brute_force(eng)


class TestHeapCompaction:
    def test_bulk_cancel_triggers_compaction_and_preserves_order(self):
        eng = Engine()
        fired = []
        keep_ids = []
        cancels = []
        for i in range(600):
            if i % 4 == 0:
                keep_ids.append(i)
                eng.schedule(float(i), lambda i=i: fired.append(i))
            else:
                cancels.append(eng.schedule(float(i), lambda: None))
        assert eng.heap_compactions == 0
        for ev in cancels:
            ev.cancel()
        assert eng.heap_compactions >= 1
        assert len(eng) == len(keep_ids)
        assert len(eng) == sum(1 for _t, _s, ev in eng._heap
                               if not ev.cancelled)
        eng.run()
        assert fired == keep_ids  # survivors fire in their original order
        assert eng.events_processed == len(keep_ids)
        # every cancelled entry is accounted for exactly once, whether it
        # was removed by the compactor or skipped lazily by the loop
        assert eng.events_cancelled == len(cancels)


class TestTimerBucketing:
    """Periodic tasks on one cadence: each task keeps its own heap event,
    and tasks sharing a ``(period, phase)`` fire in registration order."""

    def test_same_cadence_tasks_each_own_one_heap_entry(self):
        eng = Engine()
        fired = []
        tasks = [PeriodicTask(eng, 5.0, lambda i=i: fired.append(i))
                 for i in range(10)]
        assert len(eng) == 10  # one pending event per task
        eng.run(until=5.0)
        assert fired == list(range(10))  # members fire in registration order

    def test_bucketed_order_equals_per_task_event_order(self):
        """The firing sequence of periodic tasks must match what
        individually scheduled, self-re-arming events produce."""
        periods = [2.0, 3.0, 2.0, 5.0, 3.0, 2.0]
        horizon = 30.0

        eng_b = Engine()
        log_b = []
        tasks = [PeriodicTask(eng_b, p,
                              lambda i=i: log_b.append((eng_b.now, i)))
                 for i, p in enumerate(periods)]
        eng_b.run(until=horizon)

        eng_p = Engine()
        log_p = []

        def chain(i, period):
            def tick():
                log_p.append((eng_p.now, i))
                eng_p.schedule(period, tick)
            return tick

        for i, p in enumerate(periods):
            eng_p.schedule(p, chain(i, p))
        eng_p.run(until=horizon)

        assert log_b == log_p
        for t in tasks:
            t.stop()

    def test_phase_collision_keeps_per_task_order(self):
        eng = Engine()
        log = []
        PeriodicTask(eng, 4.0, lambda: log.append("a"))  # fires 4, 8, ...
        PeriodicTask(eng, 4.0, lambda: log.append("b"),
                     first_delay=8.0)                    # fires 8, 12, ...
        eng.run(until=12.0)
        # at t=8 a's re-armed event and b's first one meet; b keeps
        # priority (its event has the older seq)
        assert log == ["a", "b", "a", "b", "a"]
        assert len(eng) == 2  # each task's next firing, at t=16

    def test_member_stopped_mid_firing_does_not_fire(self):
        eng = Engine()
        log = []
        tasks = {}

        def a_fn():
            log.append("a")
            tasks["b"].stop()

        tasks["a"] = PeriodicTask(eng, 2.0, a_fn)
        tasks["b"] = PeriodicTask(eng, 2.0, lambda: log.append("b"))
        eng.run(until=6.0)
        assert log == ["a", "a", "a"]

    def test_stopping_all_members_drops_heap_entry(self):
        eng = Engine()
        tasks = [PeriodicTask(eng, 7.0, lambda: None) for _ in range(3)]
        assert len(eng) == 3
        for t in tasks:
            t.stop()
        assert len(eng) == 0
        eng.run()
        assert eng.events_processed == 0


class TestEngineLogBytesPinned:
    """Each in-process engine's log, byte for byte.

    The vectorised engines' digests were recorded with each peer's status
    triple emitted by a per-peer method reading one numpy scalar at a
    time; any other way of emitting the reports phase (or the activity
    reports) must reproduce the same file, in memory and through a spill
    sink.  The detailed engine's digest and kernel counts were recorded
    before its per-event protocol path was made cheaper: a faster buffer
    map, mCache entry, weighted draw or push quantum must not move one
    event, one draw or one byte.
    """

    PINNED = {
        "fast": (4060, "f8c091faf2d507d69c6f3f64b2566f29"
                       "1d8809389d258c978878cd2f795f933e"),
        "ode": (4023, "298fd6b038b12985a5e9fcb19f74d0e6"
                      "c8f3ae12bf350f48828664d0da98d582"),
        "detailed": (1284, "b6b6d7cfe6ed2dbc3e61a89760b79b3a"
                           "27d62f772644ee49fec11f6fe2bf7790"),
    }
    #: detailed run's (events_processed, events_cancelled, engine.now)
    DETAILED_KERNEL = (30290, 438, 400.0)
    #: the numpy (major.minor) the pins were checked under
    NUMPY = "2.4"

    @staticmethod
    def _run(engine, pin_failure):
        from repro.core.config import SystemConfig
        from repro.runtime import run_scenario
        from repro.workload.scenarios import evening_broadcast

        if engine == "detailed":
            # a shorter, lighter evening keeps the event-driven run ~0.5 s
            # while every report type still appears
            scenario = evening_broadcast(
                horizon_s=400.0, peak_rate=0.7,
                cfg=SystemConfig().with_overrides(status_report_period_s=100.0),
            )
        else:
            scenario = evening_broadcast(horizon_s=1200.0, peak_rate=0.8)
        result = run_scenario(scenario, seed=0, engine=engine)
        if engine == "detailed":
            eng = result.system.engine
            kernel = (eng.events_processed, eng.events_cancelled, eng.now)
            assert kernel == TestEngineLogBytesPinned.DETAILED_KERNEL, \
                pin_failure("the detailed kernel counts",
                            TestEngineLogBytesPinned.NUMPY)
        return result.log

    @pytest.mark.parametrize("engine", sorted(PINNED))
    def test_memory_and_spilled_logs_match_the_pin(self, engine, tmp_path,
                                                   monkeypatch, pin_failure):
        import hashlib

        from repro.telemetry.sink import (
            SPILL_ENV_VAR,
            MemorySink,
            SpillSink,
            set_spill_root,
        )

        monkeypatch.delenv(SPILL_ENV_VAR, raising=False)
        lines, digest = self.PINNED[engine]
        moved = pin_failure(f"the {engine} log", self.NUMPY)
        log = self._run(engine, pin_failure)
        assert isinstance(log.sink, MemorySink)
        assert len(log) == lines, moved
        assert hashlib.sha256(log.dumps().encode()).hexdigest() == digest, \
            moved
        # every status class, every leave reason the scenario can produce
        assert {type(r).__name__ for r in log.reports()} == {
            "ActivityReport", "QoSReport", "TrafficReport", "PartnerReport"}

        set_spill_root(tmp_path / "spill")
        try:
            spilled = self._run(engine, pin_failure)
        finally:
            set_spill_root(None)
        assert isinstance(spilled.sink, SpillSink)
        assert len(spilled) == lines, moved
        assert hashlib.sha256(spilled.dumps().encode()).hexdigest() == \
            digest, moved

    @pytest.mark.parametrize("engine", sorted(PINNED))
    def test_folds_over_the_log_equal_folds_over_the_general_decoder(
            self, engine, pin_failure):
        """The seven folds ``fold_log`` feeds through the wire decoder give,
        by ``repr``, what they give fed with each stored line's
        ``parse_report(decode_log_string(...))``."""
        from repro.analysis.sessions import SessionTable
        from repro.analysis.streaming import (
            ClassifyUsersFold,
            ConcurrentUsersFold,
            ContinuitySamplesFold,
            JoinFunnelFold,
            PartnerEventsFold,
            SessionTableFold,
            UploadTotalsFold,
            fold_log,
        )
        from repro.telemetry.logstring import decode_log_string
        from repro.telemetry.reports import parse_report

        def seven():
            return (SessionTableFold(), ClassifyUsersFold(),
                    UploadTotalsFold(), ContinuitySamplesFold(),
                    PartnerEventsFold(),
                    ConcurrentUsersFold(t1=1200.0, step_s=30.0),
                    JoinFunnelFold())

        def by_repr(result):
            if isinstance(result, SessionTable):
                result = result.sessions()
            elif isinstance(result, tuple):  # the grid and the counts
                result = [column.tolist() for column in result]
            return repr(result)

        log = self._run(engine, pin_failure)
        general = [parse_report(decode_log_string(entry.log_string))
                   for entry in log.iter_entries()]
        assert len(general) == len(log)
        assert list(map(by_repr, fold_log(log, *seven()))) == \
            list(map(by_repr, fold_log(general, *seven())))
