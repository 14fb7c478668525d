"""Cross-validation: the two engines must agree on aggregate behaviour.

The reference engine (message-level protocol) and the fastsim engine
(vectorized fluid model) implement the same protocol semantics.  On a
matched small scenario their aggregates -- success rate, continuity,
ready-time scale, overlay composition -- must agree in *shape* (we assert
generous envelopes, not equality: the engines differ in granularity by
design)."""

import numpy as np
import pytest

from repro.analysis import (
    Cdf,
    ContinuitySamplesFold,
    SessionTableFold,
    fold_log,
    mean_continuity,
)
from repro.core.config import SystemConfig
from repro.core.system import CoolstreamingSystem
from repro.fastsim import FastSimulation
from repro.workload.users import UserPopulation


HORIZON = 600.0
N_USERS = 60


def run_reference(seed=0):
    cfg = SystemConfig(n_servers=2)
    system = CoolstreamingSystem(cfg, seed=seed)
    times = np.linspace(5.0, 120.0, N_USERS)
    pop = UserPopulation(
        system, arrival_times=times, silent_leave_prob=0.0,
    )
    # long stays so both engines see the same active population
    for user in pop.users:
        user.departure_deadline = user.arrival_time + HORIZON
    pop.attach()
    system.run(until=HORIZON)
    return system.log


def run_fastsim(seed=0):
    cfg = SystemConfig(n_servers=2)
    sim = FastSimulation(cfg, seed=seed, capacity_hint=256)
    times = np.linspace(5.0, 120.0, N_USERS)
    sim.add_arrivals(times, np.full(N_USERS, HORIZON))
    sim.run(until=HORIZON)
    return sim.log


@pytest.fixture(scope="module")
def logs():
    return run_reference(), run_fastsim()


@pytest.fixture(scope="module")
def folded(logs):
    """Each engine's ``(session table, continuity samples)``: one pass
    over each log."""
    return [fold_log(log, SessionTableFold(), ContinuitySamplesFold())
            for log in logs]


class TestCrossValidation:
    def test_both_engines_get_everyone_playing(self, folded):
        for table, _samples in folded:
            ready = [s for s in table if s.ready_time is not None]
            assert len(ready) >= 0.9 * N_USERS

    def test_continuity_agrees(self, folded):
        (_ref_table, ref_samples), (_fast_table, fast_samples) = folded
        ref = mean_continuity(ref_samples, after=200.0)
        fast = mean_continuity(fast_samples, after=200.0)
        assert ref > 0.9
        assert fast > 0.9
        assert abs(ref - fast) < 0.08

    def test_ready_time_scale_agrees(self, folded):
        (ref_table, _), (fast_table, _) = folded
        ref = Cdf.from_samples(ref_table.ready_delays())
        fast = Cdf.from_samples(fast_table.ready_delays())
        # both within the seconds-to-half-minute regime of Fig. 6; the
        # engines sit at opposite ends of it (the reference engine's
        # message-level catch-up is faster than the fluid engine's
        # step-granular one), so the envelope is deliberately generous
        for cdf in (ref, fast):
            assert 2.0 < cdf.median < 35.0
        ratio = max(ref.median, fast.median) / min(ref.median, fast.median)
        assert ratio < 4.0

    def test_session_counts_agree(self, folded):
        (ref_table, _), (fast_table, _) = folded
        n_ref = len(ref_table)
        n_fast = len(fast_table)
        # retries may differ slightly; totals must be comparable
        assert abs(n_ref - n_fast) <= 0.3 * N_USERS

    def test_log_format_identical(self, logs):
        """Both engines emit the same wire format: the analysis pipeline
        parses either without special-casing."""
        for log in logs:
            for entry in log.entries()[:50]:
                entry.parse()  # must not raise
