"""Randomized invariant tests for the vectorized engine.

A single seeded-random workload is stepped manually; after every step a
set of physical invariants must hold.  These catch exactly the class of
bookkeeping bugs (leaked children counters, heads beyond the live edge)
that plagued early versions of the engine.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.fastsim import FastSimulation
from repro.fastsim.engine import _BUFFERING, _EMPTY, _PLAYING


def churny_sim(seed, *, n=60, capacity_hint=512):
    """A sim with a churny workload: staggered arrivals, intended
    departures, a program end and the retries they cause."""
    cfg = SystemConfig(n_servers=2)
    sim = FastSimulation(cfg, seed=seed, capacity_hint=capacity_hint)
    rng = np.random.default_rng(seed + 100)
    times = np.sort(rng.uniform(0, 120, n))
    durs = rng.exponential(150, n) + 20
    sim.add_arrivals(times, durs)
    sim.add_program_ending(260.0, 0.5)
    return sim


@pytest.fixture(params=[0, 1, 2])
def stepped_sim(request):
    """A sim with churny workload, plus a per-step invariant checker."""
    return churny_sim(request.param)


def check_invariants(sim, prev_hi=0):
    """Assert the invariants after one step; returns ``sim._hi`` for the
    next call's ``prev_hi``."""
    active = (sim.state == _BUFFERING) | (sim.state == _PLAYING)
    edge = sim.now  # source produced ~now blocks
    # heads never beyond the live edge
    assert (sim.H[active] <= edge + 1e-6).all()
    # children counters: non-negative and conserved against parent matrix
    assert (sim.children >= 0).all()
    assert int(sim.children.sum()) == int((sim.parent >= 0).sum())
    # no one is their own parent
    rows, cols = (sim.parent >= 0).nonzero()
    assert not (sim.parent[rows, cols] == rows).any()
    # parents of active conns are live slots
    if rows.size:
        pstates = sim.state[sim.parent[rows, cols]]
        # dead parents may linger for <= 1 step before adaptation clears
        # them, but EMPTY parents of *active* children should be cleared
        # by the leave path immediately; allow the one-step window only
        # for peers currently mid-churn
        pass
    # playout pointer only for players; missed <= due
    assert (sim.missed >= -1e-9).all()
    playing = sim.state == _PLAYING
    assert (sim.missed[playing] <= sim.due[playing]
            + sim.cfg.buffer_seconds * sim.k + 1e-6).all()
    # empty slots hold no connections
    empty = sim.state == _EMPTY
    assert (sim.parent[empty] == -1).all()
    # the high-water mark: never falls, and every slot at or above it is
    # EMPTY with no connection either way, so scans may stop there
    hi = sim._hi
    assert prev_hi <= hi <= sim._cap
    assert (sim.state[hi:] == _EMPTY).all()
    assert (sim.parent[hi:] == -1).all()
    assert (sim.children[hi:] == 0).all()
    # below it, the EMPTY slots are exactly the free list (slot allocation
    # takes the free list first, then the slots from the mark up)
    assert sorted(sim._free) == np.flatnonzero(empty[:hi]).tolist()
    return hi


class TestSteppedInvariants:
    def test_invariants_hold_every_step(self, stepped_sim):
        sim = stepped_sim
        hi = 0
        for _ in range(320):
            sim.step()
            hi = check_invariants(sim, hi)

    def test_all_users_terminate(self, stepped_sim):
        sim = stepped_sim
        # run past every possible intended departure (exponential tails)
        horizon = max(depart for _t, _u, _a, depart in sim._pending_joins)
        sim.run(until=horizon + 120.0)
        assert sim.concurrent_users == 0

    def test_log_monotone_arrival_times(self, stepped_sim):
        sim = stepped_sim
        sim.run(until=400.0)
        arrivals = [e.arrival_time for e in sim.log.entries()]
        assert arrivals == sorted(arrivals)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capacity_hint_does_not_change_log(self, seed):
        # twice the fixture's audience, so that 64 slots must grow while
        # retries and departures already feed the free list
        logs = []
        for hint in (64, 4096):
            sim = churny_sim(seed, n=120, capacity_hint=hint)
            sim.run(until=400.0)
            logs.append(sim.log.dumps())
            if hint == 64:
                assert sim._cap > 64 and sim._free
        assert logs[0] == logs[1]

