"""The detailed engine's per-event fast paths against their references.

Every rewrite here must be invisible: the same index from the same stream
position for a single weighted draw, the same buffer-map and mCache-entry
values, the same bootstrap sample, the same pushes and credits from a
delivery quantum, the same sub-stream re-selected by the control tick's
inlined Inequalities (1)/(2).  The replaced implementations are kept below
as oracles.
"""

import pickle
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import inequality1_ok, inequality2_ok, substream_lag
from repro.core.blocks import StreamGeometry
from repro.core.buffer import BufferMap, SyncBuffer
from repro.core.membership import MCache, MCacheEntry, make_entry
from repro.core.node import PeerNode
from repro.core.partnership import Direction, PartnershipManager
from repro.core.source import BootstrapNode
from repro.core.stream import UploadScheduler
from repro.network.capacity import CapacityModel, CapacityProfile
from repro.network.connectivity import (
    ConnectivityClass,
    ConnectivityMix,
    choice_cdf,
)
from repro.network.fairshare import _SMALL_N, _waterfill_py, waterfill_rates
from repro.sim.rng import RngHub

USER_CLASSES = [ConnectivityClass.DIRECT, ConnectivityClass.UPNP,
                ConnectivityClass.NAT, ConnectivityClass.FIREWALL]

weights = st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(
    lambda w: sum(w) > 0)


def _probs(w):
    total = sum(w)
    return [x / total for x in w]


# ---------------------------------------------------------------------------
# single weighted draws
# ---------------------------------------------------------------------------
class TestScalarWeightedDraw:
    """``bisect_right(choice_cdf(p), rng.random())`` is ``choice(n, p=p)``."""

    @staticmethod
    def _assert_same_stream(p, draw, seed, n_draws=40):
        ref = np.random.default_rng(seed)
        new = np.random.default_rng(seed)
        for _ in range(n_draws):
            assert draw(new) == int(ref.choice(len(p), p=np.asarray(p)))
        assert new.random() == ref.random()

    @given(w=weights, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_cdf_draw_matches_choice(self, w, seed):
        from bisect import bisect_right

        p = _probs(w)
        cdf = choice_cdf(p)
        self._assert_same_stream(p, lambda r: bisect_right(cdf, r.random()), seed)

    @given(w=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12).filter(
        lambda w: sum(w) > 0))
    @settings(max_examples=150, deadline=None)
    def test_cdf_is_numpys_cdf(self, w):
        ref = np.asarray(w, dtype=float).cumsum()
        ref /= ref[-1]
        assert choice_cdf(w) == ref.tolist()

    @given(w=st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(
        lambda w: sum(w) > 0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_connectivity_mix_sample(self, w, seed):
        p = _probs(w)
        classes = USER_CLASSES[:len(p)]
        mix = ConnectivityMix(fractions=dict(zip(classes, p)))
        self._assert_same_stream(
            p, lambda r: classes.index(mix.sample(r)), seed)

    @given(w=weights, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_capacity_sample_upload(self, w, seed):
        p = _probs(w)
        ups = tuple(float(1000 * (i + 1)) for i in range(len(p)))
        model = CapacityModel(profiles={
            ConnectivityClass.NAT: CapacityProfile(ups, tuple(p))})
        ref = np.random.default_rng(seed)
        new = np.random.default_rng(seed)
        profile = model.profiles[ConnectivityClass.NAT]
        for _ in range(40):
            got = model.sample_upload(ConnectivityClass.NAT, new)
            assert type(got) is float
            assert got == float(profile.sample(1, ref)[0])
        assert new.random() == ref.random()

    @pytest.mark.parametrize("w", [
        [0, 1], [1, 0], [0, 0, 3, 0], [1, 1], [1, 1, 1, 1], [2, 0, 2],
        [0.18, 0.12, 0.55, 0.15], [0.30, 0.40, 0.30], [1e-12, 1.0 - 1e-12],
    ])
    def test_seeded_vectors(self, w):
        from bisect import bisect_right

        p = _probs(w)
        cdf = choice_cdf(p)
        for seed in range(5):
            self._assert_same_stream(
                p, lambda r: bisect_right(cdf, r.random()), seed, n_draws=500)

    @pytest.mark.parametrize("w", [[0, 1], [1, 1], [2, 0, 2], [0, 0, 3, 0],
                                   [0.3, 0.4, 0.3]])
    def test_ties_at_cdf_boundaries(self, w):
        """A uniform exactly on (or next to) a cdf step goes where numpy's
        ``searchsorted(..., 'right')`` sends it."""
        from bisect import bisect_right

        p = _probs(w)
        cdf = choice_cdf(p)
        ref = np.asarray(p, dtype=float).cumsum()
        ref /= ref[-1]
        assert cdf == ref.tolist()
        for c in cdf:
            for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)):
                if 0.0 <= u < 1.0:
                    assert bisect_right(cdf, float(u)) == int(
                        ref.searchsorted(u, side="right"))

    def test_default_models_match_choice(self):
        mix = ConnectivityMix()
        model = CapacityModel()
        ref = np.random.default_rng(11)
        new = np.random.default_rng(11)
        for _ in range(300):
            cls = mix.sample(new)
            assert cls == mix.sample_many(1, ref)[0]
            assert model.sample_upload(cls, new) == float(
                model.profiles[cls].sample(1, ref)[0])
        assert new.random() == ref.random()

    def test_through_the_strict_sanitizer(self):
        """The draws go through the sanitizer's stream proxy: one counted
        draw per sample, as ``choice`` was, and the same values."""
        mix = ConnectivityMix()
        model = CapacityModel()
        plain = RngHub(3, sanitize=False).stream("population")
        hub = RngHub(3, sanitize="strict")
        hub.declare("population")
        proxy = hub.stream("population")
        assert not isinstance(proxy, np.random.Generator)
        for _ in range(50):
            cls = mix.sample(proxy)
            assert cls == mix.sample_many(1, plain)[0]
            assert model.sample_upload(cls, proxy) == float(
                model.profiles[cls].sample(1, plain)[0])
        assert hub.draw_counts == {"population": 100}
        assert hub.violations == []
        assert proxy.random() == plain.random()


# ---------------------------------------------------------------------------
# slotted records
# ---------------------------------------------------------------------------
class TestSlottedBufferMap:
    @given(k=st.integers(1, 8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_max_head_on_every_construction_path(self, k, data):
        g = StreamGeometry(k)
        local = data.draw(st.lists(st.integers(-1, 500), min_size=1, max_size=k))
        subs = [bool(h % 2) for h in local]
        built = BufferMap.from_local_heads(local, g, subs)
        heads = built.heads
        assert built.max_head == max(heads)
        for bm in (BufferMap(heads=heads, subscriptions=tuple(subs)),
                   BufferMap.trusted(heads, tuple(subs)),
                   BufferMap.from_tuple(built.as_tuple())):
            assert bm.max_head == max(heads)
            assert bm == built and hash(bm) == hash(built)

    def test_from_local_heads_matches_validated_constructor(self):
        g = StreamGeometry(4)
        bm = BufferMap.from_local_heads(iter([3, -1, 0, 7]), g,
                                        (1, 0, 0, 1))
        assert bm == BufferMap(heads=(12, -1, 2, 31),
                               subscriptions=(True, False, False, True))
        assert bm.subscriptions == (True, False, False, True)
        assert BufferMap.from_local_heads([5, 5], StreamGeometry(2)).subscriptions \
            == (False, False)

    def test_from_local_heads_keeps_both_checks(self):
        g = StreamGeometry(2)
        with pytest.raises(ValueError, match="at least one sub-stream"):
            BufferMap.from_local_heads([], g)
        with pytest.raises(ValueError, match="out of range"):
            BufferMap.from_local_heads([1, 2, 3], g)
        with pytest.raises(ValueError, match="length K"):
            BufferMap.from_local_heads([1, 2], g, [True])

    def test_frozen_and_slotted(self):
        bm = BufferMap(heads=(4, 9), subscriptions=(True, False))
        for name in ("heads", "subscriptions", "max_head"):
            with pytest.raises(FrozenInstanceError):
                setattr(bm, name, (0, 0))
        assert not hasattr(bm, "__dict__")

    def test_eq_hash_repr_ignore_max_head(self):
        bm = BufferMap(heads=(4, 9), subscriptions=(True, False))
        other = BufferMap(heads=(4, 9), subscriptions=(True, False))
        BufferMap.max_head.__set__(other, 123)
        assert bm == other and hash(bm) == hash(other)
        assert repr(bm) == repr(other)
        assert "max_head" not in repr(bm)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        bm = BufferMap.from_local_heads([3, -1, 8], StreamGeometry(3),
                                        [True, False, True])
        back = pickle.loads(pickle.dumps(bm, protocol))
        assert back == bm
        assert back.max_head == bm.max_head == 8 * 3 + 2


class TestSlottedMCacheEntry:
    @given(node_id=st.integers(-50, 10**6), cls=st.sampled_from(ConnectivityClass),
           joined=st.floats(0, 1e6), seen=st.floats(0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_make_entry_equals_constructor(self, node_id, cls, joined, seen):
        built = make_entry(node_id, cls, joined, seen)
        ref = MCacheEntry(node_id=node_id, connectivity=cls,
                          joined_at=joined, last_seen=seen)
        assert type(built) is MCacheEntry
        assert built == ref and hash(built) == hash(ref)
        assert repr(built) == repr(ref)
        assert ref.refreshed(seen + 1.0) == MCacheEntry(
            node_id=node_id, connectivity=cls, joined_at=joined,
            last_seen=seen + 1.0)

    def test_frozen_slotted_picklable(self):
        e = make_entry(7, ConnectivityClass.NAT, 1.5, 2.5)
        with pytest.raises(FrozenInstanceError):
            e.last_seen = 3.0
        assert not hasattr(e, "__dict__")
        assert pickle.loads(pickle.dumps(e)) == e

    def test_insert_merge_keeps_earliest_join(self, rng):
        cache = MCache(owner_id=0, capacity=4)
        cache.insert(make_entry(3, ConnectivityClass.UPNP, 5.0, 5.0), 6.0, rng)
        cache.insert(MCacheEntry(3, ConnectivityClass.DIRECT, 2.0, 2.0), 9.0, rng)
        assert cache.entries() == [MCacheEntry(3, ConnectivityClass.DIRECT, 2.0, 9.0)]

    @given(seed=st.integers(0, 2**32 - 1),
           excl=st.lists(st.integers(1, 12), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_sample_uses_a_given_set_as_is(self, seed, excl):
        cache = MCache(owner_id=0, capacity=12)
        for i in range(1, 13):
            cache.insert(make_entry(i, ConnectivityClass.DIRECT, 0.0, 0.0), 1.0)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        as_list = cache.sample(5, a, exclude=list(excl))
        as_set = cache.sample(5, b, exclude=set(excl))
        assert as_list == as_set
        assert a.random() == b.random()


# ---------------------------------------------------------------------------
# bootstrap pool
# ---------------------------------------------------------------------------
def sample_for_oracle(boot, requester_id, rng, n):
    """``BootstrapNode.sample_for`` as it was, filtering in Python."""
    pool = [e for nid, e in boot._registry.items() if nid != requester_id]
    if not pool:
        return []
    take = min(n, len(pool))
    idx = rng.choice(len(pool), size=take, replace=False)
    sample = [pool[i] for i in idx]
    have_servers = sum(
        1 for e in sample if e.connectivity is ConnectivityClass.SERVER)
    if have_servers < boot._min_servers and boot._server_ids:
        k = min(boot._min_servers - have_servers, len(boot._server_ids))
        picks = rng.choice(len(boot._server_ids), size=k, replace=False)
        extra = [boot._registry[boot._server_ids[i]] for i in picks]
        sample = extra + sample[: max(0, n - len(extra))]
    return sample


def _bootstrap(seed, n, min_servers):
    system = SimpleNamespace(
        rng=RngHub(seed, sanitize=False),
        cfg=SimpleNamespace(bootstrap_sample=n),
        latency=SimpleNamespace(register=lambda *_a: None),
    )
    return BootstrapNode(system, min_servers_in_reply=min_servers)


class TestBootstrapSample:
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodes=st.lists(st.tuples(st.integers(1, 60), st.booleans()),
                       max_size=25, unique_by=lambda t: t[0]),
        requester=st.integers(1, 70),
        n=st.integers(1, 12),
        min_servers=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_python_filter(self, seed, nodes, requester, n,
                                       min_servers):
        boot = _bootstrap(seed, n, min_servers)
        for nid, server in nodes:
            cls = ConnectivityClass.SERVER if server else ConnectivityClass.NAT
            boot.register(make_entry(nid, cls, 0.0, 0.0))
        ref_rng = np.random.default_rng(0)
        ref_rng.bit_generator.state = boot.system.rng.stream(
            "bootstrap").bit_generator.state
        for _ in range(3):
            got = boot.sample_for(requester)
            # (a server requester may get itself back as the topped-up
            # server: the reference does the same)
            assert got == sample_for_oracle(boot, requester, ref_rng, n)
        assert boot.system.rng.stream("bootstrap").random() == ref_rng.random()

    @pytest.mark.parametrize("case", ["registered", "unregistered", "alone",
                                      "servers_only"])
    def test_seeded_cases(self, case):
        boot = _bootstrap(5, 4, 1)
        ids = {"registered": range(1, 9), "unregistered": range(1, 9),
               "alone": [3], "servers_only": [1, 2, 3]}[case]
        for nid in ids:
            server = case == "servers_only" or nid % 4 == 0
            cls = ConnectivityClass.SERVER if server else ConnectivityClass.DIRECT
            boot.register(make_entry(nid, cls, 0.0, 0.0))
        requester = 99 if case == "unregistered" else 3
        ref_rng = np.random.default_rng(0)
        ref_rng.bit_generator.state = boot.system.rng.stream(
            "bootstrap").bit_generator.state
        got = boot.sample_for(requester)
        assert got == sample_for_oracle(boot, requester, ref_rng, 4)
        if case == "alone":
            assert got == []
        else:
            assert got
        assert boot.system.rng.stream("bootstrap").random() == ref_rng.random()


# ---------------------------------------------------------------------------
# the push quantum
# ---------------------------------------------------------------------------
def deliver_oracle(sched, dt, parent_heads, window, push):
    """``UploadScheduler.deliver`` as it was, with a per-connection head list."""
    conns_map = sched._conns
    if not conns_map:
        return 0.0
    conns = list(conns_map.values())
    sub_rate = sched._sub_rate
    catchup = sched._catchup_demand
    window = int(window)
    demands = []
    heads = []
    total = 0.0
    for conn in conns:
        head = parent_heads[conn.substream]
        heads.append(head)
        if head < 0:
            demands.append(0.0)
            continue
        floor = head - window + 1
        if 0 < floor and conn.next_index < floor:
            conn.next_index = floor
        d = catchup if conn.next_index <= head else sub_rate
        demands.append(d)
        total += d
    if total <= sched.upload_bps:
        rates = demands
        sched.last_saturated = False
    else:
        if len(demands) <= _SMALL_N:
            rates = _waterfill_py(sched.upload_bps, demands)
        else:
            rates = waterfill_rates(sched.upload_bps, demands)
        sched.last_saturated = True
    block_bits = sched._block_bits
    bits_this_quantum = 0.0
    for conn, rate, head in zip(conns, rates, heads):
        if head < 0:
            continue
        credit = conn.credit + rate * dt / block_bits
        n = int(credit)
        if n > 0:
            deliverable = head - conn.next_index + 1
            if n > deliverable:
                n = deliverable
            if n > 0:
                first = conn.next_index
                conn.next_index = first + n
                credit -= n
                bits_this_quantum += n * block_bits
                push(conn, first, first + n - 1)
        if credit > 2.0:
            credit = 2.0
        conn.credit = credit
    sched.bits_uploaded += bits_this_quantum
    return bits_this_quantum


def _run_both(upload, subs, quanta, window, dead=frozenset()):
    """Drive the scheduler and the oracle through the same quanta."""
    states = []
    for deliver in (UploadScheduler.deliver, deliver_oracle):
        sched = UploadScheduler(upload, 1.0, 1.0)
        for child, sub, start in subs:
            sched.subscribe(child, sub, start)
        pushes = []

        def push(conn, first, last, sched=sched, pushes=pushes):
            if conn.child_id in dead:  # a departed child, as PeerNode._push does
                sched.drop_child(conn.child_id)
                return
            pushes.append((conn.child_id, conn.substream, first, last))

        trace = []
        for dt, heads in quanta:
            bits = deliver(sched, dt, heads, window, push)
            trace.append((bits, sched.last_saturated, sched.bits_uploaded,
                          [(c.child_id, c.substream, c.next_index, c.credit)
                           for c in sched._conns.values()]))
        states.append((pushes, trace))
    return states


class TestDeliverQuantum:
    @given(
        upload=st.sampled_from([0.0, 0.5, 1.0, 2.5, 6.0, 13.0, 100.0]),
        subs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2),
                                st.integers(0, 30)), min_size=1, max_size=10),
        quanta=st.lists(
            st.tuples(st.sampled_from([0.25, 0.5, 1.0, 1.7, 3.0]),
                      st.lists(st.integers(-1, 40), min_size=3, max_size=3)),
            min_size=1, max_size=12),
        window=st.integers(1, 20),
        dead=st.frozensets(st.integers(0, 6), max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_connection_head_list(self, upload, subs, quanta,
                                                  window, dead):
        new, ref = _run_both(upload, subs, quanta, window, dead)
        assert new == ref

    def test_seeded_walk_covers_both_sides_and_the_wide_fill(self):
        rng = np.random.default_rng(2024)
        saturated = set()
        for trial in range(30):
            n_conns = 24 if trial % 3 == 0 else 6  # > _SMALL_N: numpy fill
            subs = [(c, c % 4, int(rng.integers(0, 20))) for c in range(n_conns)]
            heads = [int(h) for h in rng.integers(-1, 10, size=4)]
            quanta = []
            for _ in range(15):
                heads = [h + int(rng.integers(0, 3)) for h in heads]
                quanta.append((float(rng.choice([0.5, 1.0, 2.0])), list(heads)))
            upload = float(rng.choice([2.0, 10.0, 40.0, 400.0]))
            new, ref = _run_both(upload, subs, quanta, int(rng.integers(3, 30)))
            assert new == ref
            saturated.update(s for _b, s, _u, _c in new[1])
        assert saturated == {True, False}


class TestEvictionHoleBridge:
    @given(
        start=st.integers(0, 5),
        pending=st.lists(st.integers(0, 40), max_size=6),
        gap=st.integers(1, 10),
        span=st.integers(0, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_range_equals_hole_then_interval(self, start, pending, gap, span):
        """``deliver_blocks`` marks an eviction hole and the pushed interval
        with one ``receive_range(head + 1, last)``."""
        one, two = SyncBuffer(start), SyncBuffer(start)
        for i in pending:
            one.receive(i)
            two.receive(i)
        head = one.head
        first = head + 1 + gap
        last = first + span
        two.receive_range(head + 1, first - 1)
        two.receive_range(first, last)
        one.receive_range(head + 1, last)
        assert (one.head, one.count, one.pending) == (two.head, two.count,
                                                      two.pending)


# ---------------------------------------------------------------------------
# the adaptation check
# ---------------------------------------------------------------------------
def adaptation_choice_oracle(heads, parents, partners, geometry, ts, tp):
    """The sub-stream ``PeerNode._adaptation_check`` re-selects, from the
    reference rules of ``core.adaptation``: the violator of Inequality (1)
    or (2) that lags the most (the first on ties); None when none does."""
    best = max((max(s.bm.heads) for s in partners.states()
                if s.bm is not None), default=-1)
    best_local = -1 if best < 0 else geometry.local_index(best)
    worst = None
    for sub, parent in enumerate(parents):
        if parent is None:
            continue
        state = partners.get(parent)
        bm = None if state is None else state.bm
        parent_head = -1 if bm is None else bm.head_local(sub, geometry)
        if (inequality1_ok(heads, sub, ts)
                and inequality2_ok(parent_head, best_local, tp)):
            continue
        if worst is None or (substream_lag(heads, sub)
                             > substream_lag(heads, worst)):
            worst = sub
    return worst


def _adaptation_choice(heads, parents, partner_heads, geometry, ts, tp):
    """Run ``PeerNode._adaptation_check`` on a stub node whose partners
    have the given local heads (None: partnered, no BM yet); returns the
    sub-streams handed to ``_reselect_parent`` and the partner set."""
    partners = PartnershipManager(owner_id=0, max_partners=8)
    for pid, local in partner_heads.items():
        partners.add(pid, Direction.OUTGOING, now=0.0)
        if local is not None:
            partners.record_bm(
                pid, BufferMap.from_local_heads(local, geometry), now=1.0)
    chosen = []
    node = SimpleNamespace(
        sync=SyncBuffer(0), cfg=SimpleNamespace(ts_seconds=ts, tp_seconds=tp),
        partners=partners, geometry=geometry, heads=list(heads),
        parents=list(parents), _reselect_parent=chosen.append)
    PeerNode._adaptation_check(node)
    return chosen, partners


class TestAdaptationCheck:
    thresholds = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5, 8.0])

    @given(k=st.integers(1, 4), ts=thresholds, tp=thresholds, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_inequalities(self, k, ts, tp, data):
        geometry = StreamGeometry(k)
        local_heads = st.lists(st.integers(-1, 12), min_size=k, max_size=k)
        heads = data.draw(local_heads)
        # partner ids 1-5 (an id may be a parent without being a partner)
        partner_heads = data.draw(st.dictionaries(
            st.integers(1, 5), st.none() | local_heads, max_size=5))
        parents = data.draw(st.lists(st.none() | st.integers(1, 5),
                                     min_size=k, max_size=k))
        chosen, partners = _adaptation_choice(heads, parents, partner_heads,
                                              geometry, ts, tp)
        expected = adaptation_choice_oracle(heads, parents, partners,
                                            geometry, ts, tp)
        assert chosen == ([] if expected is None else [expected])

    @pytest.mark.parametrize("heads, partner_heads, expected", [
        # Inequality (1) alone: sub-stream 1 lags our own best by T_s
        ([10, 6], {1: [10, 10], 2: [10, 10]}, [1]),
        # Inequality (2) alone: sub-stream 0's parent lags partner 2 by T_p
        ([10, 10], {1: [5, 10], 2: [10, 10]}, [0]),
        # both hold, one block inside each threshold
        ([10, 7], {1: [10, 10], 2: [14, 14]}, []),
        # the larger own lag wins when both sub-streams violate
        ([3, 9], {1: [3, 9], 2: [20, 20]}, [0]),
    ])
    def test_threshold_cases(self, heads, partner_heads, expected):
        geometry = StreamGeometry(2)
        chosen, partners = _adaptation_choice(heads, [1, 1], partner_heads,
                                              geometry, ts=4.0, tp=5.0)
        oracle = adaptation_choice_oracle(heads, [1, 1], partners, geometry,
                                          ts=4.0, tp=5.0)
        assert chosen == expected == ([] if oracle is None else [oracle])
