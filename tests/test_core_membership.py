"""Unit tests for the mCache and its replacement policies."""

import numpy as np
import pytest

from repro.core.membership import MCache, MCacheEntry, ReplacementPolicy
from repro.network.connectivity import ConnectivityClass


def entry(node_id, joined_at=0.0, cls=ConnectivityClass.DIRECT):
    return MCacheEntry(
        node_id=node_id, connectivity=cls, joined_at=joined_at, last_seen=joined_at
    )


class TestBasics:
    def test_insert_and_contains(self, rng):
        cache = MCache(owner_id=1, capacity=4)
        assert cache.insert(entry(2), now=1.0, rng=rng)
        assert 2 in cache
        assert len(cache) == 1

    def test_owner_never_stored(self, rng):
        cache = MCache(owner_id=1, capacity=4)
        assert not cache.insert(entry(1), now=1.0, rng=rng)
        assert 1 not in cache

    def test_reinsert_refreshes_not_duplicates(self, rng):
        cache = MCache(owner_id=1, capacity=4)
        cache.insert(entry(2, joined_at=0.0), now=1.0, rng=rng)
        cache.insert(entry(2, joined_at=5.0), now=10.0, rng=rng)
        assert len(cache) == 1
        stored = cache.entries()[0]
        assert stored.last_seen == 10.0
        # earliest join time is kept (it is the node's true age)
        assert stored.joined_at == 0.0

    def test_remove_idempotent(self, rng):
        cache = MCache(owner_id=1, capacity=4)
        cache.insert(entry(2), now=0.0, rng=rng)
        cache.remove(2)
        cache.remove(2)
        assert 2 not in cache

    def test_insert_many_counts(self, rng):
        cache = MCache(owner_id=1, capacity=8)
        n = cache.insert_many([entry(i) for i in range(2, 7)], now=0.0, rng=rng)
        assert n == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MCache(owner_id=1, capacity=0)


class TestRandomReplacement:
    def test_full_cache_still_accepts_newcomer(self, rng):
        cache = MCache(owner_id=0, capacity=3, policy=ReplacementPolicy.RANDOM)
        for i in range(1, 4):
            cache.insert(entry(i), now=0.0, rng=rng)
        assert cache.insert(entry(99), now=1.0, rng=rng)
        assert 99 in cache
        assert len(cache) == 3

    def test_random_policy_requires_rng(self):
        cache = MCache(owner_id=0, capacity=1, policy=ReplacementPolicy.RANDOM)
        cache.insert(entry(1), now=0.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            cache.insert(entry(2), now=0.0)

    def test_flash_crowd_poisons_random_cache(self, rng):
        """The Section V.C pathology: a storm of young entries displaces
        the old stable ones under random replacement."""
        cache = MCache(owner_id=0, capacity=10, policy=ReplacementPolicy.RANDOM)
        for i in range(1, 11):
            cache.insert(entry(i, joined_at=0.0), now=0.0, rng=rng)
        # 100 newcomers at t=1000
        for i in range(100, 200):
            cache.insert(entry(i, joined_at=1000.0), now=1000.0, rng=rng)
        assert not any(i in cache for i in range(1, 11))


class TestAgeReplacement:
    def test_old_entry_displaces_youngest(self, rng):
        cache = MCache(owner_id=0, capacity=2, policy=ReplacementPolicy.AGE)
        cache.insert(entry(1, joined_at=100.0), now=100.0, rng=rng)
        cache.insert(entry(2, joined_at=200.0), now=200.0, rng=rng)
        assert cache.insert(entry(3, joined_at=50.0), now=300.0, rng=rng)
        assert 2 not in cache  # youngest evicted
        assert 1 in cache and 3 in cache

    def test_young_entry_rejected_when_full(self, rng):
        cache = MCache(owner_id=0, capacity=2, policy=ReplacementPolicy.AGE)
        cache.insert(entry(1, joined_at=0.0), now=0.0, rng=rng)
        cache.insert(entry(2, joined_at=10.0), now=10.0, rng=rng)
        assert not cache.insert(entry(3, joined_at=500.0), now=500.0, rng=rng)
        assert 3 not in cache

    def test_age_cache_resists_flash_crowd(self, rng):
        cache = MCache(owner_id=0, capacity=10, policy=ReplacementPolicy.AGE)
        for i in range(1, 11):
            cache.insert(entry(i, joined_at=0.0), now=0.0, rng=rng)
        for i in range(100, 200):
            cache.insert(entry(i, joined_at=1000.0), now=1000.0, rng=rng)
        assert all(i in cache for i in range(1, 11))


class TestSampling:
    def test_sample_size_bounded_by_population(self, rng):
        cache = MCache(owner_id=0, capacity=8)
        for i in range(1, 4):
            cache.insert(entry(i), now=0.0, rng=rng)
        assert len(cache.sample(10, rng)) == 3

    def test_sample_distinct(self, rng):
        cache = MCache(owner_id=0, capacity=16)
        for i in range(1, 11):
            cache.insert(entry(i), now=0.0, rng=rng)
        got = cache.sample(10, rng)
        assert len({e.node_id for e in got}) == 10

    def test_sample_respects_exclusion(self, rng):
        cache = MCache(owner_id=0, capacity=8)
        for i in range(1, 6):
            cache.insert(entry(i), now=0.0, rng=rng)
        got = cache.sample(5, rng, exclude=[1, 2])
        assert {e.node_id for e in got} <= {3, 4, 5}

    def test_sample_empty_cache(self, rng):
        assert MCache(owner_id=0, capacity=4).sample(3, rng) == []

    def test_gossip_payload_includes_self_entry(self, rng):
        cache = MCache(owner_id=0, capacity=8)
        cache.insert(entry(1), now=0.0, rng=rng)
        me = entry(0)
        payload = cache.gossip_payload(4, rng, self_entry=me)
        assert payload[0] is me


class TestEntry:
    def test_refreshed(self):
        e = entry(1, joined_at=10.0)
        r = e.refreshed(now=99.0)
        assert r.last_seen == 99.0
        assert r.joined_at == 10.0
