"""Unit tests for capacity sampling and the latency model."""

import numpy as np
import pytest

from repro.network.capacity import CapacityModel, CapacityProfile
from repro.network.connectivity import ConnectivityClass
from repro.network.latency import LatencyModel


class TestCapacityProfile:
    def test_mean(self):
        p = CapacityProfile(uploads_bps=(100.0, 200.0), probabilities=(0.5, 0.5))
        assert p.mean_bps == 150.0

    def test_sampling_from_tiers_only(self, rng):
        p = CapacityProfile(uploads_bps=(100.0, 200.0), probabilities=(0.3, 0.7))
        samples = p.sample(1000, rng)
        assert set(np.unique(samples)) <= {100.0, 200.0}

    def test_sampling_statistics(self, rng):
        p = CapacityProfile(uploads_bps=(0.0, 1.0), probabilities=(0.25, 0.75))
        assert 0.70 < p.sample(5000, rng).mean() < 0.80

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            CapacityProfile(uploads_bps=(1.0,), probabilities=(0.5, 0.5))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CapacityProfile(uploads_bps=(1.0, 2.0), probabilities=(0.5, 0.6))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            CapacityProfile(uploads_bps=(), probabilities=())

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacityProfile(uploads_bps=(-1.0,), probabilities=(1.0,))

    def test_negative_probability_rejected(self):
        # sums to 1, so only a sign check catches it before the first draw
        with pytest.raises(ValueError, match="Probabilities are not non-negative"):
            CapacityProfile(uploads_bps=(1e6, 2e6), probabilities=(1.5, -0.5))


class TestCapacityModel:
    def test_default_has_all_classes(self):
        model = CapacityModel()
        for cls in ConnectivityClass:
            assert model.sample_upload(cls, np.random.default_rng(0)) >= 0

    def test_server_capacity_is_100mbps(self, rng):
        assert CapacityModel().sample_upload(
            ConnectivityClass.SERVER, rng
        ) == 100_000_000.0

    def test_contributor_classes_have_higher_mean(self):
        model = CapacityModel()
        assert model.mean_upload(ConnectivityClass.DIRECT) > model.mean_upload(
            ConnectivityClass.NAT
        )
        assert model.mean_upload(ConnectivityClass.UPNP) > model.mean_upload(
            ConnectivityClass.NAT
        )

    def test_vectorized_sampling_matches_classes(self, rng):
        model = CapacityModel()
        classes = [ConnectivityClass.SERVER] * 3 + [ConnectivityClass.NAT] * 2
        ups = model.sample_uploads(classes, rng)
        assert (ups[:3] == 100_000_000.0).all()
        assert (ups[3:] < 1_000_000.0).all()


    def test_scaled_model(self, rng):
        model = CapacityModel().scaled(0.5)
        assert model.sample_upload(ConnectivityClass.SERVER, rng) == 50_000_000.0

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CapacityModel().scaled(0.0)


class TestLatencyModel:
    def test_delay_requires_registration(self, rng):
        model = LatencyModel()
        model.register("a", rng)
        with pytest.raises(KeyError):
            model.delay("a", "b")

    def test_delay_is_symmetric(self, rng):
        model = LatencyModel()
        model.register("a", rng)
        model.register("b", rng)
        assert model.delay("a", "b") == model.delay("b", "a")

    def test_delay_at_least_base(self, rng):
        model = LatencyModel(base_s=0.02)
        model.register("a", rng)
        model.register("b", rng)
        assert model.delay("a", "b") >= 0.02

    def test_rtt_is_twice_delay(self, rng):
        model = LatencyModel()
        model.register("a", rng)
        model.register("b", rng)
        assert model.rtt("a", "b") == 2 * model.delay("a", "b")

    def test_register_is_idempotent(self, rng):
        model = LatencyModel()
        r1 = model.register("a", rng)
        r2 = model.register("a", rng)
        assert r1 == r2

    def test_unregister(self, rng):
        model = LatencyModel()
        model.register("a", rng)
        model.unregister("a")
        assert "a" not in model

    def test_triangle_inequality(self, rng):
        model = LatencyModel()
        for n in ("a", "b", "c"):
            model.register(n, rng)
        assert model.delay("a", "c") <= (
            model.delay("a", "b") + model.delay("b", "c") + 1e-12
        )

    def test_zero_radius_model(self, rng):
        model = LatencyModel(base_s=0.01, mean_radius_s=0.0)
        model.register("a", rng)
        model.register("b", rng)
        assert model.delay("a", "b") == 0.01

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_s=-0.1)
