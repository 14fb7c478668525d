"""Unit tests for connectivity classes and the partnership-direction rule."""

import numpy as np
import pytest

from repro.network.connectivity import (
    ConnectivityClass,
    ConnectivityMix,
    can_accept_incoming,
    can_establish,
)


class TestClasses:
    def test_public_address_classes(self):
        assert ConnectivityClass.DIRECT.has_public_address
        assert ConnectivityClass.FIREWALL.has_public_address
        assert ConnectivityClass.SERVER.has_public_address
        assert not ConnectivityClass.UPNP.has_public_address
        assert not ConnectivityClass.NAT.has_public_address

    def test_incoming_acceptance(self):
        assert can_accept_incoming(ConnectivityClass.DIRECT)
        assert can_accept_incoming(ConnectivityClass.UPNP)
        assert can_accept_incoming(ConnectivityClass.SERVER)
        assert not can_accept_incoming(ConnectivityClass.NAT)
        assert not can_accept_incoming(ConnectivityClass.FIREWALL)

    def test_contributor_classes(self):
        contributors = {c for c in ConnectivityClass if c.is_contributor_class}
        assert contributors == {
            ConnectivityClass.DIRECT,
            ConnectivityClass.UPNP,
            ConnectivityClass.SERVER,
        }


class TestEstablishment:
    @pytest.mark.parametrize("initiator", list(ConnectivityClass))
    def test_anyone_can_reach_direct(self, initiator):
        assert can_establish(initiator, ConnectivityClass.DIRECT)

    @pytest.mark.parametrize("initiator", list(ConnectivityClass))
    def test_anyone_can_reach_upnp(self, initiator):
        assert can_establish(initiator, ConnectivityClass.UPNP)

    @pytest.mark.parametrize(
        "target", [ConnectivityClass.NAT, ConnectivityClass.FIREWALL]
    )
    def test_unreachable_without_traversal(self, target):
        assert not can_establish(ConnectivityClass.NAT, target)
        assert not can_establish(ConnectivityClass.DIRECT, target)

    def test_traversal_requires_rng(self):
        with pytest.raises(ValueError):
            can_establish(
                ConnectivityClass.NAT, ConnectivityClass.NAT,
                nat_traversal_prob=0.5,
            )

    def test_traversal_probability_one_always_succeeds(self, rng):
        assert can_establish(
            ConnectivityClass.NAT, ConnectivityClass.NAT,
            nat_traversal_prob=1.0, rng=rng,
        )

    def test_traversal_statistics(self, rng):
        hits = sum(
            can_establish(
                ConnectivityClass.NAT, ConnectivityClass.FIREWALL,
                nat_traversal_prob=0.3, rng=rng,
            )
            for _ in range(3000)
        )
        assert 0.25 < hits / 3000 < 0.35


class TestMix:
    def test_default_mix_sums_to_one(self):
        mix = ConnectivityMix()
        assert np.isclose(sum(mix.fractions.values()), 1.0)

    def test_default_contributor_fraction_around_30pct(self):
        # Fig. 3a: "30% or so" of peers are direct + UPnP
        assert 0.2 <= ConnectivityMix().contributor_fraction <= 0.4

    def test_invalid_sum_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityMix(fractions={
                ConnectivityClass.DIRECT: 0.5,
                ConnectivityClass.NAT: 0.2,
            })

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            ConnectivityMix(fractions={
                ConnectivityClass.DIRECT: 1.3,
                ConnectivityClass.NAT: -0.3,
            })

    def test_server_class_not_samplable(self):
        with pytest.raises(ValueError):
            ConnectivityMix(fractions={
                ConnectivityClass.SERVER: 0.5,
                ConnectivityClass.NAT: 0.5,
            })

    def test_sample_many_respects_fractions(self, rng):
        mix = ConnectivityMix(fractions={
            ConnectivityClass.DIRECT: 0.7,
            ConnectivityClass.NAT: 0.3,
        })
        samples = mix.sample_many(5000, rng)
        frac_direct = sum(
            1 for c in samples if c is ConnectivityClass.DIRECT
        ) / 5000
        assert 0.65 < frac_direct < 0.75

    def test_sample_returns_single_class(self, rng):
        assert isinstance(ConnectivityMix().sample(rng), ConnectivityClass)

    def test_degenerate_mix(self, rng):
        mix = ConnectivityMix(fractions={ConnectivityClass.NAT: 1.0})
        assert all(
            c is ConnectivityClass.NAT for c in mix.sample_many(20, rng)
        )
