"""Tests for the Section V.B classifier and contribution analysis."""

import numpy as np
import pytest

from repro.analysis.classification import UserType, type_distribution
from repro.analysis.contribution import (
    contribution_by_type,
    contributor_class_share,
    lorenz_curve,
    top_contributor_share,
)
from repro.analysis.streaming import (
    ClassifyUsersFold,
    UploadTotalsFold,
    fold_log,
)
from repro.telemetry.reports import (
    ActivityEvent,
    ActivityReport,
    PartnerReport,
    TrafficReport,
)
from repro.telemetry.server import LogServer


def add_node(server, node_id, *, public, incoming, outgoing, upload=0.0):
    server.receive_report(0.0, ActivityReport(
        time=0.0, node_id=node_id, user_id=node_id, session_id=node_id,
        event=ActivityEvent.JOIN, address_public=public,
    ))
    server.receive_report(300.0, PartnerReport(
        time=300.0, node_id=node_id, user_id=node_id, session_id=node_id,
        n_partners=incoming + outgoing, n_incoming=incoming,
        n_outgoing=outgoing,
    ))
    if upload:
        server.receive_report(300.0, TrafficReport(
            time=300.0, node_id=node_id, user_id=node_id, session_id=node_id,
            bytes_up=upload, bytes_down=0.0, total_up=upload, total_down=0.0,
        ))


def classify(server):
    return fold_log(server, ClassifyUsersFold())[0]


class TestClassifier:
    def test_four_quadrants(self):
        server = LogServer()
        add_node(server, 1, public=True, incoming=3, outgoing=2)   # direct
        add_node(server, 2, public=False, incoming=1, outgoing=4)  # upnp
        add_node(server, 3, public=False, incoming=0, outgoing=5)  # nat
        add_node(server, 4, public=True, incoming=0, outgoing=5)   # firewall
        types = classify(server)
        assert types == {
            1: UserType.DIRECT, 2: UserType.UPNP,
            3: UserType.NAT, 4: UserType.FIREWALL,
        }

    def test_misclassification_without_incoming(self):
        """A public peer that never received an incoming partnership is
        (mis)classified as firewalled -- the paper's 'errors can occur'."""
        server = LogServer()
        add_node(server, 1, public=True, incoming=0, outgoing=3)
        assert classify(server)[1] is UserType.FIREWALL

    def test_node_with_only_activity_report(self):
        server = LogServer()
        server.receive_report(0.0, ActivityReport(
            time=0.0, node_id=1, user_id=1, session_id=1,
            event=ActivityEvent.JOIN, address_public=False,
        ))
        assert classify(server)[1] is UserType.NAT

    def test_event_series_reveals_direction(self):
        from repro.telemetry.reports import PartnerEvent, PartnerOp
        server = LogServer()
        server.receive_report(0.0, ActivityReport(
            time=0.0, node_id=1, user_id=1, session_id=1,
            event=ActivityEvent.JOIN, address_public=False,
        ))
        server.receive_report(300.0, PartnerReport(
            time=300.0, node_id=1, user_id=1, session_id=1,
            events=(PartnerEvent(10.0, PartnerOp.ADD, 5, incoming=True),),
        ))
        assert classify(server)[1] is UserType.UPNP

    def test_type_distribution_sums_to_one(self):
        server = LogServer()
        add_node(server, 1, public=True, incoming=1, outgoing=1)
        add_node(server, 2, public=False, incoming=0, outgoing=1)
        dist = type_distribution(classify(server))
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_empty_distribution(self):
        assert all(v == 0.0 for v in type_distribution({}).values())

    def test_contributor_flag(self):
        assert UserType.DIRECT.is_contributor
        assert UserType.UPNP.is_contributor
        assert not UserType.NAT.is_contributor


class TestContribution:
    def test_upload_totals_take_latest_cumulative(self):
        server = LogServer()
        for t, total in ((300.0, 100.0), (600.0, 250.0)):
            server.receive_report(t, TrafficReport(
                time=t, node_id=1, user_id=1, session_id=1,
                bytes_up=0.0, bytes_down=0.0, total_up=total, total_down=0.0,
            ))
        assert fold_log(server, UploadTotalsFold()) == ({1: 250.0},)

    def test_fig3_pairing(self):
        server = LogServer()
        add_node(server, 1, public=True, incoming=2, outgoing=2, upload=800.0)
        add_node(server, 2, public=False, incoming=0, outgoing=2, upload=100.0)
        add_node(server, 3, public=False, incoming=0, outgoing=2, upload=100.0)
        types, totals = fold_log(server, ClassifyUsersFold(),
                                 UploadTotalsFold())
        per_type = contribution_by_type(types, totals)
        pop, byt = per_type[UserType.DIRECT]
        assert pop == pytest.approx(1 / 3)
        assert byt == pytest.approx(0.8)
        cpop, cbyt = contributor_class_share(per_type)
        assert cpop == pytest.approx(1 / 3)
        assert cbyt == pytest.approx(0.8)

    def test_lorenz_curve_endpoints(self):
        x, y = lorenz_curve([1.0, 2.0, 3.0])
        assert x[0] == 0.0 and x[-1] == 1.0
        assert y[0] == 0.0 and y[-1] == pytest.approx(1.0)

    def test_lorenz_convexity(self):
        _x, y = lorenz_curve([1, 1, 1, 50])
        assert (np.diff(y, 2) >= -1e-12).all()

    def test_lorenz_zero_uploads(self):
        _x, y = lorenz_curve([0.0, 0.0])
        assert (y == 0.0).all()

    def test_lorenz_rejects_negative(self):
        with pytest.raises(ValueError):
            lorenz_curve([-1.0])

    def test_top_contributor_share(self):
        # top 25% (1 of 4) holds 70/100
        assert top_contributor_share([70, 10, 10, 10], 0.25) == pytest.approx(0.7)

    def test_top_share_bounds(self):
        with pytest.raises(ValueError):
            top_contributor_share([1.0], 0.0)
        with pytest.raises(ValueError):
            top_contributor_share([], 0.5)
