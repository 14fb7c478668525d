"""Tests for partner events and the supply/demand snapshot."""


from repro.analysis.resources import SupplyDemand, supply_demand_snapshot
from repro.analysis.streaming import PartnerEventsFold, fold_log
from repro.telemetry.reports import PartnerEvent, PartnerOp, PartnerReport
from repro.telemetry.server import LogServer


def partner_report(server, node_id, events, t=300.0):
    server.receive_report(t, PartnerReport(
        time=t, node_id=node_id, user_id=node_id, session_id=node_id,
        events=tuple(events),
    ))


class TestPartnerEvents:
    def test_flattening_sorted_by_time(self):
        server = LogServer()
        partner_report(server, 1, [
            PartnerEvent(50.0, PartnerOp.ADD, 9, incoming=False),
            PartnerEvent(10.0, PartnerOp.ADD, 8, incoming=True),
        ])
        (events,) = fold_log(server, PartnerEventsFold())
        assert [e[0] for e in events] == [10.0, 50.0]

    def test_end_to_end_churn_from_real_run(self, populated_system):
        (events,) = fold_log(populated_system.log, PartnerEventsFold())
        assert events  # the run produced partner activity
        times = [e[0] for e in events]
        assert times == sorted(times) and times[0] >= 0.0


class TestSupplyDemand:
    def test_supply_sums_servers_and_reachable_peers(self):
        sd = SupplyDemand(time=0.0, demand_bps=100.0, server_supply_bps=90.0,
                          peer_supply_bps=40.0, raw_peer_supply_bps=80.0)
        assert sd.supply_bps == 130.0

    def test_snapshot_from_live_system(self, populated_system):
        sd = supply_demand_snapshot(populated_system)
        assert sd.demand_bps == (
            populated_system.concurrent_users
            * populated_system.cfg.stream_rate_bps
        )
        assert sd.server_supply_bps == sum(
            s.upload_bps for s in populated_system.servers
        )
        assert 0.0 < sd.peer_supply_bps <= sd.raw_peer_supply_bps

    def test_servers_carry_most_bits_in_small_system(self, populated_system):
        total = sum(n.scheduler.bits_uploaded
                    for n in populated_system.all_streaming_nodes())
        servers = sum(s.scheduler.bits_uploaded
                      for s in populated_system.servers)
        assert servers > 0.2 * total
