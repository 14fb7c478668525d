"""Resource distribution and bottleneck analysis.

Section VI lists as open work: "it is important to analyze the resource
distribution and bottleneck in the system".  This module does that
analysis on simulator capacity ground truth: the system-wide capacity
balance, aggregate usable upload against aggregate stream demand (their
ratio is the critical ratio of [23]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import CoolstreamingSystem

__all__ = [
    "SupplyDemand",
    "supply_demand_snapshot",
]


@dataclass(frozen=True)
class SupplyDemand:
    """One instant of the capacity balance."""

    time: float
    demand_bps: float           # concurrent viewers x stream rate
    server_supply_bps: float
    peer_supply_bps: float      # reachability-weighted peer upload
    raw_peer_supply_bps: float  # ignoring reachability

    @property
    def supply_bps(self) -> float:
        """Total usable supply (servers + reachable peers)."""
        return self.server_supply_bps + self.peer_supply_bps


def supply_demand_snapshot(
    system: "CoolstreamingSystem", *, nat_usability: float = 0.35
) -> SupplyDemand:
    """Capacity balance right now, from simulator ground truth.

    ``nat_usability`` discounts NAT/firewall upload by the probability
    that it is reachable at all (they serve only over partnerships they
    initiated); contributor-class upload counts fully.
    """
    demand = system.concurrent_users * system.cfg.stream_rate_bps
    server_supply = sum(s.upload_bps for s in system.servers if s.alive)
    peer_supply = 0.0
    raw_supply = 0.0
    for peer in system.peers():
        raw_supply += peer.upload_bps
        if peer.connectivity.is_contributor_class:
            peer_supply += peer.upload_bps
        else:
            peer_supply += nat_usability * peer.upload_bps
    return SupplyDemand(
        time=system.engine.now,
        demand_bps=demand,
        server_supply_bps=server_supply,
        peer_supply_bps=peer_supply,
        raw_peer_supply_bps=raw_supply,
    )
