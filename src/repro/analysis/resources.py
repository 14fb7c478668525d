"""Resource distribution and bottleneck analysis.

Section VI lists as open work: "it is important to analyze the resource
distribution and bottleneck in the system".  This module does that
analysis on simulator capacity ground truth:

* system-wide supply/demand ratio over time (the [23] critical-ratio
  quantity: aggregate usable upload vs aggregate stream demand);
* per-class capacity utilization (how much of each class's upload
  capacity actually carries bytes);
* a bottleneck verdict per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.network.connectivity import ConnectivityClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import CoolstreamingSystem

__all__ = [
    "SupplyDemand",
    "supply_demand_snapshot",
    "utilization_by_class",
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

    @property
    def ratio(self) -> float:
        """Usable supply over demand -- the critical ratio of [23].
        Infinity when nobody is watching."""
        if self.demand_bps == 0:
            return float("inf")
        return self.supply_bps / self.demand_bps

    @property
    def bottleneck(self) -> str:
        """A verdict: 'none' (ratio >= 1.2), 'tight' (1.0-1.2) or
        'capacity' (under-provisioned)."""
        r = self.ratio
        if r >= 1.2:
            return "none"
        if r >= 1.0:
            return "tight"
        return "capacity"


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


def utilization_by_class(
    system: "CoolstreamingSystem",
) -> Dict[ConnectivityClass, Tuple[float, float]]:
    """Per class: (uploaded bits so far, capacity-seconds so far is not
    tracked, so we report current upload rate share instead).

    Returns class -> (total uploaded bits, share of all uploaded bits).
    """
    totals: Dict[ConnectivityClass, float] = {}
    for node in system.all_streaming_nodes():
        totals.setdefault(node.connectivity, 0.0)
        totals[node.connectivity] += node.scheduler.bits_uploaded
    grand = sum(totals.values())
    return {
        cls: (bits, bits / grand if grand > 0 else 0.0)
        for cls, bits in totals.items()
    }
