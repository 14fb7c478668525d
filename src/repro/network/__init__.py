"""Network substrate: connectivity, capacity, latency and bandwidth sharing.

The paper's analysis treats the network as a fluid rate system (Section IV.C)
with the binding constraint being each peer's *upload* capacity, shared among
its child sub-stream connections; and reachability being governed by the
peer's connectivity class (Section V.B).  This package implements exactly
that substrate:

* :class:`ConnectivityClass` / :func:`can_initiate` -- the four user types
  (direct-connect, UPnP, NAT, firewall) and the partnership-direction rule.
* :class:`CapacityModel` -- heterogeneous upload capacity sampling.
* :class:`LatencyModel` -- pairwise propagation delay.
* :func:`waterfill_rates` -- max-min fair division of a
  parent's upload among child connections, the quantity that drives
  Eqs. (3)-(6).
"""

from repro.network.connectivity import (
    ConnectivityClass,
    ConnectivityMix,
    can_accept_incoming,
    can_establish,
)
from repro.network.capacity import CapacityModel, CapacityProfile
from repro.network.latency import LatencyModel
from repro.network.fairshare import waterfill_rates

__all__ = [
    "ConnectivityClass",
    "ConnectivityMix",
    "can_accept_incoming",
    "can_establish",
    "CapacityModel",
    "CapacityProfile",
    "LatencyModel",
    "waterfill_rates",
]
