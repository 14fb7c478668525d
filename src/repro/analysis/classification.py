"""The Section V.B user-type classifier.

"Based on their IP addresses, we can classify the users into private or
public users.  By checking whether they are successful in establishing TCP
connections or not, we can further classify users into ... Direct-connect
/ UPnP / NAT / Firewall."

We reproduce that inference, including its fallibility ("this is primarily
based on the local information ... thus errors can occur"): the classifier
sees only (a) the address-type flag from activity reports and (b) the
incoming/outgoing partnership counters from partner reports.  A
direct-connect peer that never happened to receive an incoming partnership
is misclassified as firewalled, exactly as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.network.connectivity import ConnectivityClass
from repro.telemetry.server import LogServer

__all__ = ["UserType", "classify_users", "expected_user_type"]


class UserType(str, enum.Enum):
    """The four observable classes of Fig. 3a."""

    DIRECT = "direct"
    UPNP = "upnp"
    NAT = "nat"
    FIREWALL = "firewall"

    @property
    def is_contributor(self) -> bool:
        """Whether this type belongs to the contributor classes."""
        return self in (UserType.DIRECT, UserType.UPNP)


def expected_user_type(cls: ConnectivityClass) -> UserType:
    """Ground-truth mapping (what a perfect classifier would output)."""
    return {
        ConnectivityClass.DIRECT: UserType.DIRECT,
        ConnectivityClass.UPNP: UserType.UPNP,
        ConnectivityClass.NAT: UserType.NAT,
        ConnectivityClass.FIREWALL: UserType.FIREWALL,
    }[cls]


@dataclass(slots=True)
class _Observed:
    address_public: Optional[bool] = None
    incoming: int = 0
    outgoing: int = 0

    def __reduce__(self):
        # a worker folding a range of a split log pickles one per node; as
        # constructor arguments that is half the bytes and a third of the
        # time of the slot-state default (25k nodes: 45 -> 14 ms to dump)
        return (_Observed, (self.address_public, self.incoming, self.outgoing))


def classify_users(log: LogServer) -> Dict[int, UserType]:
    """Classify every node seen in the log, per the Section V.B rules.

    Returns node_id -> :class:`UserType`.  Nodes with no partner report at
    all (very short sessions) are classified from address type alone:
    public -> firewall, private -> NAT -- the conservative choice, since
    no incoming partnership was ever observed.

    Single streaming pass; the per-report logic lives in
    :class:`repro.analysis.streaming.ClassifyUsersFold`.
    """
    from repro.analysis.streaming import ClassifyUsersFold, fold_log

    return fold_log(log, ClassifyUsersFold())[0]


def type_distribution(types: Dict[int, UserType]) -> Dict[UserType, float]:
    """Fractions per user type (the Fig. 3a pie)."""
    if not types:
        return {t: 0.0 for t in UserType}
    n = len(types)
    out = {t: 0.0 for t in UserType}
    for t in types.values():
        out[t] += 1.0 / n
    return out
