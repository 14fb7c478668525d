"""Connectivity classes and the partnership-direction rule.

Section V.B of the paper classifies users by observing (address type,
partnership directions):

* *Direct-connect*: public address, incoming + outgoing partners;
* *UPnP*: private address but explicitly acquired a public mapping, so
  behaves like direct-connect (incoming + outgoing);
* *NAT*: private address, only outgoing partners;
* *Firewall*: public address, only outgoing partners.

The operative rule for overlay formation is therefore: a peer can *initiate*
a partnership to anybody it knows about, but only direct-connect and UPnP
peers can *accept* an incoming partnership request.  Once any partnership
exists, data can flow in either direction over it (the paper: "a NAT or
firewall user can become the parent for another node").

``nat_traversal_prob`` optionally lets a NAT-to-NAT establishment succeed
with small probability, modelling hole punching; the paper observes such
"random links" exist but are rare.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "ConnectivityClass",
    "ConnectivityMix",
    "can_accept_incoming",
    "can_establish",
]


class ConnectivityClass(enum.IntEnum):
    """The four user types of Section V.B (plus servers/source)."""

    DIRECT = 0
    UPNP = 1
    NAT = 2
    FIREWALL = 3
    SERVER = 4  # dedicated servers / source: publicly reachable by design

    @property
    def has_public_address(self) -> bool:
        """Whether peers of this class expose a public IP."""
        return self in (ConnectivityClass.DIRECT, ConnectivityClass.FIREWALL,
                        ConnectivityClass.SERVER)

    @property
    def is_contributor_class(self) -> bool:
        """Direct/UPnP: the classes Fig. 3 shows carrying >80% of upload."""
        return self in (ConnectivityClass.DIRECT, ConnectivityClass.UPNP,
                        ConnectivityClass.SERVER)


def can_accept_incoming(cls: ConnectivityClass) -> bool:
    """Whether a peer of class ``cls`` can accept an incoming partnership."""
    return cls in (
        ConnectivityClass.DIRECT,
        ConnectivityClass.UPNP,
        ConnectivityClass.SERVER,
    )


def can_establish(
    initiator: ConnectivityClass,
    target: ConnectivityClass,
    *,
    nat_traversal_prob: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Whether ``initiator`` can establish a partnership with ``target``.

    The establishment succeeds iff the target accepts incoming connections,
    or (both endpoints being NAT/firewall) a traversal attempt succeeds with
    probability ``nat_traversal_prob``.
    """
    if can_accept_incoming(target):
        return True
    if nat_traversal_prob > 0.0:
        if rng is None:
            raise ValueError("nat_traversal_prob > 0 requires an rng")
        return bool(rng.random() < nat_traversal_prob)
    return False


def choice_cdf(probabilities: Sequence[float]) -> list[float]:
    """numpy's own cdf for ``Generator.choice(n, p=probabilities)``.

    ``choice`` draws its index as ``cdf.searchsorted(random(), 'right')``
    over ``cdf = p.cumsum(); cdf /= cdf[-1]``.  Built once per
    distribution, as Python floats,
    ``bisect_right(cdf, rng.random())`` gives the same index from
    the same stream position, without numpy's fixed cost per call (~12 µs
    against ~0.4 µs for one draw).  ``probabilities`` must already be
    validated: non-negative, summing to 1.
    """
    cdf = np.asarray(probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass(frozen=True)
class ConnectivityMix:
    """Population mix over connectivity classes.

    Defaults follow the shape of Fig. 3a: roughly 30% of peers are
    contributor-class (direct + UPnP) and ~70% sit behind NAT or firewall.
    """

    fractions: Mapping[ConnectivityClass, float] = field(
        default_factory=lambda: {
            ConnectivityClass.DIRECT: 0.18,
            ConnectivityClass.UPNP: 0.12,
            ConnectivityClass.NAT: 0.55,
            ConnectivityClass.FIREWALL: 0.15,
        }
    )

    def __post_init__(self) -> None:
        total = float(sum(self.fractions.values()))
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"class fractions must sum to 1 (got {total})")
        if any(f < 0 for f in self.fractions.values()):
            raise ValueError("class fractions must be non-negative")
        if ConnectivityClass.SERVER in self.fractions:
            raise ValueError("SERVER is not a samplable user class")

    @property
    def classes(self) -> list[ConnectivityClass]:
        """The classes present in the mix."""
        return list(self.fractions.keys())

    @property
    def contributor_fraction(self) -> float:
        """Fraction of peers in direct/UPnP classes (Fig. 3's ~30%)."""
        return sum(
            f for c, f in self.fractions.items() if c.is_contributor_class
        )

    def sample(self, rng: np.random.Generator) -> ConnectivityClass:
        """Draw one class: the class, and the stream position after it,
        that ``sample_many(1, rng)`` would give."""
        classes, cdf = self._draw_table
        return classes[bisect_right(cdf, rng.random())]

    @cached_property
    def _draw_table(self) -> tuple[tuple[ConnectivityClass, ...], list[float]]:
        """``sample``'s classes and cdf, built at the first draw.

        Not a field, so ``==``, ``repr``, ``asdict`` and config hashes are
        unchanged; not built at construction, so an engine that never
        draws one class (``ode``, ``fast``) allocates nothing for it.
        """
        return tuple(self.fractions), choice_cdf(list(self.fractions.values()))

    def sample_many(
        self, n: int, rng: np.random.Generator
    ) -> list[ConnectivityClass]:
        """Draw ``n`` classes i.i.d. from the mix."""
        classes = self.classes
        probs = np.array([self.fractions[c] for c in classes], dtype=float)
        idx = rng.choice(len(classes), size=int(n), p=probs)
        return [classes[i] for i in idx.tolist()]
