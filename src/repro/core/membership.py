"""Membership manager: the mCache partial view and its gossip maintenance.

Each node keeps an *mCache* -- a bounded partial list of currently active
nodes -- seeded from the boot-strap node and refreshed by gossip.  The
deployed system replaces entries *randomly* when the cache is full
(Section V.C), which the paper identifies as the cause of long join times
during flash crowds: the cache fills with newly joined peers that cannot
yet provide stable streams.  The ``age`` replacement policy implements the
paper's suggested improvement (prefer keeping long-lived entries) and is
exercised by the mCache ablation benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.network.connectivity import ConnectivityClass

__all__ = ["MCacheEntry", "MCache", "ReplacementPolicy"]


class ReplacementPolicy(str, enum.Enum):
    """mCache replacement policy when the cache is full."""

    RANDOM = "random"  # deployed behaviour (Section V.C)
    AGE = "age"        # paper's suggested improvement: evict youngest


@dataclass(frozen=True, slots=True)
class MCacheEntry:
    """One partial-view entry: who the node is and how reachable it looks.

    Slotted: every stored gossip entry, every refresh and every node's
    own gossiped entry is a fresh instance, built by :func:`make_entry`.
    """

    node_id: int
    connectivity: ConnectivityClass
    joined_at: float          # when that node joined the overlay
    last_seen: float          # when this entry was last refreshed

    def refreshed(self, now: float) -> "MCacheEntry":
        """A copy with ``last_seen`` updated."""
        return make_entry(self.node_id, self.connectivity, self.joined_at, now)


_new = object.__new__
_set_node_id = MCacheEntry.node_id.__set__
_set_connectivity = MCacheEntry.connectivity.__set__
_set_joined_at = MCacheEntry.joined_at.__set__
_set_last_seen = MCacheEntry.last_seen.__set__


def make_entry(node_id: int, connectivity: ConnectivityClass,
               joined_at: float, last_seen: float) -> MCacheEntry:
    """Internal constructor for entries whose fields are already typed.

    Assigns through the slot descriptors instead of the frozen
    ``__init__``'s ``object.__setattr__`` per field.  For the protocol's
    own hot constructions only; anything parsed from the wire goes
    through ``MCacheEntry(...)``.
    """
    entry = _new(MCacheEntry)
    _set_node_id(entry, node_id)
    _set_connectivity(entry, connectivity)
    _set_joined_at(entry, joined_at)
    _set_last_seen(entry, last_seen)
    return entry


class MCache:
    """Bounded partial view with pluggable replacement.

    The cache never stores its owner, and an insert of an already-present
    node refreshes rather than duplicates the entry.
    """

    __slots__ = ("_owner", "_capacity", "_policy", "_entries")

    def __init__(
        self,
        owner_id: int,
        capacity: int,
        policy: ReplacementPolicy = ReplacementPolicy.RANDOM,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._owner = owner_id
        self._capacity = int(capacity)
        self._policy = ReplacementPolicy(policy)
        self._entries: Dict[int, MCacheEntry] = {}

    # --- introspection ------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum entries held."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def entries(self) -> List[MCacheEntry]:
        """Snapshot of stored entries."""
        return list(self._entries.values())

    def ids(self) -> List[int]:
        """Ids currently stored, in insertion order."""
        return list(self._entries.keys())

    # --- mutation -------------------------------------------------------------
    def insert(self, entry: MCacheEntry, now: float,
               rng: Optional[np.random.Generator] = None) -> bool:
        """Insert or refresh an entry; returns True if stored.

        When full, the replacement policy decides the victim:

        * ``RANDOM``: a uniformly random resident is evicted (this is what
          makes flash crowds poison the view -- the newcomer always enters).
        * ``AGE``: the new entry is kept only if it is older (longer-lived)
          than the youngest resident, which it then evicts.
        """
        if entry.node_id == self._owner:
            return False
        existing = self._entries.get(entry.node_id)
        if existing is not None:
            # keep the earliest join time we ever learned; refresh last_seen
            self._entries[entry.node_id] = make_entry(
                entry.node_id, entry.connectivity,
                min(existing.joined_at, entry.joined_at), now,
            )
            return True
        if len(self._entries) < self._capacity:
            self._entries[entry.node_id] = entry.refreshed(now)
            return True
        if self._policy is ReplacementPolicy.RANDOM:
            if rng is None:
                raise ValueError("RANDOM policy requires an rng")
            victim = list(self._entries.keys())[int(rng.integers(len(self._entries)))]
            del self._entries[victim]
            self._entries[entry.node_id] = entry.refreshed(now)
            return True
        # AGE policy: evict the youngest resident (largest joined_at) iff the
        # candidate is older.
        youngest_id = max(self._entries, key=lambda nid: self._entries[nid].joined_at)
        if entry.joined_at < self._entries[youngest_id].joined_at:
            del self._entries[youngest_id]
            self._entries[entry.node_id] = entry.refreshed(now)
            return True
        return False

    def remove(self, node_id: int) -> None:
        """Forget a node (e.g. a failed partnership attempt).  Idempotent."""
        self._entries.pop(node_id, None)

    def insert_many(self, entries: Iterable[MCacheEntry], now: float,
                    rng: Optional[np.random.Generator] = None) -> int:
        """Insert several entries; returns how many were stored."""
        return sum(1 for e in entries if self.insert(e, now, rng))

    # --- sampling ---------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator,
               exclude: Iterable[int] = ()) -> List[MCacheEntry]:
        """Uniformly sample up to ``n`` distinct entries, excluding ids in
        ``exclude`` (typically current partners; a set is used as given)."""
        excl = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        pool = [e for e in self._entries.values() if e.node_id not in excl]
        if not pool:
            return []
        n = min(int(n), len(pool))
        idx = rng.choice(len(pool), size=n, replace=False)
        return [pool[i] for i in idx]

    def gossip_payload(self, n: int, rng: np.random.Generator,
                       self_entry: Optional[MCacheEntry] = None) -> List[MCacheEntry]:
        """Entries to ship in one gossip message: a random subset of the
        view, plus (always) the sender's own entry so newcomers spread."""
        payload = self.sample(n, rng)
        if self_entry is not None:
            payload = [self_entry] + payload
        return payload
