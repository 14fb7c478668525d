"""Overlay-topology analysis (Fig. 4 and the Section V.B conjecture).

The paper could not capture topology snapshots ("it is usually difficult
to capture the exact snapshot of the overlay topology in a real system")
and instead *conjectured* the structure: peers clog under direct/UPnP
parents, links among NAT/firewall peers are rare, and the mesh resembles a
tree with a few random links.  Our simulator can take exact snapshots, so
this module both reproduces the conjectured statistics and verifies the
convergence claim (the fraction of stable contributor-parented peers grows
over time).

networkx is imported where a graph is built or walked, not at module
level: this is the only module that uses it, and ``repro.analysis`` is
imported by every engine and every fold (DESIGN.md, "What a process pays
before its first event").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.network.connectivity import ConnectivityClass

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.core.system import CoolstreamingSystem

__all__ = ["OverlaySnapshot", "snapshot_overlay"]


@dataclass(frozen=True)
class OverlaySnapshot:
    """One instant of the parent-child overlay.

    The graph is a directed multigraph-flattened DiGraph: an edge (p, c)
    exists when p serves c at least one sub-stream; edge attribute
    ``substreams`` counts how many.
    """

    time: float
    graph: nx.DiGraph
    classes: Dict[int, ConnectivityClass]
    source_id: int

    # --- Fig. 4 statistics --------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of user peers in the snapshot."""
        return sum(
            1 for n, c in self.classes.items()
            if c is not ConnectivityClass.SERVER
        )

    def contributor_parent_fraction(self) -> float:
        """Fraction of peer-held sub-stream subscriptions whose parent is a
        direct/UPnP peer or a server -- "large amount of peers tends to
        clog under direct-connect/UPnP peers"."""
        total = 0
        contributed = 0
        for p, c, data in self.graph.edges(data=True):
            if self.classes.get(c) is ConnectivityClass.SERVER:
                continue  # a server's parents are infrastructure
            w = data.get("substreams", 1)
            total += w
            if self.classes.get(p, ConnectivityClass.NAT).is_contributor_class:
                contributed += w
        return contributed / total if total else float("nan")

    def random_link_fraction(self) -> float:
        """Fraction of peer-to-peer edges where *both* endpoints are
        NAT/firewall -- the "random links" the paper calls relatively rare."""
        total = 0
        random_links = 0
        for p, c in self.graph.edges():
            cp = self.classes.get(p)
            cc = self.classes.get(c)
            if cp is ConnectivityClass.SERVER or cc is ConnectivityClass.SERVER:
                continue
            total += 1
            if (cp is not None and not cp.is_contributor_class
                    and cc is not None and not cc.is_contributor_class):
                random_links += 1
        return random_links / total if total else float("nan")

    def depth_distribution(self) -> Dict[int, int]:
        """Hop distance from the source, per peer (depth -> count).

        Unreachable peers (no parent chain to the source at this instant)
        are reported at depth -1.
        """
        import networkx as nx

        lengths = nx.single_source_shortest_path_length(self.graph, self.source_id)
        out: Dict[int, int] = {}
        for node, cls in self.classes.items():
            if cls is ConnectivityClass.SERVER or node == self.source_id:
                continue
            d = lengths.get(node, -1)
            out[d] = out.get(d, 0) + 1
        return out

    def mean_depth(self) -> float:
        """Mean hop distance from the source over reachable peers."""
        dist = self.depth_distribution()
        pairs = [(d, n) for d, n in dist.items() if d >= 0]
        total = sum(n for _d, n in pairs)
        if total == 0:
            return float("nan")
        return sum(d * n for d, n in pairs) / total

    def out_degree_by_class(self) -> Dict[ConnectivityClass, float]:
        """Mean sub-stream out-degree (D_p) per connectivity class."""
        sums: Dict[ConnectivityClass, float] = {}
        counts: Dict[ConnectivityClass, int] = {}
        degrees: Dict[int, int] = {}
        for p, _c, data in self.graph.edges(data=True):
            degrees[p] = degrees.get(p, 0) + data.get("substreams", 1)
        for node, cls in self.classes.items():
            sums[cls] = sums.get(cls, 0.0) + degrees.get(node, 0)
            counts[cls] = counts.get(cls, 0) + 1
        return {
            cls: sums[cls] / counts[cls] for cls in sums if counts[cls] > 0
        }


def snapshot_overlay(system: "CoolstreamingSystem") -> OverlaySnapshot:
    """Capture the current parent-child overlay of a running system."""
    import networkx as nx

    graph = nx.DiGraph()
    classes: Dict[int, ConnectivityClass] = {}
    from repro.core.source import SOURCE_ID

    classes[SOURCE_ID] = ConnectivityClass.SERVER
    graph.add_node(SOURCE_ID)
    for node in system.all_streaming_nodes():
        classes[node.node_id] = node.connectivity
        graph.add_node(node.node_id)
    for parent, child, _sub in system.parent_child_edges():
        if graph.has_edge(parent, child):
            graph[parent][child]["substreams"] += 1
        else:
            graph.add_edge(parent, child, substreams=1)
    return OverlaySnapshot(
        time=system.engine.now, graph=graph, classes=classes, source_id=SOURCE_ID
    )
