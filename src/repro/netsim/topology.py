"""Interconnect topologies.

Provides the BG/P-style 3D torus (used for hop-count-aware latency and for
the network-aware grouping extension of Section 7) and a flat switched
topology for the ethernet clusters.  Hop counts on the torus use the
closed-form wrap-around Manhattan distance; :meth:`Torus3D.graph` builds
the explicit networkx graph the tests cross-check them against, and is
the only code that imports networkx.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Topology", "Torus3D", "SwitchedFlat", "torus_dims_for"]


class Topology:
    """Base topology: endpoint ids 0..n-1 with a hop metric."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("topology needs at least one endpoint")
        self.n = n

    def hops(self, a: int, b: int) -> int:
        """Number of links on a shortest path between endpoints a and b."""
        raise NotImplementedError

    def _check(self, a: int, b: int) -> None:
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"endpoint out of range: {a}, {b} (n={self.n})")


class SwitchedFlat(Topology):
    """Single-switch (or fat-enough tree) network: every pair is 2 hops."""

    def hops(self, a: int, b: int) -> int:
        self._check(a, b)
        return 0 if a == b else 2


class Torus3D(Topology):
    """3D torus with X×Y×Z nodes, node ids assigned in lexicographic order.

    Mirrors the BG/P partition wiring: hop count between two nodes is the
    sum over dimensions of the wrap-around distance.
    """

    def __init__(self, dims: tuple[int, int, int]):
        x, y, z = dims
        if min(dims) <= 0:
            raise ValueError(f"bad torus dims {dims}")
        super().__init__(x * y * z)
        self.dims = (x, y, z)

    def coords(self, node: int) -> tuple[int, int, int]:
        """Map node id -> (x, y, z) torus coordinates."""
        x, y, z = self.dims
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} out of range")
        return (node // (y * z), (node // z) % y, node % z)

    def node_id(self, coords: tuple[int, int, int]) -> int:
        """Map (x, y, z) coordinates -> node id."""
        x, y, z = self.dims
        cx, cy, cz = coords
        return cx * y * z + cy * z + cz

    @staticmethod
    def _axis_dist(a: int, b: int, size: int) -> int:
        d = abs(a - b)
        return min(d, size - d)

    def hops(self, a: int, b: int) -> int:
        self._check(a, b)
        ca, cb = self.coords(a), self.coords(b)
        return sum(
            self._axis_dist(ca[i], cb[i], self.dims[i]) for i in range(3)
        )

    def graph(self) -> nx.Graph:
        """Explicit networkx graph of the torus (for verification/analysis)."""
        import networkx as nx

        g = nx.Graph()
        x, y, z = self.dims
        for cx, cy, cz in itertools.product(range(x), range(y), range(z)):
            me = self.node_id((cx, cy, cz))
            for dim, size in enumerate(self.dims):
                coords = [cx, cy, cz]
                coords[dim] = (coords[dim] + 1) % size
                if size > 1:
                    g.add_edge(me, self.node_id(tuple(coords)))
        if g.number_of_nodes() == 0:
            g.add_node(0)
        return g


def torus_dims_for(nodes: int) -> tuple[int, int, int]:
    """Pick near-cubic torus dimensions for a node count.

    Matches how BG/P partitions come in power-of-two blocks; falls back to
    an X×Y×1 arrangement for non-cube counts.
    """
    if nodes <= 0:
        raise ValueError("nodes must be positive")
    best: Optional[tuple[int, int, int]] = None
    best_score = None
    x = 1
    while x * x * x <= nodes * 4 and x <= nodes:
        if nodes % x == 0:
            rest = nodes // x
            y = 1
            while y * y <= rest * 2 and y <= rest:
                if rest % y == 0:
                    z = rest // y
                    dims = tuple(sorted((x, y, z), reverse=True))
                    score = max(dims) - min(dims)
                    if best_score is None or score < best_score:
                        best, best_score = dims, score
                y += 1
        x += 1
    assert best is not None
    return best  # type: ignore[return-value]
