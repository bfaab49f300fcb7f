"""Bicolored bipartite graph of an inclusion matrix and its depth formulas.

The graph has r black dots in a bottom row (one per matrix row) and s white
dots in a top row (one per column), with an edge wherever the matrix entry
is positive; multiplicities greater than one are flattened. Depth values
are read off shortest-path diameters:

    minimum odd depth   = 1 + diameter of the black row, in edges
    minimum even depth  = 2 + the largest (black, white) separation, where
                          the black neighbours of each white dot count as a
                          single merged vertex
    minimum H-depth     = 1 + diameter of the white row, in edges

Diameters are taken over pairs inside a common connected component;
unreachable pairs impose no constraint (this is what agreement with the
matrix method forces on block-diagonal inputs).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .exactmat import MatrixError

if TYPE_CHECKING:
    from .depth import InclusionMatrix


class BipartiteGraph:
    """Immutable bicolored graph; blacks index 0..r-1, whites 0..s-1."""

    __slots__ = ("black_count", "white_count", "edges", "_adj")

    def __init__(self, black_count: int, white_count: int, edges):
        if black_count < 1 or white_count < 1:
            raise MatrixError("graph needs at least one black and one white dot")
        pairs = frozenset((int(b), int(w)) for b, w in edges)
        for b, w in pairs:
            if not (0 <= b < black_count and 0 <= w < white_count):
                raise MatrixError(f"edge ({b},{w}) out of range")
        self.black_count = black_count
        self.white_count = white_count
        self.edges = pairs
        # unified vertex ids: 0..r-1 blacks, r..r+s-1 whites
        adj = [[] for _ in range(black_count + white_count)]
        for b, w in sorted(pairs):
            adj[b].append(black_count + w)
            adj[black_count + w].append(b)
        self._adj = tuple(tuple(vs) for vs in adj)

    def distances_from(self, vertex: int) -> list[int]:
        """BFS edge distances from a unified vertex id; -1 = unreachable."""
        dist = [-1] * len(self._adj)
        dist[vertex] = 0
        queue = deque([vertex])
        while queue:
            v = queue.popleft()
            for u in self._adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self.black_count == other.black_count
                and self.white_count == other.white_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.black_count, self.white_count, self.edges))

    def __repr__(self) -> str:
        return (f"BipartiteGraph({self.black_count}, {self.white_count}, "
                f"{sorted(self.edges)!r})")


def build_graph(m: "InclusionMatrix") -> BipartiteGraph:
    """Incidence graph of an inclusion matrix: edge (i,j) iff entry > 0."""
    mat = m.matrix
    edges = [(i, j)
             for i, row in enumerate(mat.entries)
             for j, e in enumerate(row) if e > 0]
    return BipartiteGraph(mat.rows, mat.cols, edges)


def _diameter(g: BipartiteGraph, first: int, count: int) -> int:
    """Largest edge distance between two of the vertices first..first+count-1.

    Pairs in different components are skipped; 0 when no pair shares one.
    """
    diam = 0
    for i in range(first, first + count):
        dist = g.distances_from(i)
        for j in range(i + 1, first + count):
            if dist[j] > diam:
                diam = dist[j]
    return diam


def black_diameter(g: BipartiteGraph) -> int:
    """Largest edge distance between two blacks in a common component.

    Always even (two blacks are an even number of edges apart); 0 when
    there is a single black or no two blacks share a component.
    """
    return _diameter(g, 0, g.black_count)


def min_odd_depth_graph(g: BipartiteGraph) -> int:
    """Minimum odd depth: 1 plus the black-row diameter."""
    return 1 + black_diameter(g)


def min_even_depth_graph(g: BipartiteGraph) -> int:
    """Minimum even depth: 2 plus the largest black-to-merged-class distance.

    For each white dot its black neighbours are identified with one another;
    the distance from a black dot to that class is the minimum distance to
    any member. Pairs in different components are skipped.
    """
    worst = 0
    for i in range(g.black_count):
        dist = g.distances_from(i)
        for w in range(g.white_count):
            reachable = [dist[k] for k in g._adj[g.black_count + w] if dist[k] >= 0]
            if reachable:
                near = min(reachable)
                if near > worst:
                    worst = near
    return 2 + worst


def min_hdepth_graph(g: BipartiteGraph) -> int:
    """Minimum H-depth: 1 plus the white-row diameter."""
    return 1 + _diameter(g, g.black_count, g.white_count)


def to_dot(g: BipartiteGraph) -> str:
    """Deterministic DOT text: blacks b1..br filled, whites w1..ws, index order."""
    lines = ["graph inclusion {"]
    for i in range(g.black_count):
        lines.append(f'  b{i + 1} [shape=circle, style=filled, '
                     f'fillcolor=black, label=""];')
    for j in range(g.white_count):
        lines.append(f'  w{j + 1} [shape=circle, label=""];')
    for b, w in sorted(g.edges):
        lines.append(f"  b{b + 1} -- w{w + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
