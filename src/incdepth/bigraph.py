"""Bicolored bipartite graph of an inclusion matrix and its depth formulas.

The graph has r black dots in a bottom row (one per matrix row) and s white
dots in a top row (one per column), with an edge wherever the matrix entry
is positive; multiplicities greater than one are flattened. Depth values
are read off shortest-path diameters:

    minimum odd depth   = 1 + diameter of the black row, in edges
    minimum even depth  = 2 + the largest (black, white) separation, where
                          the black neighbours of each white dot count as a
                          single merged vertex; that is 1 + the largest
                          black-to-white distance
    minimum H-depth     = 1 + diameter of the white row, in edges

Diameters are taken over pairs inside a common connected component;
unreachable pairs impose no constraint (this is what agreement with the
matrix method forces on block-diagonal inputs).

All three come from each dot's eccentricity, its largest distance to any
dot of its component, which the graph computes once when it is built by a
breadth-first search from every dot at once. The graph is bipartite, so
distances between dots of one colour are even and those between colours
odd; BFS layers are contiguous, so a dot of eccentricity L reaches its own
colour at most L rounded down to even and the other colour at most L
rounded up to odd, less 1 when L is even (-1 for an isolated dot).
"""

from __future__ import annotations

from .exactmat import InclusionMatrix, MatrixError, set_bits


class BipartiteGraph:
    """Immutable bicolored graph; blacks index 0..r-1, whites 0..s-1."""

    __slots__ = ("black_count", "white_count", "edges", "_far")

    def __init__(self, black_count: int, white_count: int, edges):
        if not (isinstance(black_count, int) and isinstance(white_count, int)):
            raise MatrixError(
                f"dot counts {(black_count, white_count)!r} are not integers")
        if black_count < 1 or white_count < 1:
            raise MatrixError("graph needs at least one black and one white dot")
        edges = [(b, w) for b, w in edges]
        for b, w in edges:
            if not (isinstance(b, int) and isinstance(w, int)):
                raise MatrixError(f"edge {(b, w)!r} is not a pair of integers")
            if not (0 <= b < black_count and 0 <= w < white_count):
                raise MatrixError(f"edge ({b},{w}) out of range")
        self._build(black_count, white_count, frozenset(edges))

    def _build(self, black_count: int, white_count: int, pairs: frozenset) -> None:
        """Fill in the graph from checked edges and run the BFS."""
        self.black_count = black_count
        self.white_count = white_count
        self.edges = pairs
        # unified vertex ids: 0..r-1 blacks, r..r+s-1 whites
        adj = [[] for _ in range(black_count + white_count)]
        for b, w in pairs:
            adj[b].append(black_count + w)
            adj[black_count + w].append(b)
        # Bit-parallel BFS from every dot at once: after round k, balls[v]
        # is the bitset of dots within k edges of v. Each round ORs in the
        # neighbours' balls of the round before, all read before any is
        # written. A ball that stops growing is its whole component and
        # stays so, and the last round in which it grew is v's eccentricity.
        balls = [1 << v for v in range(len(adj))]
        far = [0] * len(adj)
        growing = [v for v, vs in enumerate(adj) if vs]
        rounds = 0
        while growing:
            rounds += 1
            before = balls[:]
            still = []
            for v in growing:
                ball = before[v]
                for u in adj[v]:
                    ball |= before[u]
                if ball != before[v]:
                    balls[v] = ball
                    far[v] = rounds
                    still.append(v)
            growing = still
        self._far = tuple(far)

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


def build_graph(m: InclusionMatrix) -> BipartiteGraph:
    """Incidence graph of an inclusion matrix: edge (i,j) iff entry > 0."""
    graph = object.__new__(BipartiteGraph)  # the support's edges need no check
    graph._build(m.rows, m.cols, frozenset(
        (i, j) for i, mask in enumerate(m.support) for j in set_bits(mask)))
    return graph


def black_diameter(g: BipartiteGraph) -> int:
    """Largest edge distance between two blacks in a common component.

    Always even (two blacks are an even number of edges apart); 0 when
    there is a single black or no two blacks share a component.
    """
    return max(L - L % 2 for L in g._far[:g.black_count])


def min_odd_depth_graph(g: BipartiteGraph) -> int:
    """Minimum odd depth: 1 plus the black-row diameter."""
    return 1 + black_diameter(g)


def min_even_depth_graph(g: BipartiteGraph) -> int:
    """Minimum even depth: 2 plus the largest black-to-merged-class distance.

    For each white dot its black neighbours are identified with one another;
    the distance from a black dot to that class is the minimum distance to
    any member. Pairs in different components are skipped.

    Every neighbour of a white dot is black, so a white dot that black i
    reaches lies one edge past the nearest member of its class: the largest
    class distance is the largest black-to-white distance less 1, and the
    even depth is 1 plus that distance, or 2 when no black reaches a white.
    """
    return 1 + max(1, *(L - 1 + L % 2 for L in g._far[:g.black_count]))


def min_hdepth_graph(g: BipartiteGraph) -> int:
    """Minimum H-depth: 1 plus the white-row diameter."""
    return 1 + max(L - L % 2 for L in g._far[g.black_count:])


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
