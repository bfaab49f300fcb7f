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

A graph has one constructor, which takes an inclusion matrix and reads
the walk of its support that the matrix keeps: for each black the whites
it touches and for each white the blacks, each ascending, and the black
lists' sets as the bitsets supp(M). A depth report's support search reads
the same walk. An inclusion matrix has no zero row or column, so
every dot has a neighbour. The graph keeps the black lists, and its edge
set, DOT text and repr are formed from them only when asked for. All
three values come from each dot's eccentricity, its largest distance to
any dot of its component, which the graph computes once when it is built
by a breadth-first search from every dot at once. The search grows the
balls of each colour at every other round only: whites at even rounds,
from a white dot alone at round 0, and blacks at odd rounds, from the
first, read off supp(M). A dot whose ball holds every dot leaves it. The
graph is bipartite, so distances between dots of one colour are even and
those between colours odd. So from one round of a ball to its next, two
rounds later, the new dots of the round between are black and those of
the later round white, for either colour, and a grown ball gives its
dot's distance by whether it gained a white. BFS layers are contiguous,
so a dot of eccentricity L reaches its own colour at most L rounded down
to even and the other colour at most L rounded up to odd, less 1 when L
is even.
"""

from __future__ import annotations

from itertools import chain, repeat

from .exactmat import InclusionMatrix


class BipartiteGraph:
    """Immutable bicolored graph; blacks index 0..r-1, whites 0..s-1."""

    __slots__ = ("black_count", "white_count", "_blacks", "_far")

    def __init__(self, m: InclusionMatrix):
        """The graph of m's support, and its BFS, from the walk m keeps:
        black b joins the whites m.row_bits[b], white w the blacks
        m.col_bits[w], and m.support holds the black lists as bitsets.
        m has no zero row or column, so every dot has a neighbour."""
        blacks, whites = m.row_bits, m.col_bits
        r, s = self.black_count, self.white_count = len(blacks), len(whites)
        self._blacks = blacks
        # Bit-parallel BFS from every dot at once: after round k, the ball
        # of a dot is the bitset of dots within k edges of it, blacks at
        # bits 0..r-1 and whites at r..r+s-1. Blacks' balls start at round
        # 1, read off the support, and whites' at round 0, the dot alone.
        # Round 2t ORs into a white's ball the balls of its blacks from
        # round 2t-1, and round 2t+1 into a black's the balls of its whites
        # from round 2t, so both colours grow in place. A ball that stops
        # growing is its whole component and stays so; a full ball cannot
        # grow, so its dot leaves the BFS in the round it filled.
        low, full = (1 << r) - 1, (1 << (r + s)) - 1
        black_balls = [1 << b | mask << r for b, mask in enumerate(m.support)]
        white_balls = [1 << (r + w) for w in range(s)]
        black_far, white_far = [1] * r, [0] * s
        growing_b = [b for b in range(r) if black_balls[b] != full]
        growing_w = list(range(s))
        rounds = 0
        while growing_b or growing_w:
            rounds += 2
            growing_w = _grow(growing_w, whites, white_balls, black_balls, white_far,
                              rounds - 1, low, full)
            growing_b = _grow(growing_b, blacks, black_balls, white_balls, black_far,
                              rounds, low, full)
        self._far = tuple(black_far + white_far)

    @property
    def edges(self) -> frozenset:
        """The (black, white) pairs joined by an edge, formed on each call."""
        return frozenset(chain.from_iterable(
            map(zip, map(repeat, range(self.black_count)), self._blacks)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self.black_count == other.black_count
                and self.white_count == other.white_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.black_count, self.white_count, self.edges))

    def __repr__(self) -> str:
        rows = [[int(w in whites) for w in range(self.white_count)]
                for whites in map(set, self._blacks)]
        return f"BipartiteGraph(InclusionMatrix({rows!r}))"


def _grow(growing, adj, balls, other, far, base, low, full) -> list[int]:
    """One BFS round for the growing dots of one colour, whose balls it
    grows in place from the balls other of the other colour, which adj
    indexes. A grown ball's newest dots are base edges away when all are
    black, else base + 1, since low masks the blacks. Returns the dots
    whose ball grew and is not yet full."""
    still = []
    for v in growing:
        ball = old = balls[v]
        for u in adj[v]:
            ball |= other[u]
        if ball != old:
            balls[v] = ball
            far[v] = base + (ball ^ old > low)
            if ball != full:
                still.append(v)
    return still


def build_graph(m: InclusionMatrix) -> BipartiteGraph:
    """Incidence graph of an inclusion matrix: edge (i,j) iff entry > 0."""
    return BipartiteGraph(m)


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
    even depth is 1 plus that distance.
    """
    return 1 + max(L - 1 + L % 2 for L in g._far[:g.black_count])


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
    for b, whites in enumerate(g._blacks):
        lines.extend([f"  b{b + 1} -- w{w + 1};" for w in whites])
    lines.append("}")
    return "\n".join(lines) + "\n"
