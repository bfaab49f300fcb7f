import random
from collections import Counter

import pytest

import incdepth
from incdepth import (BipartiteGraph, InclusionMatrix, branching_matrix, build_graph,
                      min_depth, min_even_depth_graph, min_hdepth, min_hdepth_graph,
                      min_odd_depth_graph, to_dot, tower_matrix)
from incdepth import bigraph
from incdepth.bigraph import black_diameter

from _oracles import (all_binary_inclusions, bfs_distances, block_diagonal, dense_rows,
                      graph_depths_by_pairs, identity, min_even_depth_merged,
                      random_inclusion)

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])
C2M2 = InclusionMatrix([[1], [1]])
IDENT2 = InclusionMatrix(identity(2))


def nonzero_cells(m):
    return [(i, j) for i, row in enumerate(m.matrix.entries)
            for j, e in enumerate(row) if e > 0]


def eccentricities(g):
    """Each dot's largest distance to a dot of its component, by a queue BFS
    over g.edges from every dot."""
    return [max(bfs_distances(g, v)) for v in range(g.black_count + g.white_count)]


def test_build_graph_edges_are_support():
    g = build_graph(S3S4)
    assert g.black_count == 3 and g.white_count == 5
    assert g.edges == frozenset(
        {(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4)})


def test_build_graph_flattens_multiplicities():
    assert build_graph(InclusionMatrix([[3, 2], [0, 1]])).edges == frozenset(
        {(0, 0), (0, 1), (1, 1)})


def test_build_graph_small_cases():
    assert build_graph(IDENT2).edges == frozenset({(0, 0), (1, 1)})
    assert build_graph(C2M2).edges == frozenset({(0, 0), (1, 0)})


@pytest.mark.parametrize("name", [*(f"S_{n}" for n in range(4, 15)), "block diagonal",
                                  *(f"dense {seed}" for seed in range(3)),
                                  "1x70", "70x1", *(f"identity {n}" for n in (1, 64, 65)),
                                  *(f"S_{k} <= S_9" for k in range(1, 9))])
def test_build_graph_equals_checked_constructor(name):
    # the graph that build_graph makes from the walk of the support is
    # checked against the matrix: its edges are the positive entries, and
    # each dot's eccentricity is that of a queue BFS over those edges
    if name.endswith("<= S_9"):
        m = tower_matrix(int(name[2]), 9)
    elif name.startswith("S_"):
        m = branching_matrix(int(name[2:]))
    elif name == "block diagonal":
        m = block_diagonal(S3S4, S3S4.transposed(), C2M2)
    elif name.startswith("dense"):
        m = InclusionMatrix(dense_rows(random.Random(int(name[6:])), 40))
    elif name.startswith("identity"):
        m = InclusionMatrix(identity(int(name[9:])))
    else:
        m = InclusionMatrix([[1] * 70] if name == "1x70" else [[1]] * 70)
    g = build_graph(m)
    assert type(g) is BipartiteGraph
    assert (g.black_count, g.white_count) == (m.rows, m.cols)
    assert g.edges == frozenset(nonzero_cells(m))
    assert list(g._far) == eccentricities(g)


def small_inclusions():
    """Every 0/1 inclusion matrix up to 3 x 4, then 2000 seeded 0/1 ones up
    to 9 x 9 at random densities, each zero row and column patched with a 1
    at a random place."""
    yield from all_binary_inclusions(3, 4)
    rng = random.Random(23)
    for _ in range(2000):
        r, s = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.random()
        cells = [[int(rng.random() < density) for _ in range(s)] for _ in range(r)]
        for row in cells:
            if not any(row):
                row[rng.randrange(s)] = 1
        for j in range(s):
            if not any(row[j] for row in cells):
                cells[rng.randrange(r)][j] = 1
        yield InclusionMatrix(cells)


def small_graphs():
    return map(build_graph, small_inclusions())


def eccentricity_cases():
    """(name, matrix): every small inclusion, the towers S_(n-1) <= S_n for
    n <= 16 and their transposes, S_12 <= S_13 with seeded row and column
    orders, the towers S_k <= S_9, two disconnected block-diagonal
    matrices, whose balls never fill, and seeded dense 40 x 60 matrices,
    whose balls all fill by round 3."""
    for k, m in enumerate(small_inclusions()):
        yield f"small {k}", m
    for n in range(2, 17):
        yield f"S_{n - 1} <= S_{n}", tower_matrix(n - 1, n)
        yield f"(S_{n - 1} <= S_{n})^t", tower_matrix(n - 1, n).transposed()
    rng, m = random.Random(31), tower_matrix(12, 13)
    rows, cols = rng.sample(range(m.rows), m.rows), rng.sample(range(m.cols), m.cols)
    yield "shuffled S_12 <= S_13", InclusionMatrix(
        [[m.matrix.entries[i][j] for j in cols] for i in rows])
    yield from ((f"S_{k} <= S_9", tower_matrix(k, 9)) for k in range(1, 9))
    yield "block diagonal 3x4", InclusionMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    yield "block diagonal", block_diagonal(S3S4, S3S4.transposed(), C2M2)
    yield from ((f"dense {seed}", InclusionMatrix(dense_rows(random.Random(seed), 40)))
                for seed in range(3))


def test_each_dot_far_is_its_eccentricity():
    # the BFS's eccentricity of every dot, not only the extremal ones that
    # the diameters read, on a graph whose edges are the positive entries
    for name, m in eccentricity_cases():
        g = build_graph(m)
        assert g.edges == frozenset(nonzero_cells(m)), name
        assert list(g._far) == eccentricities(g), name


def test_each_ball_grows_at_every_other_round(monkeypatch):
    # blacks grow at odd rounds and whites at even ones, so a dot of
    # eccentricity L joins at most ceil(L / 2) + 1 rounds of _grow: those
    # up to the one that reaches L, and one more that finds its ball closed
    joins, grow = Counter(), bigraph._grow

    def spy(growing, adj, *rest):
        joins.update((id(adj), v) for v in growing)
        return grow(growing, adj, *rest)
    monkeypatch.setattr(bigraph, "_grow", spy)
    for name, m in eccentricity_cases():
        joins.clear()
        far = build_graph(m)._far
        dots = [(id(m.row_bits), b) for b in range(m.rows)]
        dots += [(id(m.col_bits), w) for w in range(m.cols)]
        assert all(joins[dot] <= -(-L // 2) + 1 for dot, L in zip(dots, far)), name


def dot_text(r, s, cells):
    """The DOT text of a graph: its dots in index order, then its edges in
    sorted order."""
    return "".join(["graph inclusion {\n",
                    *(f'  b{i + 1} [shape=circle, style=filled, fillcolor=black, label=""];\n'
                      for i in range(r)),
                    *(f'  w{j + 1} [shape=circle, label=""];\n' for j in range(s)),
                    *(f"  b{b + 1} -- w{w + 1};\n" for b, w in sorted(cells)), "}\n"])


def test_edge_set_formed_on_demand_matches_checked_constructor():
    # build_graph keeps only the adjacency lists of the matrix's walk; the
    # edge set, equality, hash, repr and DOT text formed from them are those
    # of the positive entries, and the repr calls the constructor on the
    # 0/1 support rows
    rng = random.Random(29)
    matrices = [tower_matrix(k, n) for n in range(2, 13) for k in range(1, n)]
    matrices += [random_inclusion(rng, max_dim=9) for _ in range(200)]
    for m in matrices:
        g, cells = build_graph(m), sorted(nonzero_cells(m))
        assert g.edges == frozenset(cells)
        assert g == build_graph(InclusionMatrix(m.matrix.entries))
        assert hash(g) == hash((m.rows, m.cols, frozenset(cells)))
        rows = [[int(e > 0) for e in row] for row in m.matrix.entries]
        assert repr(g) == f"BipartiteGraph(InclusionMatrix({rows!r}))"
        assert to_dot(g) == dot_text(m.rows, m.cols, cells)


def test_repr_evaluates_to_an_equal_graph():
    # the repr is the one-argument constructor on an inclusion matrix with
    # the same support; evaluated in the package's namespace it gives back
    # the graph
    count = 0
    for g in small_graphs():
        again = eval(repr(g), vars(incdepth))
        assert type(again) is BipartiteGraph and again == g, repr(g)
        assert again._far == g._far and to_dot(again) == to_dot(g), repr(g)
        count += 1
    assert count == 2000 + sum(1 for _ in all_binary_inclusions(3, 4))


def graph_values(g):
    return (black_diameter(g), min_odd_depth_graph(g), min_even_depth_graph(g),
            min_hdepth_graph(g))


class TestDiameters:
    def test_s3s4_black_diameter(self):
        assert black_diameter(build_graph(S3S4)) == 4

    def test_column_pair_black_diameter(self):
        # b1 - w - b2
        assert black_diameter(build_graph(C2M2)) == 2

    def test_identity_disconnected(self):
        assert black_diameter(build_graph(IDENT2)) == 0

    def test_parity_of_distances(self):
        rng = random.Random(11)
        for _ in range(50):
            g = build_graph(random_inclusion(rng, max_dim=6))
            r = g.black_count
            for b in range(r):
                dist = bfs_distances(g, b)
                for other in range(r):
                    if dist[other] >= 0:
                        assert dist[other] % 2 == 0
                for w in range(g.white_count):
                    if dist[r + w] >= 0:
                        assert dist[r + w] % 2 == 1


class TestGraphDepths:
    def test_s3s4(self):
        g = build_graph(S3S4)
        assert min_odd_depth_graph(g) == 5
        assert min_even_depth_graph(g) == 6
        assert min_hdepth_graph(g) == 7

    def test_column_pair(self):
        g = build_graph(C2M2)
        assert min_odd_depth_graph(g) == 3
        assert min_even_depth_graph(g) == 2
        assert min_hdepth_graph(g) == 1

    def test_identity(self):
        g = build_graph(IDENT2)
        assert min_odd_depth_graph(g) == 1
        assert min_even_depth_graph(g) == 2
        assert min_hdepth_graph(g) == 1  # whites in distinct components

    def test_parities(self):
        rng = random.Random(12)
        for _ in range(60):
            g = build_graph(random_inclusion(rng, max_dim=6))
            assert min_odd_depth_graph(g) % 2 == 1
            assert min_even_depth_graph(g) % 2 == 0
            assert min_hdepth_graph(g) % 2 == 1

    def test_agrees_with_matrix_method(self):
        rng = random.Random(13)
        for _ in range(150):
            m = random_inclusion(rng, max_dim=6)
            g = build_graph(m)
            assert min(min_odd_depth_graph(g), min_even_depth_graph(g)) == min_depth(m)
            assert min_hdepth_graph(g) == min_hdepth(m)

    def test_even_depth_matches_merged_classes(self):
        for g in small_graphs():
            assert min_even_depth_graph(g) == min_even_depth_merged(g), g

    def test_values_match_all_pairs_oracle(self):
        for g in small_graphs():
            assert graph_values(g) == graph_depths_by_pairs(g), g
        for n in range(4, 17):
            g = build_graph(tower_matrix(n - 1, n))
            assert graph_values(g) == graph_depths_by_pairs(g), n

    def test_block_diagonal_agreement(self):
        # disconnected graphs: each value is the largest over the components;
        # the second joins S3S4 (black diameter 4, white 6), its transpose
        # (6 and 4) and C2M2 (2 and 0)
        small = InclusionMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
        mixed = block_diagonal(S3S4, S3S4.transposed(), C2M2)
        for m, values in ((small, (2, 3, 4, 3)), (mixed, (6, 7, 6, 7))):
            g = build_graph(m)
            assert graph_values(g) == graph_depths_by_pairs(g) == values
            assert min(min_odd_depth_graph(g), min_even_depth_graph(g)) == min_depth(m)
            assert min_hdepth_graph(g) == min_hdepth(m)


class TestDot:
    def test_column_pair_edges(self):
        dot = to_dot(build_graph(C2M2))
        assert "b1 -- w1;" in dot
        assert "b2 -- w1;" in dot
        assert dot.count("--") == 2

    def test_identity_two_edges(self):
        assert to_dot(build_graph(IDENT2)).count("--") == 2

    def test_s3s4_seven_edges(self):
        dot = to_dot(build_graph(S3S4))
        assert dot.count("--") == 7
        assert dot.startswith("graph inclusion {")
        assert dot.endswith("}\n")

    def test_deterministic_and_ordered(self):
        g = build_graph(S3S4)
        first = to_dot(g)
        assert first == to_dot(g)
        lines = first.splitlines()
        names = [ln.split()[0] for ln in lines if "[shape" in ln]
        assert names == ["b1", "b2", "b3", "w1", "w2", "w3", "w4", "w5"]
        edges = [ln.strip() for ln in lines if "--" in ln]
        assert edges == sorted(edges)
