import random

import pytest

from incdepth import (BipartiteGraph, InclusionMatrix, MatrixError, branching_matrix,
                      build_graph, min_depth, min_even_depth_graph, min_hdepth,
                      min_hdepth_graph, min_odd_depth_graph, to_dot,
                      tower_matrix)
from incdepth.bigraph import black_diameter, from_walk
from incdepth.exactmat import walk_support

from _oracles import (bfs_distances, block_diagonal, dense_rows, graph_depths_by_pairs,
                      identity, min_even_depth_merged, random_inclusion)

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])
C2M2 = InclusionMatrix([[1], [1]])
IDENT2 = InclusionMatrix(identity(2))


def nonzero_cells(m):
    return [(i, j) for i, row in enumerate(m.matrix.entries)
            for j, e in enumerate(row) if e > 0]


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
    # build_graph skips the constructor's edge checks; the graph it builds
    # from the walk of the support, eccentricities included, is the one the
    # checked constructor builds from the positive entries
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
    g, checked = build_graph(m), BipartiteGraph(m.rows, m.cols, nonzero_cells(m))
    assert type(g) is BipartiteGraph
    assert g == checked and hash(g) == hash(checked) and g._far == checked._far


def test_edge_range_validated():
    with pytest.raises(MatrixError, match="out of range"):
        BipartiteGraph(1, 1, [(0, 1)])


@pytest.mark.parametrize("edge", [(0.9, 1.7), ("1", "0"), (1.0, 0), (0, None)])
def test_edges_must_be_integers(edge):
    # no coercion: int(0.9), int("1") and int(1.0) would name valid dots
    with pytest.raises(MatrixError, match="not a pair of integers"):
        BipartiteGraph(2, 2, [(0, 0), edge])


@pytest.mark.parametrize("counts", [(2.5, 1), (1, 2.5), ("2", 1), (1.0, 1), (1, None)])
def test_dot_counts_must_be_integers(counts):
    with pytest.raises(MatrixError, match="not integers"):
        BipartiteGraph(*counts, [])


def small_graphs():
    """Every edge set on 1-3 blacks and 1-4 whites, isolated dots included,
    then 2000 seeded graphs up to 9 x 9 at random densities."""
    for r in range(1, 4):
        for s in range(1, 5):
            cells = [(b, w) for b in range(r) for w in range(s)]
            for mask in range(1 << len(cells)):
                yield BipartiteGraph(
                    r, s, [e for k, e in enumerate(cells) if mask >> k & 1])
    rng = random.Random(23)
    for _ in range(2000):
        r, s = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.random()
        yield BipartiteGraph(r, s, [(b, w) for b in range(r) for w in range(s)
                                    if rng.random() < density])


def walked(g):
    """The graph from_walk builds from the walk of g's support."""
    support = [0] * g.black_count
    for b, w in g.edges:
        support[b] |= 1 << w
    row_bits, col_bits, supp_t = walk_support(tuple(support), g.white_count)
    return from_walk(row_bits, col_bits, tuple(support), supp_t)


def eccentricity_cases():
    """(name, graph) from the checked constructor: every small graph, the
    towers S_(n-1) <= S_n for n <= 16, two disconnected block-diagonal
    graphs, whose balls never fill, and seeded dense 40 x 60 graphs, whose
    balls all fill by round 3."""
    for k, g in enumerate(small_graphs()):
        yield f"small {k}", g
    matrices = [(f"S_{n - 1} <= S_{n}", tower_matrix(n - 1, n)) for n in range(2, 17)]
    matrices += [("block diagonal 3x4", InclusionMatrix([[1, 1, 0, 0], [0, 1, 0, 0],
                                                        [0, 0, 1, 1]])),
                 ("block diagonal", block_diagonal(S3S4, S3S4.transposed(), C2M2))]
    matrices += [(f"dense {seed}", InclusionMatrix(dense_rows(random.Random(seed), 40)))
                 for seed in range(3)]
    for name, m in matrices:
        yield name, BipartiteGraph(m.rows, m.cols, nonzero_cells(m))


def test_each_dot_far_is_its_eccentricity():
    # the BFS's eccentricity of every dot, not only the extremal ones that
    # the diameters read, through the checked constructor and from_walk
    for name, g in eccentricity_cases():
        far = [max(bfs_distances(g, v)) for v in range(g.black_count + g.white_count)]
        assert list(g._far) == far, name
        assert list(walked(g)._far) == far, name


def test_edge_set_formed_on_demand_matches_checked_constructor():
    # build_graph keeps only the adjacency lists of its walk; the edge set,
    # hash, repr and DOT text formed from them are the checked graph's
    rng = random.Random(29)
    matrices = [tower_matrix(k, n) for n in range(2, 13) for k in range(1, n)]
    matrices += [random_inclusion(rng, max_dim=9) for _ in range(200)]
    for m in matrices:
        g, checked = build_graph(m), BipartiteGraph(m.rows, m.cols, nonzero_cells(m))
        assert g.edges == checked.edges == frozenset(nonzero_cells(m))
        assert hash(g) == hash(checked)
        assert repr(g) == repr(checked)
        assert to_dot(g) == to_dot(checked)


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
