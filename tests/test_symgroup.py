import pytest

from incdepth import (InclusionMatrix, Partition, branching_matrix, build_graph,
                      min_depth, min_even_depth_graph, min_hdepth,
                      min_hdepth_graph, min_odd_depth_graph, partitions,
                      tower_matrix)

from _oracles import count_partitions, depth_upper_bound, dim_irreducible

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])


class TestPartition:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([2, 0])

    @pytest.mark.parametrize("parts", [[2.9, 1.5], [2, 1.0], ["3"], [None]])
    def test_rejects_non_integer_parts(self, parts):
        # no coercion: int() would turn [2.9, 1.5] into the partition [2, 1]
        with pytest.raises(ValueError, match="not an integer"):
            Partition(parts)

    def test_empty(self):
        assert Partition(()).n == 0

    def test_with_box_added(self):
        got = {p.parts for p in Partition([2, 1]).with_box_added()}
        assert got == {(3, 1), (2, 2), (2, 1, 1)}


class TestPartitions:
    def test_n3_order(self):
        assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]

    def test_n4_count(self):
        assert len(partitions(4)) == 5

    def test_n7_count(self):
        assert count_partitions(7) == 15
        assert len(partitions(7)) == 15

    def test_counts_match_oracle(self):
        for n in range(1, 13):
            assert len(partitions(n)) == count_partitions(n)

    def test_zero_convention(self):
        assert partitions(0) == (Partition(()),)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions(-1)

    def test_descending_lexicographic(self):
        for n in range(1, 9):
            parts = [p.parts for p in partitions(n)]
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)
            assert all(sum(p) == n for p in parts)


class TestBranchingMatrix:
    def test_n4_is_s3s4(self):
        assert branching_matrix(4) == S3S4

    def test_n2(self):
        assert branching_matrix(2) == InclusionMatrix([[1, 1]])

    def test_n5_row_2_2(self):
        m = branching_matrix(5)
        rows = [p.parts for p in partitions(4)]
        cols = [p.parts for p in partitions(5)]
        row = m.matrix.entries[rows.index((2, 2))]
        hits = {cols[j] for j, e in enumerate(row) if e}
        assert row.count(1) == 2 and hits == {(3, 2), (2, 2, 1)}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            branching_matrix(1)

    def test_row_and_column_sums(self):
        # row sum = addable boxes = distinct part sizes + 1;
        # column sum = removable boxes = distinct part sizes
        for n in range(2, 9):
            m = branching_matrix(n).matrix
            for p, row in zip(partitions(n - 1), m.entries):
                assert sum(row) == len(set(p.parts)) + 1
            for j, p in enumerate(partitions(n)):
                assert sum(row[j] for row in m.entries) == len(set(p.parts))

    def test_entries_are_01(self):
        for n in range(2, 8):
            assert all(e in (0, 1)
                       for row in branching_matrix(n).matrix.entries
                       for e in row)


class TestTowerMatrix:
    def test_adjacent_step_is_branching(self):
        assert tower_matrix(3, 4) == S3S4

    def test_s1_in_s3_gives_dimensions(self):
        assert tower_matrix(1, 3) == InclusionMatrix([[1, 2, 1]])

    def test_entries_are_dimensions_from_s1(self):
        for n in range(2, 8):
            m = tower_matrix(1, n).matrix
            dims = [dim_irreducible(p.parts) for p in partitions(n)]
            assert list(m.entries[0]) == dims

    def test_s2_in_s4_induced_dimension(self):
        # each induced module has dimension |S4|/|S2| = 12
        m = tower_matrix(2, 4).matrix
        dims = [dim_irreducible(p.parts) for p in partitions(4)]
        for row in m.entries:
            assert sum(e * d for e, d in zip(row, dims)) == 12

    def test_transitive(self):
        for k, mid, n in [(1, 2, 4), (2, 3, 5), (1, 3, 6), (2, 4, 6)]:
            left = tower_matrix(k, mid).matrix * tower_matrix(mid, n).matrix
            assert InclusionMatrix(left) == tower_matrix(k, n)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            tower_matrix(4, 4)
        with pytest.raises(ValueError):
            tower_matrix(0, 3)

    def test_two_step_counts_two_box_paths(self):
        m = tower_matrix(3, 5).matrix
        rows = partitions(3)
        cols = partitions(5)
        for i, lam in enumerate(rows):
            for j, mu in enumerate(cols):
                paths = sum(1 for nu in lam.with_box_added()
                            for tgt in nu.with_box_added() if tgt == mu)
                assert m.entries[i][j] == paths
        assert [sum(row) for row in m.entries] == [5, 8, 5]


def test_branching_n4_depths():
    m = branching_matrix(4)
    assert min_depth(m) == 5
    assert min_hdepth(m) == 7


@pytest.mark.parametrize("n", range(4, 17))
def test_branching_closed_form_depths(n):
    # d(S_{n-1} <= S_n) = 2n-3 (Burciu, Kadison and Kuelshammer, "On subgroup
    # depth", IEJA 2011); the spectral bound is sharp on this family.
    m = branching_matrix(n)
    d = min_depth(m)
    assert (d, min_depth(m.transposed()), min_hdepth(m)) == (2 * n - 3, 2 * n - 2, 2 * n - 1)
    graph = build_graph(m)
    assert min(min_odd_depth_graph(graph), min_even_depth_graph(graph)) == d
    assert min_hdepth_graph(graph) == 2 * n - 1
    assert depth_upper_bound(m) == d
