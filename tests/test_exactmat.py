import random

import pytest
from hypothesis import example, given, strategies as st

from incdepth import IntMatrix, MatrixError, SupportMatrix, dominance_q

from _oracles import naive_multiply, support_as_int_matrix, zero_count

S3S4 = IntMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])
H8_MMT = IntMatrix([[5, 1, 1, 1, 0], [1, 5, 1, 1, 0], [1, 1, 5, 1, 0],
                    [1, 1, 1, 5, 0], [0, 0, 0, 0, 8]])


def sparse_matrix(rng, rows, cols):
    """Seeded nonnegative matrix with about one cell in twenty nonzero."""
    return IntMatrix([[rng.randint(1, 3) if rng.random() < 0.05 else 0
                       for _ in range(cols)] for _ in range(rows)])


def wide_pairs():
    """Conformable pairs whose dimensions sit on either side of a 64-bit word,
    so support bitsets span one, two and three machine words."""
    rng = random.Random(64)
    return [(sparse_matrix(rng, r, k), sparse_matrix(rng, k, c))
            for r, k, c in [(1, 64, 130), (63, 65, 64), (130, 63, 1), (65, 130, 63)]]


WIDE_PAIRS = wide_pairs()


def matrices(max_dim=4, min_value=-5, max_value=5):
    def build(dims):
        r, c = dims
        return st.lists(
            st.lists(st.integers(min_value, max_value), min_size=c, max_size=c),
            min_size=r, max_size=r).map(IntMatrix)
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(build)


def chained_matrices(count, max_dim=3, min_value=-4, max_value=4):
    """count conformable matrices: dims d0 x d1, d1 x d2, ..."""
    def build(dims):
        parts = []
        for r, c in zip(dims, dims[1:]):
            parts.append(st.lists(
                st.lists(st.integers(min_value, max_value), min_size=c, max_size=c),
                min_size=r, max_size=r).map(IntMatrix))
        return st.tuples(*parts)
    return st.lists(st.integers(1, max_dim), min_size=count + 1,
                    max_size=count + 1).flatmap(build)


class TestConstruction:
    def test_rejects_ragged(self):
        with pytest.raises(MatrixError, match="row 2"):
            IntMatrix([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(MatrixError):
            IntMatrix([])

    def test_rejects_float(self):
        with pytest.raises(MatrixError, match=r"\(1,2\)"):
            IntMatrix([[1, 2.5]])

    def test_identity(self):
        assert IntMatrix.identity(2).entries == ((1, 0), (0, 1))


class TestMultiply:
    def test_small_by_hand(self):
        a = IntMatrix([[1, 1], [0, 1]])
        b = IntMatrix([[1], [1]])
        assert a * b == IntMatrix([[2], [1]])

    def test_identity_left(self):
        assert IntMatrix.identity(3) * S3S4 == S3S4

    def test_s3s4_gram(self):
        # hand multiplication of the 3x5 matrix with its transpose
        assert S3S4 * S3S4.transpose() == IntMatrix(
            [[2, 1, 0], [1, 3, 1], [0, 1, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError, match="multiply"):
            S3S4 * S3S4

    @given(chained_matrices(2))
    def test_matches_naive_product(self, pair):
        a, b = pair
        product = a * b
        expected = naive_multiply([list(r) for r in a.entries],
                                  [list(r) for r in b.entries])
        assert [list(r) for r in product.entries] == expected

    @given(chained_matrices(3))
    def test_associative(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    def test_scalar(self):
        assert 2 * IntMatrix([[1, 2]]) == IntMatrix([[2, 4]])
        assert IntMatrix([[1, 2]]) * 3 == IntMatrix([[3, 6]])

    def test_big_entries_stay_exact(self):
        a = IntMatrix([[10**50, 1], [0, 10**50]])
        assert (a * a)[0, 1] == 2 * 10**50


class TestTranspose:
    def test_row_to_column(self):
        assert IntMatrix([[1, 1, 0]]).transpose() == IntMatrix([[1], [1], [0]])

    @given(matrices())
    def test_involution(self, m):
        assert m.transpose().transpose() == m

    def test_s3s4_shape(self):
        t = S3S4.transpose()
        assert (t.rows, t.cols) == (5, 3)
        assert t.entries == ((1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1))


class TestSupport:
    def test_pattern(self):
        s = IntMatrix([[2, 0], [0, 3]]).support()
        assert s.bits == ((True, False), (False, True))

    def test_s3s4_already_01(self):
        assert support_as_int_matrix(S3S4.support()) == S3S4

    def test_h8_zero_cells(self):
        bits = H8_MMT.support().bits
        zeros = [(i, j) for i in range(5) for j in range(5) if not bits[i][j]]
        assert len(zeros) == 8
        assert all(H8_MMT[i, j] == 0 for i, j in zeros)

    def test_rejects_negative(self):
        with pytest.raises(MatrixError, match="negative entry"):
            IntMatrix([[1, -1]]).support()

    @given(matrices(min_value=0, max_value=4))
    @example(WIDE_PAIRS[0][1])
    @example(WIDE_PAIRS[2][0])
    def test_idempotent_extraction(self, m):
        s = m.support()
        assert support_as_int_matrix(s).support() == s


class TestZeroCount:
    def test_identity(self):
        assert zero_count(IntMatrix.identity(3)) == 6

    def test_s3s4(self):
        # 15 entries, 7 ones (the graph's seven edges), so 8 zeros
        assert zero_count(S3S4) == 8

    def test_h8(self):
        assert zero_count(H8_MMT) == 8


class TestDominance:
    def test_column_doubling(self):
        assert dominance_q(IntMatrix([[2], [2]]), IntMatrix([[1], [1]])) == 2

    def test_reflexive(self):
        assert dominance_q(S3S4, S3S4) == 1

    def test_none_over_zero_cell(self):
        ones = IntMatrix([[1, 1], [1, 1]])
        assert dominance_q(ones, IntMatrix.identity(2)) is None

    def test_floor_at_one(self):
        zero = IntMatrix([[0, 0]])
        assert dominance_q(zero, IntMatrix([[3, 4]])) == 1

    def test_shape_mismatch(self):
        with pytest.raises(MatrixError, match="compare"):
            dominance_q(IntMatrix([[1]]), IntMatrix([[1, 2]]))

    @given(chained_matrices(1, max_dim=4, min_value=0, max_value=6),
           chained_matrices(1, max_dim=4, min_value=0, max_value=6))
    def test_minimal_witness(self, one, two):
        (a,), (b,) = one, two
        if (a.rows, a.cols) != (b.rows, b.cols):
            return
        q = dominance_q(a, b)
        zeros_b = {(i, j) for i in range(b.rows) for j in range(b.cols)
                   if b[i, j] == 0}
        zeros_a = {(i, j) for i in range(a.rows) for j in range(a.cols)
                   if a[i, j] == 0}
        if q is None:
            assert not zeros_b <= zeros_a
        else:
            assert zeros_b <= zeros_a
            assert a <= q * b
            if q > 1:
                assert not a <= (q - 1) * b


class TestBoolMultiply:
    def test_identity(self):
        x = S3S4.support()
        assert SupportMatrix.identity(3) * x == x

    def test_s3s4_gram_pattern(self):
        product = S3S4.support() * S3S4.transpose().support()
        expected = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]]).support()
        assert product == expected

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError, match="multiply"):
            S3S4.support() * S3S4.support()

    @given(chained_matrices(2, min_value=0, max_value=3))
    @example(WIDE_PAIRS[0])
    @example(WIDE_PAIRS[1])
    @example(WIDE_PAIRS[2])
    @example(WIDE_PAIRS[3])
    def test_support_homomorphism(self, pair):
        a, b = pair
        assert (a * b).support() == a.support() * b.support()

    @pytest.mark.parametrize("m", [m for pair in WIDE_PAIRS for m in pair])
    def test_wide_transpose_and_bits_round_trip(self, m):
        s = m.support()
        assert s.transpose() == m.transpose().support()
        assert s.bits == tuple(tuple(e > 0 for e in row) for row in m.entries)
        assert SupportMatrix(s.bits) == s
