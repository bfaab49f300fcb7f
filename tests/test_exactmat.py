import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from incdepth import (InclusionMatrix, IntMatrix, MatrixError, branching_matrix, charpoly,
                      dominance_q, exactmat)
from incdepth.depth import _select_or
from incdepth.exactmat import (diagonal, plan_rows, planned_sums, product, set_bits, slots,
                               triangle, walk_support, widen)

from _oracles import (berkowitz_char_poly, chain_widths, dense_gram, dense_rows,
                      dominance_brute, entrywise_le, frobenius, identity,
                      inclusion_rejection, krylov_dim_reference, naive_multiply,
                      naive_powers, near_million_gram, naive_support_product,
                      naive_support_transpose, poly_gcd, random_inclusion, repeated_rows_gram,
                      repeated_spectrum, scale, support_as_int_matrix, support_bits,
                      support_walk, symmetric_corpus, symmetric_matrix, upper_cells,
                      zero_count)

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

    @pytest.mark.parametrize("build", [IntMatrix, InclusionMatrix])
    def test_rejects_bool(self, build):
        # True would render as 'True', which the text format cannot read back
        with pytest.raises(MatrixError) as info:
            build([[True, 1], [0, True]])
        assert (str(info.value), info.value.row) == ("entry (1,1) is not an integer: True", None)
        with pytest.raises(MatrixError, match=r"entry \(2,2\) is not an integer: False"):
            build([[1, 1], [0, False]])

    def test_identity(self):
        assert identity(2).entries == ((1, 0), (0, 1))


class TestMultiply:
    def test_small_by_hand(self):
        a = IntMatrix([[1, 1], [0, 1]])
        b = IntMatrix([[1], [1]])
        assert a * b == IntMatrix([[2], [1]])

    def test_identity_left(self):
        assert identity(3) * S3S4 == S3S4

    def test_s3s4_gram(self):
        # hand multiplication of the 3x5 matrix with its transpose
        assert S3S4 * S3S4.transpose() == IntMatrix(
            [[2, 1, 0], [1, 3, 1], [0, 1, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError, match="multiply"):
            S3S4 * S3S4

    @given(chained_matrices(2))
    def test_matches_naive_product(self, pair):
        # signed draws: the naive product when both operands are
        # nonnegative, and MatrixError otherwise
        check_product(*pair)

    @given(chained_matrices(3, min_value=0))
    def test_associative(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    def test_scalar(self):
        assert scale(IntMatrix([[1, 2]]), 2) == IntMatrix([[2, 4]])
        assert scale(IntMatrix([[1, 2]]), 3) == IntMatrix([[3, 6]])

    def test_big_entries_stay_exact(self):
        a = IntMatrix([[10**50, 1], [0, 10**50]])
        assert (a * a).entries[0][1] == 2 * 10**50


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
        assert s == (0b01, 0b10)
        assert support_bits(s, 2) == ((True, False), (False, True))

    def test_s3s4_already_01(self):
        assert support_as_int_matrix(S3S4.support(), 5) == S3S4

    def test_h8_zero_cells(self):
        bits = support_bits(H8_MMT.support(), 5)
        zeros = [(i, j) for i in range(5) for j in range(5) if not bits[i][j]]
        assert len(zeros) == 8
        assert all(H8_MMT.entries[i][j] == 0 for i, j in zeros)

    def test_rejects_negative(self):
        with pytest.raises(MatrixError, match="negative entry"):
            IntMatrix([[1, -1]]).support()

    def test_set_bits(self):
        assert set_bits(0) == []
        assert set_bits(0b10110) == [1, 2, 4]
        assert set_bits(1 << 200 | 1) == [0, 200]

    @given(matrices(min_value=0, max_value=4))
    @example(WIDE_PAIRS[0][1])
    @example(WIDE_PAIRS[2][0])
    def test_idempotent_extraction(self, m):
        s = m.support()
        assert support_as_int_matrix(s, m.cols).support() == s


class TestZeroCount:
    def test_identity(self):
        assert zero_count(identity(3)) == 6

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
        assert dominance_q(ones, identity(2)) is None

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
                   if b.entries[i][j] == 0}
        zeros_a = {(i, j) for i in range(a.rows) for j in range(a.cols)
                   if a.entries[i][j] == 0}
        if q is None:
            assert not zeros_b <= zeros_a
        else:
            assert zeros_b <= zeros_a
            assert entrywise_le(a, scale(b, q))
            if q > 1:
                assert not entrywise_le(a, scale(b, q - 1))


def dominance_pair(rng, high, mismatch):
    """Seeded same-shape pair (a, b) up to 5x5 with entries up to high, a zero
    wherever b is, but for one cell of a made positive where b is zero when
    mismatch is set."""
    r, s = rng.randint(1, 5), rng.randint(1, 5)
    b = [[rng.randint(1, high) if rng.random() < 0.7 else 0 for _ in range(s)]
         for _ in range(r)]
    a = [[rng.randint(0, high) if y else 0 for y in row] for row in b]
    zeros = [(i, j) for i in range(r) for j in range(s) if not b[i][j]]
    if mismatch and zeros:
        i, j = rng.choice(zeros)
        a[i][j] = rng.randint(1, high)
    return IntMatrix(a), IntMatrix(b)


class TestDominanceOracle:
    """dominance_q divides only where a cell passes q*b; against trying every
    q on small entries (_oracles.dominance_brute), and against the defining
    inequalities a <= q*b and not a <= (q-1)*b on entries above 2^200."""

    def test_small_entries_match_every_q(self):
        rng = random.Random(47)
        nones = 0
        for k in range(3000):
            a, b = dominance_pair(rng, rng.choice((1, 3, 50)), k % 3 == 0)
            q = dominance_q(a, b)
            assert q == dominance_brute(a, b), (a, b)
            nones += q is None
        assert 500 < nones < 1000  # mismatched patterns, and their pairs with no zero

    def test_entries_above_2_to_the_200(self):
        rng = random.Random(53)
        for k in range(400):
            a, b = dominance_pair(rng, 1 << 220, k % 4 == 0)
            q = dominance_q(a, b)
            if q is None:
                assert any(x and not y for ra, rb in zip(a.entries, b.entries)
                           for x, y in zip(ra, rb)), (a, b)
            else:
                assert entrywise_le(a, scale(b, q)), (a, b)
                assert q == 1 or not entrywise_le(a, scale(b, q - 1)), (a, b)
        huge = 1 << 200
        assert dominance_q(IntMatrix([[3 * huge + 1, 0]]), IntMatrix([[huge, 1]])) == 4

    def test_q_one(self):
        assert dominance_q(IntMatrix([[2, 0], [5, 7]]), IntMatrix([[2, 0], [5, 7]])) == 1
        assert dominance_q(IntMatrix([[1, 0], [2, 0]]), IntMatrix([[3, 9], [2, 1]])) == 1
        assert dominance_q(IntMatrix([[0]]), IntMatrix([[0]])) == 1

    def test_mismatched_zero_pattern_anywhere(self):
        # a positive cell over a zero of b gives None, first or last, before
        # or after a cell that raised q
        b = IntMatrix([[1, 1], [1, 1]])
        for i in range(2):
            for j in range(2):
                zero = IntMatrix([[int((i, j) != (r, c)) for c in range(2)] for r in range(2)])
                a = IntMatrix([[9, 9], [9, 9]])
                assert dominance_q(a, zero) is None
                assert dominance_q(zero, b) == 1
        assert dominance_q(IntMatrix([[8, 1]]), IntMatrix([[1, 0]])) is None

    @pytest.mark.parametrize("a, b", [
        ([[-1]], [[1]]), ([[1]], [[-1]]), ([[0, 2], [1, -3]], [[1, 1], [1, 1]]),
        # the negative cell comes after one that has no witness
        ([[1, -1]], [[0, 1]]), ([[5, 1]], [[0, -2]])])
    def test_negative_rejected(self, a, b):
        with pytest.raises(MatrixError, match="dominance needs nonnegative matrices"):
            dominance_q(IntMatrix(a), IntMatrix(b))

    @pytest.mark.parametrize("a, b", [([[1, 2]], [[1], [2]]), ([[1]], [[1, 1]]),
                                      ([[1], [1]], [[1]])])
    def test_shape_error(self, a, b):
        with pytest.raises(MatrixError, match=r"cannot compare \d+x\d+ and \d+x\d+"):
            dominance_q(IntMatrix(a), IntMatrix(b))


def bit_tuples(support):
    """The set bits of each row of a support, by set_bits, as tuples."""
    return tuple(tuple(set_bits(mask)) for mask in support)


def all_tuples(row_bits, col_bits, *supports):
    """Whether the set-bit lists of a walk, each list in them, and the
    supports are all tuples, so the walk an InclusionMatrix keeps is
    immutable."""
    return all(type(x) is tuple for x in (row_bits, col_bits, *row_bits, *col_bits, *supports))


def bool_product(a, b):
    """supp(A B) by the OR-of-selected-rows step of the support chains."""
    return tuple(_select_or(map(set_bits, a), b))


class TestBoolMultiply:
    def test_identity(self):
        x = S3S4.support()
        assert bool_product(identity(3).support(), x) == x

    def test_s3s4_gram_pattern(self):
        product = bool_product(S3S4.support(), S3S4.transpose().support())
        expected = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]]).support()
        assert product == expected

    @given(chained_matrices(2, min_value=0, max_value=3))
    @example(WIDE_PAIRS[0])
    @example(WIDE_PAIRS[1])
    @example(WIDE_PAIRS[2])
    @example(WIDE_PAIRS[3])
    def test_support_homomorphism(self, pair):
        a, b = pair
        expected = (a * b).support()
        assert bool_product(a.support(), b.support()) == expected
        assert naive_support_product(a.support(), b.support()) == expected

    @pytest.mark.parametrize("m", [m for pair in WIDE_PAIRS for m in pair])
    def test_wide_transpose_and_bits_round_trip(self, m):
        s, t = m.support(), m.transpose().support()
        # zero rows and columns, at either end of a 64-bit word, are walked
        # as empty tuples and transposed as zero masks
        support, row_bits, col_bits, supp_t = walk_support(m.entries, m.cols)
        assert support == s and supp_t == t
        assert row_bits == bit_tuples(s) and col_bits == bit_tuples(t)
        assert all_tuples(row_bits, col_bits, support, supp_t)
        assert naive_support_transpose(s, m.cols) == t
        assert support_bits(s, m.cols) == tuple(tuple(e > 0 for e in row)
                                                for row in m.entries)


def test_inclusion_matrix_keeps_its_walk():
    # the walk is a property of the matrix: row_bits and col_bits are the
    # set bits of supp(M) and of the naive transpose, supp_t that transpose,
    # and the transposed matrix has the same walk read the other way
    rng = random.Random(31)
    matrices = [random_inclusion(rng, max_dim=rng.choice((3, 9, 70))) for _ in range(300)]
    matrices += [InclusionMatrix(dense_rows(random.Random(seed), 40)) for seed in (1, 2)]
    matrices += [InclusionMatrix(identity(n)) for n in (63, 64, 65)]
    for m in matrices:
        t = naive_support_transpose(m.support, m.cols)
        assert m.supp_t == t, m
        assert m.row_bits == bit_tuples(m.support) and m.col_bits == bit_tuples(t), m
        mt = m.transposed()
        assert (mt.row_bits, mt.col_bits, mt.support, mt.supp_t) == (
            m.col_bits, m.row_bits, m.supp_t, m.support), m
        # and the one a matrix built and walked afresh from M^t's entries has
        fresh = InclusionMatrix([list(col) for col in zip(*m.matrix.entries)])
        assert (mt.matrix, mt.rows, mt.cols) == (fresh.matrix, m.cols, m.rows), m
        assert (mt.row_bits, mt.col_bits, mt.support, mt.supp_t) == (
            fresh.row_bits, fresh.col_bits, fresh.support, fresh.supp_t), m
        assert mt.gram == fresh.gram and mt.transposed().matrix == m.matrix, m
        for walk in ((m.row_bits, m.col_bits, m.support, m.supp_t),
                     (mt.row_bits, mt.col_bits, mt.support, mt.supp_t)):
            assert all_tuples(*walk), m


def test_walk_matches_cell_oracle():
    # seeded matrices up to 9x9 with entries in -2..3: IntMatrix.support(),
    # walk_support and InclusionMatrix give the fields the cell-by-cell
    # oracle reads, or the MatrixError it names, message and row, in the
    # order negative entry, zero row, zero column
    rng = random.Random(28)
    seen = Counter()
    for _ in range(2400):
        r, s = rng.randint(1, 9), rng.randint(1, 9)
        zero, negative = rng.choice((0.1, 0.4, 0.8)), rng.choice((0, 0, 0.01, 0.1))
        cells = [[0 if rng.random() < zero else
                  rng.randint(-2, -1) if rng.random() < negative else rng.randint(1, 3)
                  for _ in range(s)] for _ in range(r)]
        m, expected = IntMatrix(cells), inclusion_rejection(cells)
        if expected is not None and expected[0].startswith("negative"):
            for call in (m.support, lambda: walk_support(m.entries, s)):
                with pytest.raises(MatrixError) as info:
                    call()
                assert (str(info.value), info.value.row) == expected, cells
        else:
            fields = support_walk(cells)
            assert m.support() == fields[0], cells
            assert walk_support(m.entries, s) == fields, cells
        if expected is None:
            got = InclusionMatrix(m)
            assert (got.support, got.row_bits, got.col_bits, got.supp_t) == fields, cells
        else:
            with pytest.raises(MatrixError) as info:
                InclusionMatrix(cells)
            assert (str(info.value), info.value.row) == expected, cells
        seen[" ".join(expected[0].split()[:2]) if expected else "valid"] += 1
    assert min(seen[key] for key in ("valid", "zero row", "zero column")) >= 100, seen
    assert sum(n for key, n in seen.items() if key.startswith("negative")) >= 100, seen


def test_transposed_makes_no_walk(monkeypatch):
    # M^t reads the matrix's walk the other way: building it neither walks
    # a support nor walks the set bits of a row
    m = InclusionMatrix(dense_rows(random.Random(5), 40))
    want = InclusionMatrix(m.matrix.transpose())

    def refuse(*args):
        raise AssertionError("transposed() walked a support")
    monkeypatch.setattr(exactmat, "walk_support", refuse)
    monkeypatch.setattr(exactmat, "set_bits", refuse)
    mt = m.transposed()
    assert (mt.rows, mt.cols, mt.support, mt.col_bits) == (60, 40, m.supp_t, m.row_bits)
    assert mt == want and mt.supp_t == want.supp_t


def _cells(m):
    return [list(row) for row in m.entries]


def has_negative(*matrices):
    return any(min(map(min, m.entries)) < 0 for m in matrices)


def check_product(a, b):
    """a * b is the naive product of nonnegative operands, and a MatrixError
    when either has a negative entry."""
    if has_negative(a, b):
        with pytest.raises(MatrixError, match="nonnegative"):
            a * b
    else:
        product = a * b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert _cells(product) == naive_multiply(_cells(a), _cells(b)), (a, b)


def _packed_cases():
    """Seeded conformable pairs for the packed-row product kernel."""
    rng = random.Random(130)

    def block(rows, cols, low, high, density=1.0):
        return IntMatrix([[rng.randint(low, high) if rng.random() < density else 0
                           for _ in range(cols)] for _ in range(rows)])

    cases = {
        "1x1": (block(1, 1, 0, 9), block(1, 1, 0, 9)),
        "1x130": (block(1, 5, 0, 3), block(5, 130, 0, 3, 0.3)),
        "130x1": (block(130, 5, 0, 3, 0.3), block(5, 1, 0, 3)),
        "inner_130": (block(1, 130, 0, 3, 0.3), block(130, 1, 0, 3, 0.3)),
        "zero_left_rows": (IntMatrix([[0] * 7, [1, 0, 2, 0, 0, 3, 0], [0] * 7]),
                           block(7, 4, 0, 5)),
        "all_zero": (IntMatrix([[0, 0], [0, 0]]), block(2, 3, 0, 5)),
        "big_1e50": (block(3, 4, 10**50 - 5, 10**50), block(4, 3, 0, 10**50)),
        "signed_left": (block(6, 5, -7, 7), block(5, 4, 0, 9)),
        "signed_right": (block(6, 5, 0, 9), block(5, 4, -7, 7)),
        "signed_both": (block(6, 5, -10**20, 10**20), block(5, 4, -7, 7)),
        "negative_only": (block(3, 3, -4, -1), block(3, 2, -4, -1)),
        # the packed slots would borrow across each other: the product is
        # [[1]], which a kernel reading unsigned slots cannot return
        "signed_borrow": (IntMatrix([[-1, 2]]), IntMatrix([[1], [1]])),
    }
    for width in (63, 64, 65):
        cases[f"inner_{width}"] = (block(5, width, 0, 3, 0.5), block(width, 7, 0, 3, 0.5))
        cases[f"outer_{width}"] = (block(width, 4, 0, 3, 0.5), block(4, width, 0, 3, 0.5))
    return cases


def _edge_cases():
    """Products of constant blocks around a slot edge.

    Every cell of a product of constant blocks is inner * a * b, and with
    a, b of the form 2^k - 1 and inner 3 or 7 it needs exactly the
    bits(inner) + bits(a) + bits(b) bits that size the slot; 2^k moves a
    bit length across the byte edge.
    """
    cases = []
    for k in range(1, 17):
        for inner in (1, 3, 7, 255, 256):
            for a, b in ((2**k - 1, 2**k - 1), (2**k - 1, 2**(k + 1) - 1),
                         (2**k, 2**k - 1), (2**k, 2**k)):
                cases.append((IntMatrix([[a] * inner] * 2), IntMatrix([[b] * 3] * inner)))
    return cases


PACKED_CASES = _packed_cases()
EDGE_CASES = _edge_cases()


class TestPackedProduct:
    @pytest.mark.parametrize("name", PACKED_CASES)
    def test_matches_naive(self, name):
        # the signed_* and negative_only cases are rejected
        a, b = PACKED_CASES[name]
        assert has_negative(a, b) == name.startswith(("signed", "negative"))
        check_product(a, b)

    def test_slot_edges(self):
        # for every residue mod 8 of the slot's bit bound, some product needs
        # all of those bits, so a slot one bit narrower truncates it
        tight = set()
        for a, b in EDGE_CASES:
            assert _cells(a * b) == naive_multiply(_cells(a), _cells(b)), (a, b)
            x, y = a.entries[0][0], b.entries[0][0]
            bound = a.cols.bit_length() + x.bit_length() + y.bit_length()
            if (a.cols * x * y).bit_length() == bound:
                tight.add(bound % 8)
        assert tight == set(range(8))

    def test_word_slot_edges(self):
        # constant blocks whose every product cell needs exactly the slot's
        # bit bound of 63, 64 or 65 bits: the first two fill an 8-byte slot,
        # the third would carry out of one; a signed left operand with the
        # same bound is rejected
        for a, b, bound in ((2**30 - 1, 2**31 - 1, 63), (2**31 - 1, 2**31 - 1, 64),
                            (2**31 - 1, 2**32 - 1, 65)):
            assert (3 * a * b).bit_length() == bound == 2 + a.bit_length() + b.bit_length()
            right = IntMatrix([[b] * 4] * 3)
            for left in (IntMatrix([[a] * 3] * 2), IntMatrix([[a] * 3, [-a] * 3])):
                check_product(left, right)

    @pytest.mark.parametrize("x", [2**64 - 1, 2**64])
    def test_word_sized_entries(self, x):
        # around the largest value of an 8-byte slot, on either side; the
        # signed pair is rejected
        for a, b in (([[x, 1], [0, 2]], [[1, 3, 0], [x, 0, 1]]),
                     ([[1, 0], [2, 1]], [[x, x], [1, x]]),
                     ([[x, -1], [-x, 2]], [[1, -x], [3, 1]])):
            check_product(IntMatrix(a), IntMatrix(b))

    def test_scalar_operand_is_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix([[1, 2]]) * 3
        with pytest.raises(TypeError):
            2 * IntMatrix([[1, 2]])


class TestSlots:
    """unpack reads a whole packed row, and triangle reads row i of a
    square matrix from its start slot i on, on the word path (at most 64
    bits) and the byte path."""

    @pytest.mark.parametrize("bits", [1, 63, 64, 65, 80, 200])
    def test_unpack_from_a_start_slot(self, bits):
        rng = random.Random(bits)
        top = (1 << bits) - 1
        for count in (1, 2, 7, 33):
            rows = [(top, *(rng.randint(0, top) for _ in range(count - 1)))
                    for _ in range(count)]
            width, pack, unpack = slots(bits, count)
            assert width == (8 if bits <= 64 else (bits + 7) // 8)
            packed = list(map(pack, rows))
            assert list(map(unpack, packed)) == rows
            assert triangle(packed, width) == upper_cells(rows)


class TestOneLayout:
    """The packed layout, pinned with no host in it: slot j of a packed int
    is bits 8 width j to 8 width (j + 1), so the int's little-endian bytes
    are its entries' little-endian bytes back to back, in word slots and in
    9-, 13-, 16- and 25-byte slots, and unpack, triangle, diagonal and widen
    read those bytes back to the plain entries."""

    @pytest.mark.parametrize("bits", [1, 63, 64, 65, 72, 100, 128, 200])
    def test_packed_ints_match_across_hosts(self, bits):
        rng = random.Random(bits)
        top = (1 << bits) - 1
        width = 8 if bits <= 64 else (bits + 7) // 8
        wide = width + 3
        for count in (1, 2, 7, 33):
            rows = [[top] * count, *([rng.randint(0, top) for _ in range(count)]
                                     for _ in range(count - 1))]
            slot, pack, unpack = slots(bits, count)
            assert slot == width
            packed = list(map(pack, rows))
            for x, row in zip(packed, rows):
                assert x.to_bytes(width * count, "little") == b"".join(
                    [e.to_bytes(width, "little") for e in row])
            assert [list(unpack(x)) for x in packed] == rows
            assert triangle(packed, width) == upper_cells(rows)
            assert diagonal(packed, width) == [row[i] for i, row in enumerate(rows)]
            for x, row in zip(widen(packed, width, wide, count), rows):
                assert x.to_bytes(wide * count, "little") == b"".join(
                    [e.to_bytes(wide, "little") for e in row])


def _left_rows(rng, kind, rows, cols):
    """Seeded nonnegative rows of one kind: every nonzero entry a unit, no
    unit at all, or units mixed with larger entries, with a unit at (i, i)
    in each mixed row i < cols."""
    cells = []
    for i in range(rows):
        if kind == "all units":
            row = [int(rng.random() < 0.5) for _ in range(cols)]
        elif kind == "unit-free":
            row = [rng.choice((0, 2, 3, 255, 10**6)) for _ in range(cols)]
        else:
            row = [rng.choice((0, 1, 1, 2, 7, 10**6)) for _ in range(cols)]
            if i < cols:
                row[i] = 1
        if not any(row):
            row[i % cols] = 1 if kind != "unit-free" else 2
        cells.append(row)
    return cells


LEFT_KINDS = ("all units", "unit-free", "mixed")


class TestPlannedProduct:
    """The one product kernel: plan_rows splits each row of the left
    operand into its units, summed with no multiplication, and its larger
    entries, multiplied; planned_sums adds the packed rows of the right
    operand by that plan, or by a one-shot product's, which takes each left
    row as its own mask. Against _oracles.naive_multiply, on left rows of
    every kind and right entries on either side of a word slot's largest
    value and in byte slots."""

    @pytest.mark.parametrize("kind", LEFT_KINDS)
    def test_plans(self, kind):
        a = _left_rows(random.Random(7), kind, 9, 9)
        for row, (units, coefficients, picks) in zip(a, plan_rows(a)):
            if 1 in row:
                # units, and the larger entries picked by column
                assert units == [j for j, x in enumerate(row) if x == 1], row
                assert coefficients == [x for x in row if x > 1], row
                assert picks == [j for j, x in enumerate(row) if x > 1], row
                assert all(type(x) is list for x in (units, coefficients, picks)), row
            else:  # the row is its own mask
                assert not units and coefficients is picks is row, row
        assert any(1 in row for row in a) == (kind != "unit-free")
        if kind == "mixed":
            assert all(row[i] == 1 for i, row in enumerate(a))

    @pytest.mark.parametrize("x", [2**64 - 1, 2**64, 2**80 + 3],
                             ids=["2^64 - 1", "2^64", "2^80 + 3"])
    @pytest.mark.parametrize("kind", LEFT_KINDS)
    def test_matches_naive(self, kind, x):
        rng = random.Random(x % 1000)
        for rows, inner, cols in ((9, 9, 9), (1, 12, 5), (12, 5, 1)):
            a = _left_rows(rng, kind, rows, inner)
            b = [[rng.choice((0, 1, x - 1, x)) for _ in range(cols)] for _ in range(inner)]
            want = naive_multiply(a, b)
            # a chain's plan, which splits out the units, and a one-shot
            # product's, which takes each row as its mask
            bits = inner.bit_length() + max(map(max, a)).bit_length() + x.bit_length()
            _, pack, unpack = slots(bits, cols)
            sums = planned_sums(plan_rows(a), list(map(pack, b)))
            assert [list(unpack(s)) for s in sums] == want
            assert product(a, b) == list(map(tuple, want)), (a, b)
            assert _cells(IntMatrix(a) * IntMatrix(b)) == want, (a, b)

    @pytest.mark.parametrize("width", [8, 9, 16])
    @pytest.mark.parametrize("kind", LEFT_KINDS)
    def test_sums_fill_a_slot(self, kind, width):
        # one left row at a time, and right columns whose product cells are
        # the slot's largest value 2^(8 width) - 1 less 0, 1, ..., so the
        # units' sums and the products run to the slot's top bit and not
        # one past it: word slots for width 8, byte slots past it
        rng = random.Random(width)
        top = (1 << 8 * width) - 1
        for row in _left_rows(rng, kind, 6, 7):
            nonzero = [j for j, x in enumerate(row) if x]
            b = [[0] * 5 for _ in row]
            for col in range(5):
                rest = top - col
                for j in nonzero[1:]:
                    b[j][col] = rng.randint(0, rest // (row[j] * len(nonzero)))
                    rest -= row[j] * b[j][col]
                b[nonzero[0]][col] = rest // row[nonzero[0]]
            want = naive_multiply([row], b)
            assert max(want[0]) > top // 2 and max(want[0]) <= top
            if row[nonzero[0]] == 1:
                assert want[0] == [top - col for col in range(5)]
            slot, pack, unpack = slots(8 * width, 5)
            assert slot == width
            sums = planned_sums(plan_rows([row]), list(map(pack, b)))
            assert [list(unpack(x)) for x in sums] == want


def mixed_unit_gram():
    """Gram of a seeded sparse 14x18 matrix of 1s and 4s: rows of G with
    only units (one of them on the diagonal), with none, and with both, and
    products past the word slots from G^10 on."""
    rng = random.Random(30)
    cells = [[rng.choice((1, 1, 1, 4)) if rng.random() < 0.2 else 0 for _ in range(18)]
             for _ in range(14)]
    for i, row in enumerate(cells):
        if not any(row):
            row[i] = 1
    for j in range(18):
        if not any(row[j] for row in cells):
            cells[rng.randrange(14)][j] = 1
    return InclusionMatrix(cells).gram.entries


CHAIN_SOURCES = ["S_16 <= S_17", "near 10^6", "1x1", "units and larger", "not a Gram matrix"]


class TestTriangle:
    """exactmat.triangle reads a packed square matrix as its flat upper
    triangle, row i from slot i on, by one bytes join and one read: against
    the plain powers (_oracles.naive_powers) packed in word slots and in
    9-, 13-, 16- and 25-byte slots, with a matrix of the slot's largest
    values beside them."""

    @pytest.mark.parametrize("width", [8, 9, 13, 16, 25])
    def test_matches_the_plain_powers(self, width):
        rng = random.Random(width)
        top = (1 << 8 * width) - 1
        g = symmetric_matrix(rng, 9, 10**6, 0.6).entries
        powers = [p for p in naive_powers(g, 12) if max(map(max, p)) <= top]
        full = [[top - abs(i - j) for j in range(9)] for i in range(9)]
        # each power is about 2^22 times the last, so the last to fit fills
        # all but the slot's top three bytes
        assert len(powers) > 2 and max(map(max, powers[-1])).bit_length() > 8 * (width - 3)
        slot, pack, _ = slots(8 * width, 9)
        assert slot == width
        for power in (*powers, full):
            assert triangle(list(map(pack, power)), width) == upper_cells(power)


def _left_of(g, rng, rows):
    """Seeded rows of an L with len(g) columns, entries 0, 1 and 2, whose
    row sums are at most tr G, as symmetric_powers asks of its left: the
    first row as large as that allows."""
    budget = sum(g[i][i] for i in range(len(g)))
    cells = []
    for _ in range(rows):
        row, rest = [0] * len(g), budget
        for j in rng.sample(range(len(g)), len(g)):
            row[j] = min(rest, rng.choice((0, 1, 1, 2)) if cells else 2)
            rest -= row[j]
        cells.append(row)
    return cells


class TestSymmetricPowers:
    """exactmat.symmetric_powers(g, c, exact, left) forms G^1, G^2, ...,
    and hands out at each step the power sums s_j = tr G^j it has taken,
    which must be the plain ones (_oracles.naive_powers), and the witness
    pair at the step asked for. The chain forms the plan of G once, carries
    its packed rows from product to product, widened when the slots grow,
    and forms each power past G^1 by one product, only when it is pulled.
    Below the power a sum or the odd pair reads, t // 2 + 1 for
    t = min(max(exact, 1), c - 1), it reads only diagonals, and sizes its
    slots from a bound that holds for any nonnegative symmetric G. Spies on
    exactmat's diagonal, triangle and _frobenius see every power it reads."""

    @staticmethod
    def source(name):
        """(rows of G, the last power checked)."""
        if name == "S_16 <= S_17":
            return branching_matrix(17).gram.entries, 16
        if name == "near 10^6":
            return near_million_gram(), 16
        if name == "1x1":
            return [[7]], 30
        if name == "units and larger":
            g = mixed_unit_gram()
            kinds = {(1 in row, max(row) > 1) for row in g}
            assert kinds == {(True, False), (False, True), (True, True)}
            assert any(row[i] == 1 for i, row in enumerate(g))
            return g, 16
        # zero diagonal, so trace 0: a nonzero G has a negative eigenvalue,
        # and no Gram matrix has one
        cells = symmetric_matrix(random.Random(27), 7, 10**30, 0.5).entries
        g = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(cells)]
        assert any(map(any, g))
        return g, 8

    @staticmethod
    def spy(monkeypatch):
        """Lists that fill as a chain runs: the length of each plan formed and
        of each product's plan; (products before it, old, new) for each
        widening; (step, diagonal) for each diagonal read alone; (step,
        triangle) for each triangle read; the step of each call of upper;
        and (step, a, b) for each Frobenius product, a and b as (diagonal,
        cells) lists. Every step n >= 2 reads G^n once, on its diagonal or
        as its triangle, so the step that reads no power yet is one past
        those reads."""
        seen = {key: [] for key in ("plans", "products", "widened", "reads", "triangles",
                                    "upper", "frobenius")}
        plan_rows, planned_sums, widen, diagonal, read_triangle, upper, frobenius_sum = (
            exactmat.plan_rows, exactmat.planned_sums, exactmat.widen, exactmat.diagonal,
            exactmat.triangle, exactmat.upper, exactmat._frobenius)

        def step():
            return 1 + len(seen["reads"]) + len(seen["triangles"])

        def plan_spy(a):
            seen["plans"].append(len(a))
            return plan_rows(a)

        def planned_spy(plan, packed):
            seen["products"].append(len(plan))
            return planned_sums(plan, packed)

        def widen_spy(packed, old, new, count):
            seen["widened"].append((len(seen["products"]), old, new))
            return widen(packed, old, new, count)

        def diagonal_spy(packed, width):
            seen["reads"].append((step() + 1, diagonal(packed, width)))
            return seen["reads"][-1][1]

        def triangle_spy(packed, width):
            seen["triangles"].append((step() + 1, read_triangle(packed, width)))
            return seen["triangles"][-1][1]

        def upper_spy(rows):
            seen["upper"].append(step())
            return upper(rows)

        def frobenius_spy(a, b):
            a, b = [(list(diag), list(cells)) for diag, cells in (a, b)]
            seen["frobenius"].append((step(), a, b))
            return frobenius_sum(a, b)
        for attr, spy in (("plan_rows", plan_spy), ("planned_sums", planned_spy),
                          ("widen", widen_spy), ("diagonal", diagonal_spy),
                          ("triangle", triangle_spy), ("upper", upper_spy),
                          ("_frobenius", frobenius_spy)):
            monkeypatch.setattr(exactmat, attr, spy)
        return seen

    @staticmethod
    def check_sums(g, want, traces, c, exact, steps, seen, sums, known):
        """The sums a chain asked for exact with ceiling c handed out after
        steps steps, against want = naive_powers(g, top), top >= steps, and
        traces = traces_of(want): each sum set, and every known one, must
        be tr G^j, and none past s_(2 steps) or s_(2c-2) is set. The
        Frobenius products are those of s_(t+1) at step t, over the nonzero
        cells of G's triangle, and at each step n < c of s_(2n-1) and s_2n
        past s_(t+1), of the full triangles of G^(j // 2) and
        G^((j + 1) // 2)."""
        r, t = len(g), min(max(exact, 1), c - 1)
        formed = min(2 * steps, 2 * c - 2)
        assert known == min(2 * steps if steps >= t else steps, formed)
        assert len(sums) == 2 * c - 1 and set(sums[formed + 1:]) <= {None}
        traces = traces[:formed + 1]
        assert sums[:known + 1] == traces[:known + 1]
        assert all(x is None or x == s for x, s in zip(sums, traces))
        order = []
        for n in range(1, min(steps, c - 1) + 1):
            order += [(n, t + 1)] * (n == t) + [(n, j) for j in (2 * n - 1, 2 * n) if j > t + 1]
        assert [n for n, _, _ in seen["frobenius"]] == [n for n, _ in order]
        mask = upper_cells(g)
        for (n, j), (_, a, b) in zip(order, seen["frobenius"]):
            low, high = want[j // 2], want[(j + 1) // 2]
            if j == t + 1:
                low, high = want[t], g
                cells = ([x for x, y in zip(upper_cells(low), mask) if y], [x for x in mask if x])
            else:
                cells = list(upper_cells(low)), list(upper_cells(high))
            assert a == ([low[i][i] for i in range(r)], cells[0]), (exact, j)
            assert b == ([high[i][i] for i in range(r)], cells[1]), (exact, j)

    @staticmethod
    def traces_of(want):
        """tr G^j for j <= 2 top, from want = naive_powers(g, top): s_j is
        <G^(j // 2), G^((j + 1) // 2)> over every cell, as G is symmetric."""
        return [frobenius(want[j // 2], want[(j + 1) // 2]) for j in range(2 * len(want) - 1)]

    @staticmethod
    def check_reads(g, want, whole, last, seen):
        """G^2, ..., G^(whole - 1) read on their diagonals alone, and each
        power from G^whole through G^last by one triangle read."""
        r = len(g)
        assert seen["reads"] == [(n, [want[n][i][i] for i in range(r)])
                                 for n in range(2, min(whole, last + 1))]
        assert seen["triangles"] == [(n, upper_cells(want[n]))
                                     for n in range(max(whole, 2), last + 1)]

    @pytest.mark.parametrize("name", CHAIN_SOURCES)
    def test_every_power_matches_the_oracle(self, monkeypatch, name):
        # exact 0 makes t = 1, so the chain reads every triangle, and with
        # c = top + 1 it takes both Frobenius sums of every step but the first
        self.check(monkeypatch, name, False)

    @pytest.mark.parametrize("name", CHAIN_SOURCES)
    def test_diagonals_below_the_last_power(self, monkeypatch, name):
        # exact = c - 1 = 2 top - 2 makes t = 2 top - 2, so the chain reads
        # G^2, ..., G^(top - 1) on their diagonals alone and G^top as its
        # triangle, for s_(2 top) = <G^top, G^top>
        self.check(monkeypatch, name, True)

    def check(self, monkeypatch, name, diagonals):
        """Pull G^1, ..., G^top and check each read, each sum and each
        widening against the oracle."""
        g, top = self.source(name)
        exact, c = (2 * top - 2, 2 * top - 1) if diagonals else (0, top + 1)
        whole = min(max(exact, 1), c - 1) // 2 + 1
        assert whole == (top if diagonals else 1)
        r, want = len(g), naive_powers(g, top)
        traces, seen = self.traces_of(want), self.spy(monkeypatch)
        chain = exactmat.symmetric_powers(g, c, exact)
        assert seen["products"] == seen["plans"] == []
        for n, (sums, known, pair) in zip(range(1, top + 1), chain):
            assert pair is None, n
            self.check_sums(g, want, traces, c, exact, n, seen, sums, known)
            # pulling G^1, ..., G^n makes n - 1 products, each of all r rows,
            # from the one plan of G formed at the first of them
            assert seen["products"] == [r] * (n - 1), n
            assert seen["plans"] == [r] * (n > 1), n
        self.check_reads(g, want, whole, top, seen)
        # G's own triangle is formed from its rows, with no unpacking, once:
        # at step 1 when the chain reads every triangle, and never when its
        # s_(t+1) and odd pair are past the steps pulled
        assert seen["upper"] == ([] if diagonals else [1])
        if diagonals:
            assert [n for n, _, _ in seen["frobenius"]] == [top]
        # the product forming G^n has slots of r max(G) max(G^(n-1)), or a
        # bound on max G^(n-1) where only its diagonal was read, which never
        # narrow; the rows are widened just before the product that first
        # needs a wider slot, after the n - 2 products G^2, ..., G^(n-1)
        widths = chain_widths(g, want, whole)
        assert seen["widened"] == [(n - 2, old, new) for n, old, new
                                   in zip(range(3, top + 1), widths, widths[1:]) if new > old]
        if name == "S_16 <= S_17":  # words through G^14, 9-byte slots from G^15
            assert seen["widened"] == [(13, 8, 9)]
        elif name == "near 10^6":  # every power needs wider slots than the one before
            assert len(seen["widened"]) == top - 2
        elif name == "units and larger":  # words through G^9, 9-byte slots for G^10
            assert widths.index(9) == 8

    @pytest.mark.parametrize("name", CHAIN_SOURCES)
    def test_witness_pairs(self, monkeypatch, name):
        # asked for the pair at step exact, the chain yields it there and
        # nowhere else: the triangles of G^(exact-1) and G^exact, or with a
        # left L the cells of L G^(exact-1) and L G^exact, row after row,
        # which it sums from the packed rows of both powers widened to the
        # slots of G^(exact+1). With c = exact + 1 its last sums come at
        # step exact, and with c = exact step exact takes none. Each chain
        # goes on to exact + 2 past the pair with every power and sum right
        # and the same slot widths.
        g, top = self.source(name)
        r, want = len(g), naive_powers(g, top)
        left = _left_of(g, random.Random(r), 5)
        traces, seen = self.traces_of(want), self.spy(monkeypatch)
        for exact in sorted({1, 2, 3, 4, top - 3, top - 2}):
            for c, rows in itertools.product((exact, exact + 1), (None, left)):
                for found in seen.values():
                    found.clear()
                t = min(exact, c - 1)
                whole = t // 2 + 1
                chain = exactmat.symmetric_powers(g, c, exact, rows)
                for n, (sums, known, pair) in zip(range(1, exact + 3), chain):
                    self.check_sums(g, want, traces, c, exact, n, seen, sums, known)
                    if n != exact:
                        assert pair is None, (exact, n)
                    elif rows is None:
                        assert pair == [upper_cells(p) for p in want[n - 1:n + 1]], n
                    else:
                        assert [list(cells) for cells in pair] == [
                            [x for row in naive_multiply(rows, p) for x in row]
                            for p in want[n - 1:n + 1]], n
                self.check_reads(g, want, whole, exact + 2, seen)
                # G's own triangle once: at step 1 where the chain reads
                # every triangle or the odd pair reads it, else at step t
                # for s_(t+1)
                early = whole == 1 or rows is None and exact <= 2
                assert seen["upper"] == [1 if early else t], (exact, c)
                # the slots grow as the chain alone would grow them; the
                # even witness widens G^(exact-1) and G^exact to G^(exact+1)'s
                # slots at its own step, two widenings for the product's one
                widths = chain_widths(g, want[:exact + 3], whole)
                expect = []
                for i, (old, new) in enumerate(zip(widths, widths[1:])):
                    if new > old:
                        expect += [(old, new)] * (2 if rows and i == exact - 2 else 1)
                assert [w[1:] for w in seen["widened"]] == expect, (exact, c)

    @pytest.mark.parametrize("name", ["s3s4.mat", "S_2 <= S_3", "7", "dense 12 rows",
                                      "tall 6x2"])
    def test_sums_through_the_ceiling(self, monkeypatch, name):
        # asked for any exact, every sum the chain hands out is tr G^j, and
        # by step c it has formed each s_j, j <= 2c - 2, and no other: a
        # trace for j <= t and one Frobenius product for each of s_(t+1),
        # ..., s_(2c-2), none of them at step c
        if name == "7":
            g, c = [[7]], 1
        else:
            m = InclusionMatrix({"s3s4.mat": S3S4, "S_2 <= S_3": branching_matrix(3).matrix,
                                 "dense 12 rows": dense_rows(random.Random(0), 12),
                                 "tall 6x2": [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1], [3, 1]],
                                 }[name])
            g, c = m.gram.entries, min(m.rows, m.cols + 1)
        p = berkowitz_char_poly(IntMatrix(g))
        k = p.degree - poly_gcd(p, p.derivative()).degree
        assert (len(g), c, k) == {"s3s4.mat": (3, 3, 3), "S_2 <= S_3": (2, 2, 2), "7": (1, 1, 1),
                                  "dense 12 rows": (12, 12, 12), "tall 6x2": (6, 3, 3)}[name]
        want = naive_powers(g, 2 * c - 2)
        traces = [sum(power[i][i] for i in range(len(g))) for power in want]
        calls, frobenius_sum = [], exactmat._frobenius

        def frobenius_spy(a, b):
            calls.append(frobenius_sum(a, b))
            return calls[-1]
        monkeypatch.setattr(exactmat, "_frobenius", frobenius_spy)
        for exact in sorted({0, 1, k // 2, k, c}):
            calls.clear()
            t = min(max(exact, 1), c - 1)
            chain = exactmat.symmetric_powers(g, c, exact)
            for n in range(1, c + 1):
                before = len(calls)
                sums, known, _ = next(chain)
                assert len(sums) == 2 * c - 1, (exact, n)
                assert all(x is None or x == s for x, s in zip(sums, traces)), (exact, n)
                assert sums[:known + 1] == traces[:known + 1], (exact, n)
            assert (known, len(calls), before) == (2 * c - 2, 2 * c - 2 - t, 2 * c - 2 - t), exact
            assert sorted(calls) == sorted(traces[t + 1:]), exact

    @pytest.mark.parametrize("name", CHAIN_SOURCES)
    def test_next_sum_over_the_nonzero_cells_of_g(self, monkeypatch, name):
        # the chain takes s_(t+1) = <G^t, G> at step t over the nonzero
        # cells of G's triangle alone, and every other Frobenius sum over
        # every cell: each must be the plain Frobenius product, and a 1x1 G
        # takes none, as its count ends at c = 1
        g, top = self.source(name)
        r = len(g)
        mask = upper_cells(g)
        calls, frobenius_sum = [], exactmat._frobenius

        def frobenius_spy(a, b):
            a, b = [(list(diag), list(cells)) for diag, cells in (a, b)]
            calls.append((a, b))
            return frobenius_sum(a, b)
        monkeypatch.setattr(exactmat, "_frobenius", frobenius_spy)
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 0)
        want = naive_powers(g, top)
        for exact in sorted({1, 2, 3, top}):
            calls.clear()
            k, _ = charpoly._hankel_rank(g, exact, r)
            t = min(exact, r - 1)
            if r == 1:
                assert (k, calls) == (1, [])
                continue
            # the one sum against G's nonzero cells is s_(t+1), over G^t's
            # cells there; every other sum reads every cell of both powers
            g_power = ([g[i][i] for i in range(r)], [x for x in mask if x])
            sparse = [a for a, b in calls if b == g_power]
            assert sparse == [([want[t][i][i] for i in range(r)],
                               [x for x, y in zip(upper_cells(want[t]), mask) if y])], exact
            assert frobenius_sum(sparse[0], g_power) == frobenius(want[t], g), exact
            for a, b in calls:
                assert b == g_power or len(a[1]) == len(b[1]) == len(mask), exact


class TestKrylovDim:
    """The packed Krylov dimension against the list elimination it replaced
    (_oracles.krylov_dim_reference), mod P in word slots and mod 2^127 - 1
    in byte slots."""

    @staticmethod
    def matrices():
        yield from symmetric_corpus()
        rng = random.Random(21)
        for k in range(1, 5):
            for high in (1, 9, 10**6, 10**30):
                yield repeated_spectrum(rng, k, high)
        for n in range(4, 14):
            yield branching_matrix(n).gram
        yield from (dense_gram(0), dense_gram(1), repeated_rows_gram())
        for x in (0, 1, charpoly.P, 2**127 - 1, 1 << 200):
            yield IntMatrix([[x]])
        yield IntMatrix([[0, 2], [2, 3]])

    @pytest.mark.parametrize("p", [charpoly.P, 2**127 - 1], ids=["P", "2^127 - 1"])
    def test_matches_list_elimination(self, p):
        for m in self.matrices():
            assert exactmat.krylov_dim(m.entries, p) == krylov_dim_reference(m.entries, p), m
