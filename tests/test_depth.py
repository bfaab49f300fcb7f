import random

import pytest

from incdepth import (InclusionMatrix, IntMatrix, MatrixError, bracketed_power,
                      branching_matrix, depth_report, dominance_q, has_depth,
                      min_depth, min_hdepth, min_odd_depth_symmetric)

from _oracles import (min_depth_exact, min_hdepth_exact, naive_bracketed_powers,
                      random_inclusion, zero_count)

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])
C2M2 = InclusionMatrix([[1], [1]])
UPPER = InclusionMatrix([[1, 1], [0, 1]])
H8_MMT = IntMatrix([[5, 1, 1, 1, 0], [1, 5, 1, 1, 0], [1, 1, 5, 1, 0],
                    [1, 1, 1, 5, 0], [0, 0, 0, 0, 8]])


class TestInclusionMatrix:
    def test_rejects_zero_row(self):
        with pytest.raises(MatrixError, match="zero row 2"):
            InclusionMatrix([[1, 0], [0, 0]])

    def test_rejects_zero_column(self):
        with pytest.raises(MatrixError, match="zero column 2"):
            InclusionMatrix([[1, 0], [1, 0]])

    def test_rejects_negative(self):
        with pytest.raises(MatrixError, match=r"negative entry -1 at \(1,2\)"):
            InclusionMatrix([[1, -1], [1, 1]])

    def test_transposed(self):
        assert C2M2.transposed() == InclusionMatrix([[1, 1]])


class TestBracketedPower:
    def test_zero_is_identity(self):
        assert bracketed_power(S3S4, 0) == IntMatrix.identity(3)

    def test_one_is_matrix(self):
        assert bracketed_power(S3S4, 1) == S3S4.matrix

    def test_two_is_gram(self):
        assert bracketed_power(S3S4, 2) == IntMatrix(
            [[2, 1, 0], [1, 3, 1], [0, 1, 2]])

    def test_odd_column(self):
        # M M^t = all-ones 2x2, times M = (2;2)
        assert bracketed_power(C2M2, 3) == IntMatrix([[2], [2]])

    def test_shapes(self):
        for n in range(6):
            p = bracketed_power(S3S4, n)
            if n % 2 == 0:
                assert (p.rows, p.cols) == (3, 3)
            else:
                assert (p.rows, p.cols) == (3, 5)

    def test_rejects_negative_index(self):
        with pytest.raises(MatrixError):
            bracketed_power(S3S4, -1)


class TestHasDepth:
    def test_s3s4_fails_below_five(self):
        assert has_depth(S3S4, 4) is None
        assert has_depth(S3S4, 5) is not None

    def test_column_pair(self):
        assert has_depth(C2M2, 1) is None
        assert has_depth(C2M2, 2) == 2

    def test_identity_depth_one(self):
        for r in (1, 2, 4):
            ident = InclusionMatrix(IntMatrix.identity(r))
            assert has_depth(ident, 1) == 1

    def test_matches_naive_powers(self):
        # no witness below d, and the same minimal q from d on
        rng = random.Random(12)
        cases = [branching_matrix(n) for n in range(4, 9)]
        cases += [random_inclusion(rng, max_dim=6) for _ in range(40)]
        for m in cases:
            d = min_depth(m)
            powers = naive_bracketed_powers(m, d + 2)
            for n in range(1, d + 2):
                expected = dominance_q(powers[n + 1], powers[n - 1])
                assert (expected is None) == (n < d)
                assert has_depth(m, n) == expected


class TestMinDepth:
    def test_s3s4(self):
        assert min_depth(S3S4) == 5

    def test_column_pair(self):
        assert min_depth(C2M2) == 2

    def test_upper_triangular(self):
        # brute force over n = 1..4: depth 1 fails (M M^t not diagonal),
        # depth 2 fails (M^[3] has full support against M's zero cell),
        # depth 3 holds
        assert min_depth(UPPER) == 3

    def test_one_by_one(self):
        # degenerate base case: scalars dominate everything
        assert min_depth(InclusionMatrix([[7]])) == 1
        assert min_hdepth(InclusionMatrix([[7]])) == 1

    def test_matches_exact_oracle_on_random(self):
        rng = random.Random(20240811)
        for _ in range(120):
            m = random_inclusion(rng, max_dim=5, max_entry=3)
            assert min_depth(m) == min_depth_exact(m, 2 * (m.rows + m.cols) + 2)

    def test_boolean_equals_exact_exhaustive_small(self):
        # all shapes with r*s <= 6, entries in {0,1,2}
        shapes = [(r, s) for r in range(1, 5) for s in range(1, 5) if r * s <= 6]
        for r, s in shapes:
            for code in range(3 ** (r * s)):
                digits, rest = [], code
                for _ in range(r * s):
                    rest, d = divmod(rest, 3)
                    digits.append(d)
                cells = [digits[i * s:(i + 1) * s] for i in range(r)]
                if any(not any(row) for row in cells):
                    continue
                if any(not any(row[j] for row in cells) for j in range(s)):
                    continue
                m = InclusionMatrix(cells)
                cap = 2 * (r + s) + 2
                assert min_depth(m) == min_depth_exact(m, cap)
                assert min_hdepth(m) == min_hdepth_exact(m)

    def test_boolean_equals_exact_random_4x4(self):
        rng = random.Random(7)
        for _ in range(300):
            r = rng.randint(3, 4)
            s = rng.randint(3, 4)
            cells = [[rng.randint(0, 2) for _ in range(s)] for _ in range(r)]
            try:
                m = InclusionMatrix(cells)
            except MatrixError:
                continue
            assert min_depth(m) == min_depth_exact(m, 2 * (r + s) + 2)


class TestMonotonicity:
    def test_depth_monotone_random(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_inclusion(rng, max_dim=5)
            d = min_depth(m)
            for n in range(1, d + 4):
                witness = has_depth(m, n)
                assert (witness is not None) == (n >= d)

    def test_hdepth_monotone_odd_steps(self):
        rng = random.Random(4)
        for _ in range(40):
            m = random_inclusion(rng, max_dim=5)
            d_h = min_hdepth(m)
            s = m.matrix.transpose() * m.matrix
            prev = IntMatrix.identity(m.cols)
            power = s
            for n in range(1, (d_h + 1) // 2 + 3):
                witness = dominance_q(power, prev)
                assert (witness is not None) == (2 * n - 1 >= d_h)
                prev, power = power, power * s

    def test_support_nesting(self):
        rng = random.Random(5)
        for _ in range(40):
            m = random_inclusion(rng, max_dim=5)
            for n in range(1, 6):
                low = bracketed_power(m, n - 1)
                high = bracketed_power(m, n + 1)
                zeros_high = {(i, j) for i in range(high.rows)
                              for j in range(high.cols) if high[i, j] == 0}
                zeros_low = {(i, j) for i in range(low.rows)
                             for j in range(low.cols) if low[i, j] == 0}
                assert zeros_high <= zeros_low
                assert zero_count(bracketed_power(m, n + 2)) <= \
                    zero_count(bracketed_power(m, n))


class TestMinHDepth:
    def test_column_pair(self):
        # S = (2), dominated by 2*I
        assert min_hdepth(C2M2) == 1

    def test_s3s4(self):
        assert min_hdepth(S3S4) == 7

    def test_identity(self):
        for r in (1, 3):
            assert min_hdepth(InclusionMatrix(IntMatrix.identity(r))) == 1

    def test_always_odd(self):
        rng = random.Random(6)
        for _ in range(60):
            assert min_hdepth(random_inclusion(rng, max_dim=5)) % 2 == 1


class TestMinOddDepthSymmetric:
    def test_h8(self):
        assert min_odd_depth_symmetric(H8_MMT) == 3

    def test_identity(self):
        assert min_odd_depth_symmetric(IntMatrix.identity(4)) == 1

    def test_s3s4_gram(self):
        assert min_odd_depth_symmetric(
            IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])) == 5

    def test_rejects_asymmetric(self):
        with pytest.raises(MatrixError, match="symmetric"):
            min_odd_depth_symmetric(IntMatrix([[1, 2], [0, 1]]))

    def test_rejects_zero_diagonal(self):
        with pytest.raises(MatrixError, match="diagonal"):
            min_odd_depth_symmetric(IntMatrix([[0, 1], [1, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixError, match="square"):
            min_odd_depth_symmetric(IntMatrix([[1, 0]]))

    def test_matches_least_odd_depth_random(self):
        rng = random.Random(8)
        for _ in range(80):
            m = random_inclusion(rng, max_dim=5)
            gram = m.matrix * m.matrix.transpose()
            odd = min_odd_depth_symmetric(gram)
            assert odd % 2 == 1
            assert has_depth(m, odd) is not None
            if odd > 2:
                assert has_depth(m, odd - 2) is None


class TestDepthReport:
    def test_s3s4(self):
        rep = depth_report(S3S4)
        assert (rep.depth, rep.depth_transpose, rep.h_depth) == (5, 6, 7)
        assert (rep.min_odd_depth, rep.min_even_depth) == (5, 6)
        assert rep.spectral_bound == 5
        assert rep.all_methods_agree()

    def test_column_pair(self):
        rep = depth_report(C2M2)
        assert (rep.depth, rep.h_depth, rep.depth_transpose) == (2, 1, 1)
        assert rep.q_witness == 2
        assert rep.all_methods_agree()

    def test_upper_triangular(self):
        rep = depth_report(UPPER)
        assert (rep.depth, rep.depth_transpose, rep.h_depth) == (3, 3, 3)

    def test_inequalities_on_random(self):
        rng = random.Random(9)
        for _ in range(60):
            rep = depth_report(random_inclusion(rng, max_dim=5))
            assert abs(rep.depth - rep.h_depth) <= 2
            assert abs(rep.depth_transpose - rep.depth) <= 1
            assert 0 <= rep.h_depth - rep.depth_transpose <= 1
            assert rep.depth <= rep.spectral_bound
            assert rep.all_methods_agree()

    def test_permutation_invariance(self):
        rng = random.Random(10)
        for _ in range(60):
            m = random_inclusion(rng, max_dim=5)
            rows = list(range(m.rows))
            cols = list(range(m.cols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            shuffled = InclusionMatrix(
                [[m.matrix[i, j] for j in cols] for i in rows])
            assert min_depth(shuffled) == min_depth(m)
            assert min_hdepth(shuffled) == min_hdepth(m)
