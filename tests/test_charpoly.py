import random

import pytest

from incdepth import (InclusionMatrix, IntMatrix, IntPolynomial, MatrixError,
                      char_poly, depth_upper_bound, min_depth, minpoly_degree,
                      poly_gcd)

from _oracles import char_poly_value, poly_at_matrix, random_inclusion

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_degree_of_zero(self):
        assert IntPolynomial([]).degree == -1
        assert IntPolynomial([0, 0]).coeffs == ()

    def test_derivative(self):
        # x^3 - 7x^2 + 14x - 8  ->  3x^2 - 14x + 14
        p = IntPolynomial([-8, 14, -7, 1])
        assert p.derivative() == IntPolynomial([14, -14, 3])

    def test_evaluate(self):
        p = IntPolynomial([-8, 14, -7, 1])
        assert p(1) == 0 and p(2) == 0 and p(4) == 0 and p(0) == -8

    def test_rejects_floats(self):
        with pytest.raises(MatrixError):
            IntPolynomial([1.5])


class TestCharPoly:
    def test_all_ones_2x2(self):
        # x^2 - 2x by hand
        assert char_poly(IntMatrix([[1, 1], [1, 1]])) == IntPolynomial([0, -2, 1])

    def test_identity_2x2(self):
        # (x - 1)^2
        assert char_poly(IntMatrix.identity(2)) == IntPolynomial([1, -2, 1])

    def test_s3s4_gram(self):
        # x^3 - 7x^2 + 14x - 8 = (x-1)(x-2)(x-4), 3x3 determinant by hand
        p = char_poly(IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]]))
        assert p == IntPolynomial([-8, 14, -7, 1])

    def test_rejects_non_square(self):
        with pytest.raises(MatrixError, match="square"):
            char_poly(IntMatrix([[1, 2]]))

    def test_monic(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)]
                           for _ in range(n)])
            assert char_poly(m).coeffs[-1] == 1

    def test_matches_cofactor_determinant(self):
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)]
                           for _ in range(n)])
            p = char_poly(m)
            for t in range(-2, n + 2):
                assert p(t) == char_poly_value(m, t)

    def test_cayley_hamilton_small(self):
        rng = random.Random(16)
        for _ in range(25):
            n = rng.randint(1, 5)
            cells = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    cells[i][j] = cells[j][i] = rng.randint(-5, 5)
            m = IntMatrix(cells)
            assert poly_at_matrix(char_poly(m), m) == IntMatrix.identity(n) * 0


class TestPolyGcd:
    def test_coprime(self):
        f = IntPolynomial([-1, 1])   # x - 1
        g = IntPolynomial([-2, 1])   # x - 2
        assert poly_gcd(f, g) == IntPolynomial([1])

    def test_common_factor(self):
        # (x-1)^2 (x-2) and its derivative share exactly (x-1)
        f = IntPolynomial([-2, 5, -4, 1])
        assert poly_gcd(f, f.derivative()) == IntPolynomial([-1, 1])

    def test_content_removed(self):
        f = IntPolynomial([-4, 4])   # 4(x - 1)
        g = IntPolynomial([-6, 6])   # 6(x - 1)
        assert poly_gcd(f, g) == IntPolynomial([-1, 1])


class TestMinpolyDegree:
    def test_all_ones(self):
        # eigenvalues 0 and 2
        assert minpoly_degree(IntMatrix([[1, 1], [1, 1]])) == 2

    def test_identity(self):
        assert minpoly_degree(IntMatrix.identity(3)) == 1

    def test_s3s4_gram(self):
        assert minpoly_degree(IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])) == 3

    def test_diagonal_counts_distinct_eigenvalues(self):
        assert minpoly_degree(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == 2
        assert minpoly_degree(IntMatrix([[3, 0], [0, 5]])) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(MatrixError, match="symmetric"):
            minpoly_degree(IntMatrix([[1, 2], [0, 1]]))


class TestDepthUpperBound:
    def test_s3s4(self):
        assert depth_upper_bound(S3S4) == 5
        assert min_depth(S3S4) == 5  # bound attained

    def test_column_pair(self):
        m = InclusionMatrix([[1], [1]])
        assert depth_upper_bound(m) == 3
        assert min_depth(m) <= 3

    def test_identity(self):
        m = InclusionMatrix(IntMatrix.identity(4))
        assert depth_upper_bound(m) == 1
        assert min_depth(m) == 1

    def test_bounds_depth_on_random(self):
        rng = random.Random(17)
        for _ in range(100):
            m = random_inclusion(rng, max_dim=6)
            assert min_depth(m) <= depth_upper_bound(m)
