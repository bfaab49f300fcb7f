import random

import pytest

from incdepth import (InclusionMatrix, IntMatrix, MatrixError, branching_matrix,
                      depth_upper_bound, min_depth, minpoly_degree)
from incdepth import charpoly, exactmat

from _oracles import (IntPolynomial, berkowitz_char_poly, char_poly, char_poly_value,
                      poly_at_matrix, poly_gcd, random_inclusion, scale)

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
            assert poly_at_matrix(char_poly(m), m) == scale(IntMatrix.identity(n), 0)


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


def _signed_matrix(rng, n, high, density):
    """Random signed n x n cells, mirrored from the lower triangle."""
    cells = [[rng.randint(-high, high) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)]
    return IntMatrix([[cells[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)])


def _signed_corpus():
    """Signed symmetric matrices of 1 to 16 rows, whose chain products take
    word and byte slots, and which turn modular once their entries are wide."""
    rng = random.Random(20)
    for n in range(1, 17):
        for high, density in 3 * ((9, 1.0), (10**6, 1.0), (10**30, 1.0),
                                  (10**30, 0.25), (3, 0.15)):
            yield _signed_matrix(rng, n, high, density)


def _repeated_spectrum(rng, k, high):
    """Symmetric S + S + T (direct sum) under a random signed permutation.

    Every eigenvalue of the k x k block S occurs at least twice, so the
    characteristic polynomial is not squarefree.
    """
    def block(size):
        cells = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                cells[i][j] = cells[j][i] = rng.randint(-high, high)
        return cells

    s, t = block(k), block(rng.randint(1, 3))
    blocks = [s, s, t]
    n = sum(len(b) for b in blocks)
    cells = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            cells[at + i][at:at + len(b)] = row
        at += len(b)
    order = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return IntMatrix([[signs[i] * signs[j] * cells[order[i]][order[j]]
                       for j in range(n)] for i in range(n)])


def _dense_gram(seed):
    rng = random.Random(seed)
    cells = [[0 if rng.random() < 0.2 else rng.randint(1, 1000) for _ in range(60)]
             for _ in range(40)]
    return InclusionMatrix(cells).gram


def _shuffled_gram(n, seed):
    """Gram of S_(n-1) <= S_n with its rows and columns in a seeded order."""
    cells = branching_matrix(n).matrix.entries
    rng = random.Random(seed)
    rows = rng.sample(range(len(cells)), len(cells))
    cols = rng.sample(range(len(cells[0])), len(cells[0]))
    return InclusionMatrix([[cells[i][j] for j in cols] for i in rows]).gram


def _diagonal(*values):
    return IntMatrix([[x if i == j else 0 for j in range(len(values))]
                      for i, x in enumerate(values)])


def _prs_squarefree_degree(p):
    return p.degree - poly_gcd(p, p.derivative()).degree


class TestModularPath:
    """The power-sum Hankel rank, exact while narrow and mod P = 2^27 - 79
    once wider than 2^127, against the Berkowitz scheme and the Z[x]
    remainder sequence."""

    def test_signed_matrices_match_berkowitz(self):
        for m in _signed_corpus():
            assert minpoly_degree(m) == _prs_squarefree_degree(berkowitz_char_poly(m)), m

    def test_word_modulus_matches_mersenne_modulus(self, monkeypatch):
        corpus = list(_signed_corpus())
        counts = [minpoly_degree(m) for m in corpus]
        monkeypatch.setattr(charpoly, "P", 2**127 - 1)
        assert [minpoly_degree(m) for m in corpus] == counts

    def test_word_modulus_matches_exact_count(self):
        gram = _dense_gram(0).entries
        exact = charpoly._hankel_rank(gram, None)
        assert charpoly._hankel_rank(gram, charpoly.P) == exact == (40, None)

    def test_products_after_the_switch_take_word_slots(self, monkeypatch):
        # entries up to 10^6 make G wider than P, so the slots stay within
        # 64 bits only if G is reduced at the switch along with the chain
        rng = random.Random(22)
        gram = InclusionMatrix([[rng.randint(1, 10**6) for _ in range(60)]
                                for _ in range(40)]).gram
        assert max(map(max, gram.entries)) > charpoly.P
        calls = []  # (slot bound in bits, widest entry of the product)
        product = exactmat._product

        def spy(a, b):
            rows = product(a, b)
            calls.append((len(b).bit_length() + max(map(max, a)).bit_length()
                          + max(map(max, b)).bit_length(), max(map(max, rows))))
            return rows

        monkeypatch.setattr(exactmat, "_product", spy)
        assert minpoly_degree(gram) == 40
        switch = next(i for i, (_, top) in enumerate(calls) if top >= charpoly.SWITCH)
        after = [bits for bits, _ in calls[switch + 1:]]
        assert len(after) > 30 and max(after) <= 64, calls

    def test_repeated_spectrum_matches_oracles(self):
        rng = random.Random(21)
        for k in range(1, 5):
            for high in (1, 9, 10**6, 10**30):
                m = _repeated_spectrum(rng, k, high)
                p = berkowitz_char_poly(m)
                assert minpoly_degree(m) == _prs_squarefree_degree(p) < p.degree, m

    @pytest.mark.parametrize("source", [*range(4, 14), "dense gram 0", "dense gram 1"])
    def test_grams_match_oracles(self, source):
        # S_(n-1) <= S_n for n = 4..13, and two seeded dense 40x60 matrices
        if isinstance(source, int):
            gram = branching_matrix(source).gram
        else:
            gram = _dense_gram(source)
        want = _prs_squarefree_degree(berkowitz_char_poly(gram))
        assert minpoly_degree(gram) == want
        if isinstance(source, int):
            # shuffling the rows and columns of M conjugates M M^t by a
            # permutation, which keeps its characteristic polynomial
            assert minpoly_degree(_shuffled_gram(source, source)) == want

    def test_no_size_ceiling(self):
        assert minpoly_degree(IntMatrix([[1 << 216091]])) == 1
        assert minpoly_degree(_diagonal(2**200, 2**200, 1)) == 2
        assert minpoly_degree(_diagonal(2**200, 2**200 + 1)) == 2

    def test_exact_rerun_only_after_a_zero_pivot_mod_p(self, monkeypatch):
        moduli = []
        hankel_rank = charpoly._hankel_rank

        def spy(g, modulus, *rest):
            moduli.append(modulus)
            return hankel_rank(g, modulus, *rest)

        monkeypatch.setattr(charpoly, "_hankel_rank", spy)
        # two distinct eigenvalues over Z and mod P (2^200 = 116857000 mod
        # P), so the count ends on det H_3 = 0, which proves nothing mod P
        assert minpoly_degree(_diagonal(2**200, 2**200, 1)) == 2
        assert moduli == [charpoly.P, None]
        # omega is a cube root of unity mod P; x = omega + 1 mod P is wider
        # than 2^127, so the chain turns modular at G, and diag(x, 1, 0) has
        # the pivot det H_2 = 2(x^2 - x + 1) = 2(omega^2 + omega + 1) mod P,
        # a nonzero multiple of P
        omega = pow(5, (charpoly.P - 1) // 3, charpoly.P)
        assert omega != 1 and (omega * omega + omega + 1) % charpoly.P == 0
        x = omega + 1 + (charpoly.P << 101)
        assert x >= charpoly.SWITCH and (x * x - x + 1) % charpoly.P == 0
        moduli.clear()
        assert minpoly_degree(_diagonal(x, 1, 0)) == 3
        assert moduli == [charpoly.P, None]
        for seed in (0, 1):
            moduli.clear()
            assert minpoly_degree(_dense_gram(seed)) == 40
            assert moduli == [charpoly.P]


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
