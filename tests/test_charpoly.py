import random
from operator import add, mul

import pytest

from incdepth import (InclusionMatrix, IntMatrix, MatrixError, branching_matrix,
                      depth_report, min_depth, render_matrix, tower_matrix)
from incdepth import charpoly, exactmat
from incdepth.cli import main
from incdepth.exactmat import slots, widen

from _oracles import (IntPolynomial, berkowitz_char_poly, chain_widths, char_poly,
                      char_poly_value, count_partitions, dense_gram, dense_rows,
                      depth_upper_bound, even_witness_pair, frobenius, has_depth, identity,
                      krylov_dim_reference, minpoly_degree, naive_multiply, naive_powers,
                      near_million_gram, pentagonal_partition_counts, poly_at_matrix,
                      poly_gcd, random_inclusion, repeated_rows_gram, repeated_spectrum,
                      scale, symmetric_corpus, symmetric_matrix, tower_spectrum,
                      upper_cells)

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
        assert char_poly(identity(2)) == IntPolynomial([1, -2, 1])

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
            assert poly_at_matrix(char_poly(m), m) == scale(identity(n), 0)


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
        assert minpoly_degree(identity(3)) == 1

    def test_s3s4_gram(self):
        assert minpoly_degree(IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])) == 3

    def test_diagonal_counts_distinct_eigenvalues(self):
        assert minpoly_degree(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == 2
        assert minpoly_degree(IntMatrix([[3, 0], [0, 5]])) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(MatrixError, match="symmetric"):
            minpoly_degree(IntMatrix([[1, 2], [0, 1]]))

    def test_rejects_negative(self):
        # the chain's packed products would borrow across slots
        with pytest.raises(MatrixError, match="nonnegative"):
            minpoly_degree(IntMatrix([[0, -1], [-1, 0]]))


def _krylov_dim(m: IntMatrix) -> int:
    return exactmat.krylov_dim(m.entries, charpoly.P)


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
    """The exact power-sum Hankel rank, and the Krylov certificate mod
    P = 2^26 - 5 that may end it right after the witness pair, against the
    Berkowitz scheme and the Z[x] remainder sequence."""

    def test_symmetric_matrices_match_berkowitz(self):
        for m in symmetric_corpus():
            want = _prs_squarefree_degree(berkowitz_char_poly(m))
            assert minpoly_degree(m) == want and _krylov_dim(m) <= want, m

    @pytest.mark.parametrize("r", [512, 2047])
    def test_certificate_packs_words(self, monkeypatch, r):
        # 2 bits(P) + bits(r) + 1 <= 64 up to r = 2047, so the certificate
        # packs G mod P, its vectors and its echelon rows in 8-byte words.
        # G = (P - 1) J is -J mod P, whose Krylov space from v = (1, ..., r)
        # is spanned by v and the all-ones vector
        widths = []

        def slots_spy(bits, count):
            found = slots(bits, count)
            widths.append(found[0])
            return found
        monkeypatch.setattr(exactmat, "slots", slots_spy)
        assert exactmat.krylov_dim([[charpoly.P - 1] * r] * r, charpoly.P) == 2
        assert widths == [8]

    def test_word_modulus_matches_mersenne_modulus(self, monkeypatch):
        # the certificate under a second prime gives the same counts
        corpus = list(symmetric_corpus())
        counts = [minpoly_degree(m) for m in corpus]
        monkeypatch.setattr(charpoly, "P", 2**127 - 1)
        assert [minpoly_degree(m) for m in corpus] == counts

    def test_repeated_spectrum_matches_oracles(self):
        rng = random.Random(21)
        for k in range(1, 5):
            for high in (1, 9, 10**6, 10**30):
                m = repeated_spectrum(rng, k, high)
                p = berkowitz_char_poly(m)
                want = _prs_squarefree_degree(p)
                assert minpoly_degree(m) == want < p.degree, m
                assert _krylov_dim(m) <= want, m

    @pytest.mark.parametrize("source", [*range(4, 14), "dense gram 0", "dense gram 1"])
    def test_grams_match_oracles(self, source):
        # S_(n-1) <= S_n for n = 4..13, and two seeded dense 40x60 matrices
        if isinstance(source, int):
            gram = branching_matrix(source).gram
        else:
            gram = dense_gram(source)
        want = _prs_squarefree_degree(berkowitz_char_poly(gram))
        assert minpoly_degree(gram) == want
        # the certificate is a lower bound, and proves k = r on dense grams
        assert _krylov_dim(gram) <= want
        if isinstance(source, int):
            # shuffling the rows and columns of M conjugates M M^t by a
            # permutation, which keeps its characteristic polynomial
            assert minpoly_degree(_shuffled_gram(source, source)) == want
        else:
            assert _krylov_dim(gram) == want == gram.rows

    def test_no_size_ceiling(self):
        assert minpoly_degree(IntMatrix([[1 << 216091]])) == 1
        assert minpoly_degree(_diagonal(2**200, 2**200, 1)) == 2
        assert minpoly_degree(_diagonal(2**200, 2**200 + 1)) == 2

    def test_minors_that_vanish_mod_p(self):
        # P = 3 mod 8 makes -2 a square mod P, whose root is a power of it
        # as P = 3 mod 4, so x = (1 + 2 sqrt(-2)) / 3 mod P is a root of
        # 3x^2 - 2x + 3; lifted past 2^127, diag(x, 1, 0, 0) has det H_2 =
        # 4(x^2 + 1) - (x + 1)^2 = 3x^2 - 2x + 3, a nonzero multiple of P,
        # so a Hankel count mod P would stop at 1
        p = charpoly.P
        root = pow(p - 2, (p + 1) // 4, p)
        assert p % 8 == 3 and root * root % p == p - 2
        x = (1 + 2 * root) * pow(3, -1, p) % p + (p << 102)
        assert x >= 2**127 and (3 * x * x - 2 * x + 3) % p == 0
        assert minpoly_degree(_diagonal(x, 1, 0, 0)) == 3

    @staticmethod
    def spy(monkeypatch, count, *args):
        """(count(*args), chain products taken, Krylov dimensions found, and
        for each dimension the number of products taken before it). A chain
        product is one power G^n, n >= 2, pulled from the count's
        exactmat.symmetric_powers, which forms each such power by one
        product (TestSymmetricPowers in test_exactmat) and none ahead."""
        products, dims, before = [], [], []
        symmetric_powers, krylov_dim = charpoly.symmetric_powers, charpoly.krylov_dim

        def powers_spy(*args):
            for n, power in enumerate(symmetric_powers(*args), 1):
                if n > 1:
                    products.append(power)
                yield power

        def krylov_spy(g, p):
            before.append(len(products))
            dims.append(krylov_dim(g, p))
            return dims[-1]

        monkeypatch.setattr(charpoly, "symmetric_powers", powers_spy)
        monkeypatch.setattr(charpoly, "krylov_dim", krylov_spy)
        return count(*args), products, dims, before

    def test_certificate_ends_the_count_at_step_one(self, monkeypatch):
        # with the witness pair I, G asked for, the certificate comes at the
        # end of step 1, before any product, and proves k = r on both dense grams
        grams = [dense_gram(seed) for seed in (0, 1)]

        def count():
            return [minpoly_degree(gram) for gram in grams]
        assert self.spy(monkeypatch, count) == ([40, 40], [], [40, 40], [0, 0])

    def test_certificate_right_after_the_witness_pair(self, monkeypatch):
        # depth 3 takes G and G^2 = G G, one product per report, and then
        # the certificate; q is also the dominance oracle's witness
        dense = [InclusionMatrix(dense_rows(random.Random(seed), 40)) for seed in (0, 1)]

        def reports():
            return [charpoly.bound_and_witness(m, 3) for m in dense]
        results, products, dims, before = self.spy(monkeypatch, reports)
        assert results == [(79, 530624843), (79, 581986561)]
        assert [q for _, q in results] == [has_depth(m, 3) for m in dense]
        assert (len(products), dims, before) == (2, [40, 40], [1, 2])

    def test_certificate_miss_counts_on_exactly(self, monkeypatch):
        # v = (1, 2) is an eigenvector of [[0, 2], [2, 3]] for 4, and -1 is
        # its other eigenvalue. With r = 2 no Hankel step is left after
        # step 1 for the certificate to save, so it is not tried.
        two = IntMatrix([[0, 2], [2, 3]])
        assert self.spy(monkeypatch, minpoly_degree, two) == (2, [], [], [])
        # with a third eigenvalue 1 for (0, 0, 3), v = (1, 2, 3) spans a
        # dimension of 2 while k = 3, so the chain goes on to G^2
        three = IntMatrix([[0, 2, 0], [2, 3, 0], [0, 0, 1]])
        k, products, dims, before = self.spy(monkeypatch, minpoly_degree, three)
        assert (k, len(products), dims, before) == (3, 1, [2], [0])

    @pytest.mark.parametrize("source", ["repeated rows", "S_10 <= S_16"])
    def test_one_chain_per_count(self, monkeypatch, source):
        # the certificate misses (dimension < r) and the chain goes on
        # exactly through G^k, with no second pass
        if source == "repeated rows":
            gram, want = repeated_rows_gram(), (40, 21, 21)
        else:
            gram, want = tower_matrix(10, 16).gram, (42, 10, 10)
        k, products, dims, before = self.spy(monkeypatch, minpoly_degree, gram)
        assert (gram.rows, k, *dims) == want
        assert len(products) == k - 1 <= gram.rows - 1
        # the one certificate came at step exact = 1, before any product
        assert before == [0]

    def test_dimension_above_k_raises(self, monkeypatch, tmp_path, capsys):
        # on S_12 <= S_18 the certificate misses (k = 12 < r = 77) and the
        # chain counts on to k; a dimension of k + 1 means a bug, which the
        # count raises, and the CLI reports as an internal error
        m = tower_matrix(12, 18)
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 13)
        with pytest.raises(AssertionError, match="Krylov dimension 13 exceeds k = 12"):
            charpoly.bound_and_witness(m, min_depth(m))
        path = tmp_path / "tower.mat"
        path.write_text(render_matrix(m), encoding="utf-8")
        assert main(["compute", "--matrix", str(path)]) == 3
        assert capsys.readouterr().err == (
            "internal error: Krylov dimension 13 exceeds k = 12\n")


def _spy_chain(monkeypatch):
    """Lists that fill as charpoly._hankel_rank runs: the (a, b, sum) of each
    Frobenius product, a and b as (diagonal, cells) lists, the sums s_m, ...,
    s_2m each eliminated Hankel row reads, the packed rows each chain product
    returns, the power n of each G^n, n >= 2, whose triangle is read, and
    the power n of each G^n whose diagonal alone is read. A chain product
    sums by the plans of the r >= 2 rows of G; the Krylov certificate's
    matrix-vector steps, which sum by the plan of one row, the vector, are
    not recorded."""
    pairs, sums, products, triangles, reads = [], [], [], [], []
    frobenius_sum, eliminate, planned_sums, triangle, diagonal = (
        exactmat._frobenius, charpoly._eliminate, exactmat.planned_sums, exactmat.triangle,
        exactmat.diagonal)

    def frobenius_spy(a, b):
        a, b = [(list(diag), list(cells)) for diag, cells in (a, b)]
        pairs.append((a, b, frobenius_sum(a, b)))
        return pairs[-1][2]

    def eliminate_spy(v, pivots, rows):
        sums.append(list(v))
        return eliminate(v, pivots, rows)

    def planned_spy(plans, packed):
        result = planned_sums(plans, packed)
        if len(plans) > 1:
            products.append(result)
        return result

    def triangle_spy(packed, width):
        triangles.append(len(products) + 1)
        return triangle(packed, width)

    def diagonal_spy(packed, width):
        reads.append(len(products) + 1)
        return diagonal(packed, width)

    for module, name, spy in ((exactmat, "_frobenius", frobenius_spy),
                              (charpoly, "_eliminate", eliminate_spy),
                              (exactmat, "planned_sums", planned_spy),
                              (exactmat, "triangle", triangle_spy),
                              (exactmat, "diagonal", diagonal_spy)):
        monkeypatch.setattr(module, name, spy)
    return pairs, sums, products, triangles, reads


def _read_slots(packed, width, count):
    """The count slots of width bytes of a packed row, little-endian on every host."""
    data = packed.to_bytes(width * count, "little")
    return [int.from_bytes(data[j:j + width], "little") for j in range(0, width * count, width)]


def _top(exact, r):
    """t = min(max(exact, 1), r - 1), the last power sum a chain of r rows
    asked for G^exact reads as a trace."""
    return min(max(exact, 1), r - 1)


def _check_sums(gram, exact, last, pairs, sums, want):
    """The spied sums of a chain asked for G^exact whose Hankel steps ran
    through step last, against want = naive_powers(gram, top), top >= last."""
    r = len(gram)
    t = _top(exact, r)
    # no Frobenius product for s_1, ..., s_t; at step t one for s_(t+1) over
    # the nonzero cells of G's triangle, and at each step n one full sum for
    # each of s_(2n-1), s_2n past s_(t+1), from G^(j // 2) and G^((j + 1) // 2)
    order = []
    for n in range(1, last + 1):
        order += [t + 1] * (n == t) + [j for j in (2 * n - 1, 2 * n) if j > t + 1]
    assert len(pairs) == len(order)
    mask = upper_cells(gram)
    for j, (a, b, got) in zip(order, pairs):
        low, high = want[j // 2], want[(j + 1) // 2]
        if j == t + 1:
            low, high = want[t], gram
            cells = ([x for x, y in zip(upper_cells(low), mask) if y], [x for x in mask if x])
        else:
            cells = list(upper_cells(low)), list(upper_cells(high))
        assert a == ([low[i][i] for i in range(r)], cells[0]), j
        assert b == ([high[i][i] for i in range(r)], cells[1]), j
        assert got == frobenius(low, high), j
    # Hankel rows 1, ..., last, each reading s_m, ..., s_2m; s_j = tr G^j is
    # also <G^(j // 2), G^((j + 1) // 2)> over every cell, as G is symmetric
    traces = [frobenius(want[j // 2], want[(j + 1) // 2]) for j in range(2 * last + 1)]
    assert [len(v) - 1 for v in sums] == list(range(1, last + 1))
    for v in sums:
        m = len(v) - 1
        assert v == traces[m:2 * m + 1], m


def _same_pair(witness, want, exact):
    """Whether witness is the triangles of the pair G^(exact-1), G^exact."""
    return witness == [upper_cells(p) for p in want[exact - 1:exact + 1]]


class TestFrobeniusSums:
    """Up to t = min(max(exact, 1), r - 1) the chain reads each power sum off
    the diagonal of a power it forms; exactmat._frobenius takes s_(t+1) from
    G^t over the nonzero cells of G's triangle, and each sum above it from
    the triangles of two powers, which is exact on symmetric pairs. With
    the Krylov certificate made to miss, the chain runs its Hankel steps
    through min(k, r - 1): every sum the elimination reads must be tr G^j,
    every Frobenius product the plain one (_oracles.frobenius), and every
    power that a full Frobenius product or the witness pair reads, G^n with
    2n + 1 >= t + 2, that is n >= t // 2 + 1, is read as its triangle; the
    chain reads only the diagonal slots of the others."""

    @pytest.mark.parametrize("source", [*(f"S_{n}" for n in range(4, 15)),
                                        "dense 0", "dense 1"])
    def test_every_chain_pair(self, monkeypatch, source):
        if source.startswith("S_"):
            n = int(source[2:])
            gram, k = branching_matrix(n).gram.entries, n - 1  # d = 2n - 3 = 2k - 1
        else:
            rng = random.Random(int(source.split()[1]))
            gram, k = InclusionMatrix(dense_rows(rng, 12)).gram.entries, 12
        r, last = len(gram), min(k, len(gram) - 1)
        want = naive_powers(gram, k)
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 0)
        spied = _spy_chain(monkeypatch)
        pairs, sums, products, triangles, reads = spied
        diagonal_steps = 0
        for exact in sorted({0, 1, k // 2, k}):
            for seen in spied:
                seen.clear()
            found, witness = charpoly._hankel_rank(gram, exact, r)
            assert found == k
            _check_sums(gram, exact, last, pairs, sums, want)
            # products G^2, ..., G^max(last, exact): those below G^(t // 2 + 1)
            # read on their diagonals alone, the rest as their triangles
            formed = range(2, max(last, exact) + 1)
            whole = _top(exact, r) // 2 + 1
            assert len(products) == len(formed)
            assert reads == [n for n in formed if n < whole]
            assert triangles == [n for n in formed if n >= whole]
            assert _same_pair(witness, want, exact) if exact else witness is None
            diagonal_steps += len(reads)
        # asked for G^k, a chain with k >= 4 reads G^2 on its diagonal alone
        assert (diagonal_steps > 0) == (k >= 4)


    def test_s13_reads_the_triangles_of_g7_to_g12(self, monkeypatch):
        # S_12 <= S_13 asks for a = t = 12: s_13 = <G^12, G> is taken over
        # the 330 nonzero cells of G's 3,003-cell triangle, so no full sum
        # reads G^6, and the chain reads the triangles of G^7, ..., G^12
        # alone and the diagonals of G^2, ..., G^6
        m = branching_matrix(13)
        g = m.gram.entries
        mask = upper_cells(g)
        assert (len(mask), len(mask) - mask.count(0)) == (3003, 330)
        q = has_depth(m, 23)
        pairs, _, products, triangles, reads = _spy_chain(monkeypatch)
        assert charpoly.bound_and_witness(m, 23) == (23, q)
        assert (len(products), triangles, reads) == (11, list(range(7, 13)), list(range(2, 7)))
        # s_14 = <G^7, G^7> at step 7, s_15, ..., s_22 two a step, then at
        # step 12 s_13 over G's nonzero cells, s_23 and s_24
        assert [len(b[1]) for _, b, _ in pairs] == [3003] * 9 + [330] + [3003] * 2


class TestCarriedChain:
    """Each chain step's packed sums serve the next step as its packed rows,
    widened by a byte copy when the slots grow. Every product the chain
    takes must read back, at its step's slot width, as the plain power
    (_oracles.naive_powers), its power sums must be right, and the
    triangles of the witness pair are returned."""

    @staticmethod
    def source(name):
        """(rows of G, the exact power asked for, the step at which the
        certificate ends the count or None, and the slot width of each
        product G^n = G G^(n-1) from n = 2 on, or None where not pinned)."""
        if name == "near 10^6":
            return near_million_gram(), 16, None, None
        if name.startswith("dense"):
            # the certificate proves k = r at step 12, after G^12
            return dense_gram(int(name.split()[1])).entries, 12, 12, None
        if name == "S_16 <= S_17":
            m = branching_matrix(17)
        elif name == "S_12 <= S_18":
            m = tower_matrix(12, 18)
        else:
            m = branching_matrix(int(name[2:]))
        # the report's exact power: a = (d + 1) // 2
        return m.gram.entries, (min_depth(m) + 1) // 2, None, {
            # words through G^14; G^15 and G^16 need 9-byte slots
            "S_16 <= S_17": [8] * 13 + [9] * 2,
            # a wider slot at every step, so every step widens its rows
            "S_12 <= S_18": [8, 10, 13, 15, 18, 21, 24, 27, 30, 33, 36],
        }.get(name)

    @pytest.mark.parametrize("name", [*(f"S_{n}" for n in range(4, 15)), "dense 0",
                                      "dense 1", "S_16 <= S_17", "S_12 <= S_18",
                                      "near 10^6"])
    def test_every_power_matches_the_oracle(self, monkeypatch, name):
        gram, exact, last, widths = self.source(name)
        pairs, sums, products, _, reads = _spy_chain(monkeypatch)
        k, witness = charpoly._hankel_rank(gram, exact, len(gram))
        r = len(gram)
        last = last or min(k, r - 1)
        want = naive_powers(gram, max(last, exact))
        assert len(products) == max(last, exact) - 1
        # each product's slots hold r max(G) max(G^(n-1)), or a bound on
        # max G^(n-1) where only its diagonal was read, and never narrow
        whole = _top(exact, r) // 2 + 1
        assert reads == list(range(2, min(whole, len(products) + 2)))
        steps = chain_widths(gram, want[:len(products) + 2], whole)
        for n, (width, packed) in enumerate(zip(steps, products), 2):
            assert [_read_slots(x, width, r) for x in packed] == want[n], n
        if widths is not None:
            assert steps == widths  # the chain formed G^2, ..., G^k
        _check_sums(gram, exact, last, pairs, sums, want)
        if 1 <= exact <= k:
            assert _same_pair(witness, want, exact)
        else:
            assert witness is None


def _bipartite(rng, half, low, high):
    """[[0, B], [B^t, 0]] for a seeded half x half B with entries in
    low..high: a nonnegative symmetric G with zero diagonal, not a Gram
    matrix. Every closed walk in its bipartite graph is even, so each odd
    power has a zero diagonal and its largest entries off it; its
    eigenvalues are +-sigma for the singular values sigma of B."""
    b = [[rng.randint(low, high) for _ in range(half)] for _ in range(half)]
    return [[0] * half + row for row in b] + [list(col) + [0] * half for col in zip(*b)]


class TestDiagonalSteps:
    """Below the first power a Frobenius sum or the witness pair reads, the
    chain reads only the diagonal slots of each power, and sizes the next
    product's slots from a bound that must hold for every nonnegative
    symmetric G, not only for a Gram matrix, whose powers all have their
    largest entries on the diagonal. On a bipartite G the odd powers have a
    zero diagonal, so slots sized from the diagonal alone would truncate
    the next product; k, every eliminated sum and the witness pair must be
    right."""

    def test_zero_diagonal_odd_powers(self, monkeypatch):
        g = _bipartite(random.Random(12), 6, 10**6 - 1000, 10**6)
        r = len(g)
        k = _prs_squarefree_degree(berkowitz_char_poly(IntMatrix(g)))
        assert k == r == 12
        want = naive_powers(g, k)
        # G^3 has a zero diagonal, and G^4 = G G^3 has entries past the
        # words that a width from that diagonal alone would give
        head = r.bit_length() + max(map(max, g)).bit_length()
        assert not any(want[3][i][i] for i in range(r)) and head <= 64
        assert max(map(max, want[4])) >= 1 << 64
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 0)
        diagonal = exactmat.diagonal
        pairs, sums, products, triangles, reads = spied = _spy_chain(monkeypatch)
        for exact in (7, 9, 12):
            for seen in spied:
                seen.clear()
            found, witness = charpoly._hankel_rank(g, exact, r)
            assert found == k, exact
            # G^2, G^3 and, for exact >= 9, G^4 are read on their diagonals
            whole = _top(exact, r) // 2 + 1
            assert reads == list(range(2, whole)) and 3 in reads, exact
            _check_sums(g, exact, k - 1, pairs, sums, want)
            assert _same_pair(witness, want, exact), exact
            for n, packed in enumerate(products, 2):
                assert diagonal(packed, chain_widths(g, want, whole)[n - 2]) == [
                    want[n][i][i] for i in range(r)], (exact, n)


class TestExactPower:
    """k does not depend on the power the chain is asked for, and the
    witness pair is the triangles of the plain one exactly when
    1 <= exact <= k."""

    def test_k_and_witness_for_every_exact(self):
        block = IntMatrix([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])
        for m in (*symmetric_corpus(), block, branching_matrix(3).gram):
            g, r = m.entries, m.rows
            k = minpoly_degree(m)
            want = naive_powers(g, k)
            for exact in range(r + 3):
                found, witness = charpoly._hankel_rank(g, exact, r)
                assert found == k, (m, exact)
                if 1 <= exact <= k:
                    assert _same_pair(witness, want, exact), (m, exact)
                else:
                    assert witness is None, (m, exact)

    def test_pinned_cases(self):
        # eigenvalues 1 and 3 twice each: a cap of the traces at exact = r
        # instead of r - 1 left s_r unset, and a prototype counted k = 4
        block = IntMatrix([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])
        assert charpoly._hankel_rank(block.entries, 4, 4) == (2, None)
        # S_2 <= S_3: d = 3, so a = k = r = 2, and the chain forms G^2 = G G
        # after its one Hankel step
        m = branching_matrix(3)
        assert (m.rows, minpoly_degree(m.gram), min_depth(m)) == (2, 2, 3)
        assert charpoly.bound_and_witness(m, 3) == (3, has_depth(m, 3))


def _tall_inclusions():
    """Two seeded inclusion matrices, entries 0..3, of each shape with
    3 <= rows <= 12 and cols <= rows - 2: the rank of M M^t is at most
    cols, so its ceiling cols + 1 is below r."""
    rng = random.Random(26)
    for rows in range(3, 13):
        for cols in range(1, rows - 1):
            for _ in range(2):
                yield random_inclusion(rng, shape=(rows, cols))


def _tower_transposes():
    """M^t for every tower M of S_k <= S_n with n <= 10."""
    for n in range(2, 11):
        for k in range(1, n):
            yield tower_matrix(k, n).transposed()


class TestEvenWitness:
    """For even d = 2a the count hands over M^t G^(a-1) and M^t G^a, sums of
    the chain's packed rows by the plan of M^t, widened to the slots of
    G^(a+1). Each must be the transpose of the whole plain power times M
    (_oracles.even_witness_pair), and q the dominance oracle's witness: on
    every transposed tower S_k <= S_n with n <= 12, on the even-d matrices
    of a seeded pool of small matrices, and on 100 seeded tall matrices with
    entries up to 10^6, at every a up to k."""

    @staticmethod
    def pair(m, a):
        """(k, the even witness pair at a, as lists, or None)."""
        left = list(zip(*m.matrix.entries))
        k, pair = charpoly._hankel_rank(m.gram.entries, a, m.cols + 1, left)
        return k, None if pair is None else [list(cells) for cells in pair]

    def check(self, m):
        """Whether d is even; if so, its pair and q are checked."""
        d = min_depth(m)
        if d % 2:
            return False
        k, pair = self.pair(m, d // 2)
        assert pair == even_witness_pair(m, d // 2), m
        assert charpoly.bound_and_witness(m, d) == (2 * k - 1, has_depth(m, d)), m
        return True

    @pytest.mark.parametrize("n", range(2, 13))
    def test_transposed_towers(self, n):
        # S_1 <= S_n transposed is a column of ones, depth 2 with q = n
        even = [self.check(tower_matrix(k, n).transposed()) for k in range(1, n)]
        assert even[0] and sum(even) >= (n - 1) // 2, even

    def test_small_pool(self):
        rng = random.Random(1000)
        even = sum(self.check(random_inclusion(rng, max_dim=8)) for _ in range(1000))
        assert even > 100

    def test_tall_matrices(self):
        rng = random.Random(10**6)
        for _ in range(100):
            cols = rng.randint(1, 6)
            rows = rng.randint(cols + 2, 12)
            m = random_inclusion(rng, max_entry=10**6, shape=(rows, cols))
            k = _prs_squarefree_degree(berkowitz_char_poly(m.gram))
            for a in range(1, k + 1):
                assert self.pair(m, a) == (k, even_witness_pair(m, a)), (m, a)
            self.check(m)

    def test_report_multiplies_only_for_the_gram(self, monkeypatch):
        # the transpose of S_10 <= S_16, 231x42 with d = 2a even, forms its
        # witness pair from the chain with no product past M M^t
        m = tower_matrix(10, 16).transposed()
        calls, product = [], exactmat.product

        def spy(a, b):
            calls.append((len(a), len(b[0])))
            return product(a, b)
        monkeypatch.setattr(exactmat, "product", spy)
        rep = depth_report(m)
        assert rep.depth % 2 == 0 and calls == [(231, 231)]
        assert rep.q_witness == has_depth(m, rep.depth)


class TestRankCeiling:
    """k <= c = min(r, cols + 1) for G = M M^t, as rank G = rank M <= cols
    and 0 adds at most one more distinct eigenvalue. bound_and_witness
    passes cols + 1 as the count's ceiling, so on a tall M (cols + 1 < r)
    the count ends by step max(a, cols), or at the certificate when it
    proves k = c. Its k must be the Berkowitz and Z[x] remainder degree,
    which does not call the count, and the count without the ceiling must
    give the same (k, powers)."""

    @pytest.mark.parametrize("source", ["tall", "tower transposes",
                                        "dense 1 transposed", "dense 2 transposed"])
    def test_k_matches_berkowitz(self, source):
        if source == "tall":
            matrices = list(_tall_inclusions())
        elif source == "tower transposes":
            matrices = list(_tower_transposes())
        else:  # 60x40, rank 40, so k = c = 41
            seed = int(source.split()[1])
            matrices = [InclusionMatrix(dense_rows(random.Random(seed), 40)).transposed()]
        at_ceiling = 0
        for m in matrices:
            k = _prs_squarefree_degree(berkowitz_char_poly(m.gram))
            d = min_depth(m)
            assert charpoly.bound_and_witness(m, d) == (2 * k - 1, has_depth(m, d)), m
            assert k <= min(m.rows, m.cols + 1), m
            at_ceiling += k == m.cols + 1 < m.rows
        # every seeded tall matrix reaches the ceiling. M^t M has the j
        # distinct eigenvalues of M M^t and 0 on the transpose of
        # S_j <= S_n (_oracles.tower_spectrum), which reaches it when
        # j = p(j), that is j <= 3, and p(n) > p(j) + 1
        assert at_ceiling == {"tall": 110, "tower transposes": 22}.get(source, 1)

    @pytest.mark.parametrize("source", ["tall", "tower transposes"])
    def test_same_count_without_the_ceiling(self, source):
        matrices = _tall_inclusions() if source == "tall" else _tower_transposes()
        for m in matrices:
            g = m.gram.entries
            k = charpoly._hankel_rank(g, 1, m.rows)[0]
            for exact in range(k + 2):
                assert (charpoly._hankel_rank(g, exact, m.cols + 1)
                        == charpoly._hankel_rank(g, exact, m.rows)), (m, exact)

    def test_generic_tall_matrix_ends_at_the_certificate(self, monkeypatch):
        # a positive 8x3 matrix has d = 2, so a = 1, and M M^t has three
        # distinct nonzero eigenvalues and 0: k = c = cols + 1 = 4 < r = 8
        rng = random.Random(83)
        m = InclusionMatrix([[rng.randint(1, 9) for _ in range(3)] for _ in range(8)])
        assert min_depth(m) == 2
        assert _prs_squarefree_degree(berkowitz_char_poly(m.gram)) == 4
        want = (7, has_depth(m, 2))
        spy = TestModularPath.spy
        # the certificate proves k = c at step a = 1, before any product
        assert spy(monkeypatch, charpoly.bound_and_witness, m, 2) == (want, [], [4], [0])
        # made to miss, the count forms G^2 and G^3 and stops at step
        # cols = c - 1; without the ceiling it goes on to G^4
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 0)
        result, products, dims, _ = spy(monkeypatch, charpoly.bound_and_witness, m, 2)
        assert (result, len(products), dims) == (want, 2, [0])
        (k, _), products, _, _ = spy(monkeypatch, charpoly._hankel_rank, m.gram.entries, 1, 8)
        assert (k, len(products)) == (4, 3)


class TestWiden:
    """exactmat.widen, which the chain uses when its slots grow, copies every
    slot into a wider one byte by byte; it must give the rows packed at the
    wider width directly."""

    @pytest.mark.parametrize("old, new", [(8, 9), (8, 13), (10, 15)])
    def test_matches_packing_at_the_new_width(self, old, new):
        rng = random.Random(old * new)
        top = (1 << 8 * old) - 1
        for count in (1, 3, 17):
            rows = [[top] * count, [rng.randint(0, top) for _ in range(count)],
                    [0] * count, [top if j % 2 else 1 for j in range(count)]]
            narrow, wide = slots(8 * old, count), slots(8 * new, count)
            assert (narrow[0], wide[0]) == (old, new)
            packed = list(map(narrow[1], rows))
            assert widen(packed, old, new, count) == list(map(wide[1], rows))


class TestWideEntries:
    """The certificate mod the 61-bit prime 2^61 - 1, and the chain on
    entries up to 2^72 or multiples of 2^70, which need slots wider than a
    word from G^1 on."""

    @staticmethod
    def few_eigenvalues(factor):
        """factor (J + 2I), whose eigenvalues are 2 factor and (r + 2) factor."""
        for r in range(1, 9):
            yield IntMatrix([[factor * (3 if i == j else 1) for j in range(r)]
                             for i in range(r)])

    def test_krylov_dim(self):
        p = (1 << 61) - 1
        rng = random.Random(61)
        for m in (*symmetric_corpus(), *self.few_eigenvalues(1),
                  *(repeated_spectrum(rng, k, 10**6) for k in range(1, 5))):
            assert exactmat.krylov_dim(m.entries, p) == krylov_dim_reference(m.entries, p), m

    def test_chain_k_and_witness(self, monkeypatch):
        rng = random.Random(70)
        cases = [*(symmetric_matrix(rng, n, 1 << 72, 1.0) for n in range(1, 8)),
                 *self.few_eigenvalues(1 << 70),
                 *(scale(repeated_spectrum(rng, k, 9), 1 << 70) for k in (1, 2, 3))]
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 0)
        for m in cases:
            g = m.entries
            k = _prs_squarefree_degree(berkowitz_char_poly(m))
            want = naive_powers(g, k)
            for exact in range(k + 1):
                found, witness = charpoly._hankel_rank(g, exact, len(g))
                assert found == k, (m, exact)
                assert _same_pair(witness, want, exact) if exact else witness is None, (m, exact)

    def test_diagonal_steps_and_widening(self, monkeypatch):
        # a bipartite G, whose odd powers have a zero diagonal, and a Gram
        # matrix, each with entries near 2^70 and asked for G^k = G^r: the
        # chain reads the diagonal slots of G^2, ..., G^(r/2 - 1) alone,
        # and widens its rows before every product
        rng = random.Random(72)
        cases = [_bipartite(rng, 5, 1 << 70, (1 << 70) + (1 << 20)),
                 scale(IntMatrix(near_million_gram()), 1 << 50).entries]
        monkeypatch.setattr(charpoly, "krylov_dim", lambda g, p: 0)
        widened, widen = [], exactmat.widen

        def widen_spy(packed, old, new, count):
            widened.append((old, new))
            return widen(packed, old, new, count)
        monkeypatch.setattr(exactmat, "widen", widen_spy)
        pairs, sums, products, triangles, reads = _spy_chain(monkeypatch)
        for g in cases:
            for seen in (widened, pairs, sums, products, triangles, reads):
                seen.clear()
            r = len(g)
            k = _prs_squarefree_degree(berkowitz_char_poly(IntMatrix(g)))
            assert k == r
            want = naive_powers(g, k)
            found, witness = charpoly._hankel_rank(g, k, r)
            assert found == k and _same_pair(witness, want, k)
            _check_sums(g, k, k - 1, pairs, sums, want)
            assert reads == list(range(2, r // 2))
            assert len(widened) == len(products) - 1 == k - 2


def _times(rows, v, p):
    """A v mod p for the matrix A given by its rows."""
    return [sum(map(mul, row, v)) % p for row in rows]


def _symmetric_times(cells, v, p):
    """A v mod p for the symmetric A whose flat upper triangle is cells."""
    r, at = len(v), 0
    out = [0] * r
    for i in range(r):
        row = cells[at:at + r - i]
        at += r - i
        out[i] += sum(map(mul, row, v[i:]))
        out[i + 1:] = map(add, out[i + 1:], [x * v[i] for x in row[1:]])
    return [x % p for x in out]


class TestChainPastTheOracles:
    """The plain-power oracles stop at 231 rows. Past them, the witness
    pair that charpoly._hankel_rank returns is checked by Freivalds' test
    mod charpoly.P with v = (1, ..., r): G^a v = G (G^(a-1) v) for odd
    d = 2a - 1, and (M^t G^a) v = (M^t G^(a-1)) (G v) for even d = 2a. A
    slot of one power read wrong changes one side alone, so the test
    rejects it unless the error vanishes mod P at v."""

    @pytest.mark.parametrize("name", ["S_19 <= S_20", "(S_17 <= S_18)^t"])
    def test_witness_pair_mod_p(self, monkeypatch, name):
        m = branching_matrix(20) if name == "S_19 <= S_20" else branching_matrix(18).transposed()
        g, d = m.gram.entries, min_depth(m)
        bits, slots = [], exactmat.slots

        def slots_spy(b, count):
            bits.append(b)
            return slots(b, count)
        monkeypatch.setattr(exactmat, "slots", slots_spy)
        left = list(zip(*m.matrix.entries)) if d % 2 == 0 else None
        _, pair = charpoly._hankel_rank(g, (d + 1) // 2, m.cols + 1, left)
        r, p = len(g), charpoly.P
        v = list(range(1, r + 1))
        if left is None:
            # the triangles of G^18 and G^19, read from byte slots
            assert (r, d) == (490, 37) and max(bits) > 64
            low, high = (_symmetric_times(cells, v, p) for cells in pair)
            assert high == _times(g, low, p)
        else:
            # M^t G^16 and M^t G^17, 297 rows each, summed in 79-bit slots
            assert (r, d, max(bits)) == (385, 34, 79)
            low, high = ([cells[i:i + r] for i in range(0, len(cells), r)]
                         for cells in map(list, pair))
            assert _times(high, v, p) == _times(low, _times(g, v, p), p)


class TestTowerSpectrum:
    """The spectral bound, the power sums and the Krylov certificate on
    every tower S_m <= S_n against the closed-form spectrum of M M^t
    (_oracles.tower_spectrum), whose m distinct eigenvalues give k = m."""

    def test_pentagonal_counts(self):
        assert pentagonal_partition_counts(30) == [count_partitions(n) for n in range(31)]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_spectral_bound(self, n):
        for m in range(1, n):
            tower, spectrum = tower_matrix(m, n), tower_spectrum(m, n)
            assert sum(mult for _, mult in spectrum) == tower.rows
            bound, _ = charpoly.bound_and_witness(tower, 1)
            assert bound == 2 * len(spectrum) - 1 == 2 * m - 1, (m, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_power_traces(self, n):
        for m in range(1, n):
            g = tower_matrix(m, n).gram.entries
            power, traces = g, []
            for _ in range(4):
                traces.append(sum(power[i][i] for i in range(len(g))))
                power = naive_multiply(power, g)
            assert traces == [sum(mult * value**j for value, mult in tower_spectrum(m, n))
                              for j in range(1, 5)], (m, n)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_certificate_dimension(self, n):
        # the dimension is k = m on every tower, so it proves k = r = p(m)
        # only for m <= 3 and misses from m = 4 on
        for m in range(1, n):
            gram = tower_matrix(m, n).gram
            assert exactmat.krylov_dim(gram.entries, charpoly.P) == m, (m, n)
            assert (m == gram.rows) == (m <= 3)


class TestDepthUpperBound:
    def test_s3s4(self):
        assert depth_upper_bound(S3S4) == 5
        assert min_depth(S3S4) == 5  # bound attained

    def test_column_pair(self):
        m = InclusionMatrix([[1], [1]])
        assert depth_upper_bound(m) == 3
        assert min_depth(m) <= 3

    def test_identity(self):
        m = InclusionMatrix(identity(4))
        assert depth_upper_bound(m) == 1
        assert min_depth(m) == 1

    def test_bounds_depth_on_random(self):
        rng = random.Random(17)
        for _ in range(100):
            m = random_inclusion(rng, max_dim=6)
            assert min_depth(m) <= depth_upper_bound(m)
