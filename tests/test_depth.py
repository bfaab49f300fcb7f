import random
from collections import Counter
from math import comb

import pytest

from incdepth import (InclusionMatrix, IntMatrix, MatrixError, branching_matrix,
                      build_graph, depth_report, dominance_q, fixture_path, min_depth,
                      min_even_depth_graph, min_hdepth, min_hdepth_graph,
                      min_odd_depth_graph, min_odd_depth_symmetric, parse_matrix,
                      tower_matrix)
from incdepth import bigraph, charpoly, depth, exactmat
from incdepth.depth import _plan, _stabilize

from _oracles import (all_binary_inclusions, berkowitz_char_poly, block_diagonal,
                      bracketed_power, dense_rows, depth_at_most_two, depth_is_one,
                      depth_upper_bound, has_depth, hdepth_at_most_three, hdepth_is_one,
                      identity, inclusion_rejection, min_depth_exact, min_hdepth_exact,
                      naive_bracketed_powers, naive_multiply, naive_support_product,
                      naive_support_transpose, poly_gcd, random_inclusion,
                      right_chain_depths, sorted_binary_inclusions, zero_count)

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

    @pytest.mark.parametrize("rows, cols",
                             [(1, 130), (63, 64), (64, 65), (65, 63), (130, 1)])
    def test_validity_matches_entry_scan(self, rows, cols):
        # shapes on either side of a 64-bit word, as in test_exactmat.WIDE_PAIRS
        rng = random.Random(rows * 1000 + cols)
        seen = set()
        for _ in range(24):
            density = rng.choice((0.02, 0.3))
            cells = [[rng.randint(1, 3) if rng.random() < density else 0
                      for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):  # patch to a valid matrix, then break it
                if not any(cells[i]):
                    cells[i][rng.randrange(cols)] = 1
            for j in range(cols):
                if not any(row[j] for row in cells):
                    cells[rng.randrange(rows)][j] = 1
            if rng.random() < 0.3:
                for i in rng.sample(range(rows), min(rows, 2)):
                    cells[i] = [0] * cols
            if rng.random() < 0.3:
                for j in rng.sample(range(cols), min(cols, 2)):
                    for row in cells:
                        row[j] = 0
            if rng.random() < 0.25:
                cells[rng.randrange(rows)][rng.randrange(cols)] = -rng.randint(1, 3)
            expected = inclusion_rejection(cells)
            if expected is None:
                m = InclusionMatrix(cells)
                assert m.support == m.matrix.support()
                seen.add("valid")
            else:
                with pytest.raises(MatrixError) as info:
                    InclusionMatrix(cells)
                assert (str(info.value), info.value.row) == expected
                seen.add(expected[0].split(" ")[0])
        assert seen >= {"valid", "negative", "zero"}


class TestBracketedPower:
    def test_zero_is_identity(self):
        assert bracketed_power(S3S4, 0) == identity(3)

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
            ident = InclusionMatrix(identity(r))
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


def wide_inclusions():
    """Seeded sparse inclusion matrices with widths 1, 63, 64, 65 and 130,
    about two nonzero cells a row, so the support chains run long."""
    rng = random.Random(63)
    out = []
    for rows, cols in [(1, 130), (130, 1), (63, 64), (64, 65), (65, 63),
                       (130, 65), (64, 130)]:
        cells = [[0] * cols for _ in range(rows)]
        for row in cells:
            for j in rng.sample(range(cols), min(cols, 2)):
                row[j] = rng.randint(1, 3)
        for j in range(cols):
            if not any(row[j] for row in cells):
                cells[rng.randrange(rows)][j] = 1
        out.append(InclusionMatrix(cells))
    return out


def repeated_row_inclusions():
    """Inclusion matrices whose g = supp(M M^t) has equal rows: two seeded
    dense 40x60 ones, where g is all ones, a 40x60 one with 20 distinct
    rows, each twice, and S3S4 (+) an all-ones 3x4 block."""
    out = [InclusionMatrix(dense_rows(random.Random(seed), 40)) for seed in (0, 1)]
    rng = random.Random(23)
    cells = 2 * dense_rows(rng, 20)
    rng.shuffle(cells)
    out.append(InclusionMatrix(cells))
    cells = [[*row, 0, 0, 0, 0] for row in S3S4.matrix.entries]
    out.append(InclusionMatrix(cells + [[0] * 5 + [1] * 4] * 3))
    return out


class TestSupportChains:
    """The left-multiplied chains against the right-multiplied ones they
    replaced (_oracles.stabilize_right)."""

    @staticmethod
    def depths(m):
        return (min_depth(m), min_depth(m.transposed()), min_hdepth(m),
                min_odd_depth_symmetric(m.gram))

    @pytest.mark.parametrize("n", range(4, 17))
    def test_branching(self, n):
        m = branching_matrix(n)
        assert self.depths(m) == right_chain_depths(m)

    @pytest.mark.parametrize("m", wide_inclusions(), ids=lambda m: f"{m.rows}x{m.cols}")
    def test_wide(self, m):
        assert self.depths(m) == right_chain_depths(m)

    @pytest.mark.parametrize("m", repeated_row_inclusions(),
                             ids=["dense 0", "dense 1", "repeated rows", "S3S4 + ones"])
    def test_repeated_rows(self, m):
        supp = m.support
        gram = naive_support_product(supp, naive_support_transpose(supp, m.cols))
        assert len(set(gram)) < m.rows
        assert self.depths(m) == right_chain_depths(m)

    def test_cap_raises(self):
        # a permutation support never grows, so its chain cycles forever
        with pytest.raises(AssertionError, match="iteration cap"):
            _stabilize(_plan((0b10, 0b01)))

    def test_cap_raises_with_start(self):
        # both halves of each paired row cycle under the swap, and so do
        # the S rows that the column lists read off the start halves
        with pytest.raises(AssertionError, match="iteration cap"):
            _stabilize(_plan((0b10, 0b01)), (0b01, 0b10), ((0,), (1,)))

    def test_cap_raises_when_the_i_half_cycles(self):
        # each column list reads both start halves, so the S rows are full
        # at step 1 and settle at step 2, but both halves of each paired
        # row cycle under the swap, so neither d nor d(M^t) settles
        with pytest.raises(AssertionError, match="iteration cap"):
            _stabilize(_plan((0b10, 0b01)), (0b01, 0b10), ((0, 1), (0, 1)))

    def test_settled_start_half_does_not_wait_for_the_i_half(self):
        # the swap maps the start rows (0b11, 0b11) to themselves, so the
        # high halves settle at step 1 (d = 2), and the S rows, full at
        # step 1, at step 2 (d(M^t) = min(3, 2), d_H = 3); the search
        # returns although its I half cycles
        assert _stabilize(_plan((0b10, 0b01)), (0b11, 0b11), ((0, 1), (0, 1))) == (2, 2, 3)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_paired_halves_settle_in_either_order(self, n):
        # d(M) and d(M^t) step the chains from I and from the start in one
        # int per row. A straight tower S_k <= S_n has odd d, found when the
        # I half settles first; its transpose has even d, found when the
        # start half settles while the I half still moves. Each must be what
        # the right-multiplied chains of the oracle give. S_1 <= S_2 is
        # transposed to the 2x1 matrix of c2m2.mat
        for k in range(1, n):
            m = tower_matrix(k, n)
            d, d_t = min_depth(m), min_depth(m.transposed())
            assert (d, d_t) == right_chain_depths(m)[:2], (k, n)
            assert (d % 2, d_t % 2) == (1, 0), (k, n, d, d_t)


def test_exhaustive_binary_up_to_4x4():
    # every 0/1 inclusion matrix up to 4x4, one per multiset of rows
    shapes = {}
    for m in sorted_binary_inclusions(4, 4):
        shapes[m.rows, m.cols] = shapes.get((m.rows, m.cols), 0) + 1
        d, d_h = min_depth(m), min_hdepth(m)
        bound = depth_upper_bound(m)
        f = berkowitz_char_poly(naive_bracketed_powers(m, 2)[2])
        assert bound == 2 * (f.degree - poly_gcd(f, f.derivative()).degree) - 1, m
        assert d == min_depth_exact(m, bound), m
        assert d_h == min_hdepth_exact(m), m
        graph = build_graph(m)
        assert min(min_odd_depth_graph(graph), min_even_depth_graph(graph)) == d, m
        assert min_hdepth_graph(graph) == d_h, m
    # multisets of r nonzero rows that cover all s columns, by inclusion-exclusion
    assert shapes == {
        (r, s): sum((-1) ** j * comb(s, j) * comb(2 ** (s - j) + r - 2, r)
                    for j in range(s + 1))
        for r in range(1, 5) for s in range(1, 5)}


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
            prev = identity(m.cols)
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
                              for j in range(high.cols) if high.entries[i][j] == 0}
                zeros_low = {(i, j) for i in range(low.rows)
                             for j in range(low.cols) if low.entries[i][j] == 0}
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
            assert min_hdepth(InclusionMatrix(identity(r))) == 1

    def test_always_odd(self):
        rng = random.Random(6)
        for _ in range(60):
            assert min_hdepth(random_inclusion(rng, max_dim=5)) % 2 == 1


def small_depth_corpus():
    """4,000 seeded inclusion matrices up to 7x7, every 0/1 inclusion matrix
    up to 3x4, and every tower S_k <= S_n with n <= 16 and its transpose."""
    rng = random.Random(27)
    for _ in range(4000):
        yield random_inclusion(rng, max_dim=7)
    yield from all_binary_inclusions(3, 4)
    for n in range(2, 17):
        for k in range(1, n):
            yield tower_matrix(k, n)
            yield tower_matrix(k, n).transposed()


class TestSmallDepths:
    """The paper's small depths read off the entries alone (_oracles):
    d = 1, d_H = 1, d <= 2 and d_H <= 3, against the support chains."""

    def test_entry_characterizations(self):
        held = Counter()
        for m in small_depth_corpus():
            cells, d, d_h = m.matrix.entries, min_depth(m), min_hdepth(m)
            facts = {"d = 1": (d == 1, depth_is_one(cells)),
                     "d_H = 1": (d_h == 1, hdepth_is_one(cells)),
                     "d <= 2": (d <= 2, depth_at_most_two(cells)),
                     "d_H <= 3": (d_h <= 3, hdepth_at_most_three(cells))}
            for name, (want, got) in facts.items():
                assert got == want, (name, m)
                held[name, want] += 1
        # every fact both holds and fails somewhere in the corpus
        assert len(held) == 8, held

    def test_block_diagonal_of_positive_blocks(self, monkeypatch):
        # 20 positive 30x40 blocks down the diagonal (600x800): rows that
        # share a column share their block, so d <= 2, and so do columns,
        # so d_H <= 3. The Krylov certificate runs at r = 600, past the
        # word slots, right after G, and proves k = r.
        rng = random.Random(0)
        m = block_diagonal(*(InclusionMatrix([[rng.randint(1, 1000) for _ in range(40)]
                                              for _ in range(30)]) for _ in range(20)))
        cells = m.matrix.entries
        assert depth_at_most_two(cells) and hdepth_at_most_three(cells)
        assert not (depth_is_one(cells) or hdepth_is_one(cells))
        dims, krylov_dim = [], charpoly.krylov_dim

        def krylov_spy(g, p):
            dims.append(krylov_dim(g, p))
            return dims[-1]
        monkeypatch.setattr(charpoly, "krylov_dim", krylov_spy)
        rep = depth_report(m)
        assert (rep.rows, rep.cols, rep.depth, rep.h_depth) == (600, 800, 2, 3)
        assert (rep.spectral_bound, rep.q_witness) == (1199, 179301298602)
        assert rep.all_methods_agree() and dims == [600]

    def test_block_diagonal_of_equal_blocks(self, monkeypatch):
        # five copies of one seeded positive 8x10 block, entries 1 or near
        # 10^6: d <= 2 and d_H <= 3 as above, but each eigenvalue of the
        # block's Gram recurs five times, so k = 8 < r = 40, the Krylov
        # certificate misses, and the chain runs exactly to G^8 in byte
        # slots that grow at every step
        rng = random.Random(6)
        block = InclusionMatrix([[rng.choice((1, rng.randint(10**6 - 1000, 10**6)))
                                  for _ in range(10)] for _ in range(8)])
        assert 1 in map(min, block.matrix.entries)
        m = block_diagonal(*[block] * 5)
        cells = m.matrix.entries
        assert depth_at_most_two(cells) and hdepth_at_most_three(cells)
        assert not (depth_is_one(cells) or hdepth_is_one(cells))
        p = berkowitz_char_poly(block.gram)
        k = p.degree - poly_gcd(p, p.derivative()).degree
        assert k == 8
        dims, powers, widened, triangles = [], [], [], []
        krylov_dim, symmetric_powers, widen, triangle = (
            charpoly.krylov_dim, charpoly.symmetric_powers, exactmat.widen, exactmat.triangle)

        def krylov_spy(g, p):
            dims.append(krylov_dim(g, p))
            return dims[-1]

        def powers_spy(*args):
            for power in symmetric_powers(*args):
                powers.append(power)
                yield power

        def widen_spy(packed, old, new, count):
            widened.append((old, new))
            return widen(packed, old, new, count)

        def triangle_spy(packed, width):
            triangles.append((width, triangle(packed, width)))
            return triangles[-1][1]
        monkeypatch.setattr(charpoly, "krylov_dim", krylov_spy)
        monkeypatch.setattr(charpoly, "symmetric_powers", powers_spy)
        monkeypatch.setattr(exactmat, "widen", widen_spy)
        monkeypatch.setattr(exactmat, "triangle", triangle_spy)
        rep = depth_report(m)
        assert (rep.rows, rep.cols, rep.depth, rep.h_depth) == (40, 50, 2, 3)
        assert rep.spectral_bound == 2 * k - 1 and rep.all_methods_agree()
        assert rep.q_witness == has_depth(m, 2)
        assert len(dims) == 1 and dims[0] < m.rows
        # the chain pulled G, ..., G^k, read the triangle of each power past
        # G, in byte slots from G^2 on, and widened them before each product
        # after the first
        width, cells = triangles[-1]
        assert len(powers) == k and len(triangles) == k - 1
        assert width > 8 and max(cells).bit_length() > 64
        assert len(widened) == k - 2 and widened[0][0] > 8

    @pytest.mark.parametrize("density, want", [(0.8, (3, 3, 3)), (0.03, (7, 7, 7))],
                             ids=["dense", "sparse"])
    def test_seeded_200x260(self, density, want):
        # the four facts at a size where a report takes a fifth of a second:
        # each cell is nonzero, 1..1000, with the given probability, and a
        # zero line gets one such entry
        rng = random.Random(0)
        cells = [[rng.randint(1, 1000) if rng.random() < density else 0 for _ in range(260)]
                 for _ in range(200)]
        for row in cells:
            if not any(row):
                row[rng.randrange(260)] = rng.randint(1, 1000)
        for j in range(260):
            if not any(row[j] for row in cells):
                cells[rng.randrange(200)][j] = rng.randint(1, 1000)
        rep = depth_report(InclusionMatrix(cells))
        d, d_h = rep.depth, rep.h_depth
        assert (d, rep.depth_transpose, d_h) == want and rep.all_methods_agree()
        assert depth_is_one(cells) == (d == 1) and hdepth_is_one(cells) == (d_h == 1)
        assert depth_at_most_two(cells) == (d <= 2)
        assert hdepth_at_most_three(cells) == (d_h <= 3)


class TestMinOddDepthSymmetric:
    def test_h8(self):
        assert min_odd_depth_symmetric(H8_MMT) == 3

    def test_identity(self):
        assert min_odd_depth_symmetric(identity(4)) == 1

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
    def test_forms_gram_once(self, monkeypatch):
        # a report forms M M^t once, by the packed product of the entries the
        # matrix checked when it was built, and never through the checked
        # operator IntMatrix.__mul__, which would scan both operands again
        m = branching_matrix(6)
        mt = m.matrix.transpose().entries
        grams = []
        multiply = exactmat.product

        def spy(a, b):
            if a == m.matrix.entries and tuple(b) == mt:
                grams.append(b)
            return multiply(a, b)

        def refuse(a, b):
            raise AssertionError("a report multiplied through IntMatrix.__mul__")

        monkeypatch.setattr(exactmat, "product", spy)
        monkeypatch.setattr(IntMatrix, "__mul__", refuse)
        assert depth_report(m).depth == 9
        assert len(grams) == 1
        assert m.gram == IntMatrix(naive_multiply(m.matrix.entries, mt))

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
            assert -2 <= rep.depth - rep.h_depth <= 1
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
                [[m.matrix.entries[i][j] for j in cols] for i in rows])
            assert min_depth(shuffled) == min_depth(m)
            assert min_hdepth(shuffled) == min_hdepth(m)


def shared_support_inclusions():
    """Every 0/1 inclusion matrix up to 3x3, 500 seeded random ones up to
    7x7, S_4..S_14, the towers S_k <= S_n for n <= 9 and S_8 <= S_11,
    S3S4 (+) S3S4^t (+) C2M2, 1x70 and 70x1 rows of ones, identities of
    sizes around a 64-bit word and two seeded dense 40x60 matrices."""
    yield from all_binary_inclusions(3, 3)
    rng = random.Random(43)
    for _ in range(500):
        yield random_inclusion(rng, max_dim=7)
    yield from map(branching_matrix, range(4, 15))
    yield from (tower_matrix(k, n) for n in range(2, 10) for k in range(1, n))
    yield tower_matrix(8, 11)
    yield block_diagonal(S3S4, S3S4.transposed(), C2M2)
    yield InclusionMatrix([[1] * 70])
    yield InclusionMatrix([[1]] * 70)
    yield from (InclusionMatrix(identity(n)) for n in (1, 2, 63, 64, 65))
    for seed in (1, 2):
        yield InclusionMatrix(dense_rows(random.Random(seed), 40))


def test_report_shares_one_transposed_support():
    # depth_report steps d(M^t) and d_H from the transposed support and the
    # column lists of the matrix's one walk of supp(M); each must be what
    # the public function gives on its own, with d(M^t) from a support
    # validated afresh off the transposed entries, and what the
    # right-multiplied chains of the oracle give. Its graph values must be
    # those of build_graph, which reads the same walk.
    count = 0
    for m in shared_support_inclusions():
        rep = depth_report(m)
        want = (min_depth(m.transposed()), min_hdepth(m))
        assert (rep.depth_transpose, rep.h_depth) == want == right_chain_depths(m)[1:3], m
        graph = build_graph(m)
        assert (rep.min_odd_depth, rep.min_even_depth) == (
            min_odd_depth_graph(graph), min_even_depth_graph(graph)), m
        assert rep.methods_agree["graph_hdepth"] == (rep.h_depth == min_hdepth_graph(graph))
        count += 1
    assert count == 885


@pytest.mark.parametrize("m", [S3S4, tower_matrix(5, 6), tower_matrix(5, 6).transposed()],
                         ids=["S3S4", "S_5 <= S_6", "(S_5 <= S_6)^t"])
def test_report_makes_one_support_search(monkeypatch, m):
    # one search, from supp(M) with the column lists of M, gives d, d(M^t)
    # and d_H; the S rows of S3S4 and of the straight tower settle one step
    # after both halves, and the transposed tower's S rows and start halves
    # settle together, so its search stops before its I half settles
    calls, stabilize = [], depth._stabilize

    def spy(plan, start=None, cols=None):
        calls.append((start, cols))
        return stabilize(plan, start, cols)
    monkeypatch.setattr(depth, "_stabilize", spy)
    rep = depth_report(m)
    assert len(calls) == 1 and calls[0][0] is m.support and calls[0][1] is m.col_bits
    assert (rep.depth, rep.depth_transpose, rep.h_depth) == right_chain_depths(m)[:3]


def select_kinds(monkeypatch, m):
    """Spy on depth._select_or during depth_report(m): the report, and per
    call which lists of m's walk it ORs by and over, "chain" for neither."""
    names = {id(getattr(m, name)): name for name in ("row_bits", "col_bits", "support",
                                                     "supp_t")}
    kinds, select_or = [], depth._select_or

    def spy(picks, rows):
        kinds.append((names.get(id(picks), "chain"), names.get(id(rows), "chain")))
        return select_or(picks, rows)
    monkeypatch.setattr(depth, "_select_or", spy)
    return depth_report(m), kinds


@pytest.mark.parametrize("m", [S3S4, tower_matrix(5, 6),
                               InclusionMatrix(dense_rows(random.Random(3), 40))],
                         ids=["S3S4", "S_5 <= S_6", "dense 40x60"])
def test_report_walks_each_support_once(monkeypatch, m):
    # building the matrix walks its entries once, in its one walk_support
    # call, which finds the set bits of each row itself, with no set_bits
    # call; a report then makes no walk and calls set_bits once per distinct
    # row of the one factor its search steps by, supp(M M^t), formed once
    # from the row lists. It forms no supp(M^t M): the S rows come from the
    # column lists ORed over the search's own rows
    distinct = len(set(m.gram.support()))
    calls = {"set_bits": 0, "walk_support": 0}

    def counted(name, function):
        def spy(*args):
            calls[name] += 1
            return function(*args)
        return spy

    for name in calls:
        spy = counted(name, getattr(exactmat, name))
        for module in (exactmat, depth, bigraph, charpoly):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    fresh = InclusionMatrix(m.matrix)
    built = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    rep, kinds = select_kinds(monkeypatch, fresh)
    assert built == {"set_bits": 0, "walk_support": 1}, built
    assert calls == {"set_bits": distinct, "walk_support": 0}, calls
    assert kinds[0] == ("row_bits", "supp_t") and ("col_bits", "support") not in kinds, kinds
    assert set(kinds[1:]) <= {("col_bits", "chain"), ("chain", "chain")}, kinds
    assert rep.all_methods_agree()


@pytest.mark.parametrize("m, depths, steps, passes", [
    (S3S4, (5, 6, 7), 3, 3),
    (InclusionMatrix(dense_rows(random.Random(3), 40)), (3, 3, 3), 2, 1)],
    ids=["S3S4", "dense 40x60"])
def test_report_ors_the_column_lists_until_s_settles(monkeypatch, m, depths, steps, passes):
    # S3S4 has d = 5, found when its low halves settle at step 3, and d_H
    # = 7: its S rows settle at step 4, where S^3, every row full, gives
    # S^4 with no ORs, so the search steps 3 times and ORs the column lists
    # for S, S^2 and S^3 only. A dense 40 x 60 matrix has S = supp(M^t M)
    # full, so the column lists are ORed once, for S, and d = d(M^t) = d_H
    # = 3 after two steps
    rep, kinds = select_kinds(monkeypatch, m)
    assert (rep.depth, rep.depth_transpose, rep.h_depth) == depths
    assert Counter(kinds) == {("row_bits", "supp_t"): 1, ("chain", "chain"): steps,
                              ("col_bits", "chain"): passes}, kinds


class TestWitnessFromChain:
    """depth_report reads q off the spectral bound's Gram-power chain;
    has_depth forms the same powers by repeated squaring."""

    @staticmethod
    def agrees(m):
        rep = depth_report(m)
        assert rep.q_witness == has_depth(m, rep.depth), m
        return rep

    @pytest.mark.parametrize("n, transposed", [
        *(pytest.param(n, False, id=str(n)) for n in range(4, 17)),
        # M^t, up to 135 rows: its even depth takes the witness powers times
        # M. Its rows go in seeded order, as in the Young order the cells that
        # set q lie on one side of the Gram powers' diagonals.
        *(pytest.param(n, True, id=f"{n} transposed") for n in range(4, 15))])
    def test_branching(self, n, transposed):
        m = branching_matrix(n)
        if transposed:
            rows = list(zip(*m.matrix.entries))
            random.Random(n).shuffle(rows)
            m = InclusionMatrix(rows)
        assert self.agrees(m).depth == 2 * n - 3 + transposed

    def test_random_both_parities(self):
        rng = random.Random(41)
        parities = Counter(self.agrees(random_inclusion(rng, max_dim=9)).depth % 2
                           for _ in range(200))
        assert parities[0] >= 20 and parities[1] >= 20, parities

    def test_fixtures(self):
        # 1x1: the chain is G alone. s3s4.mat has k = r = 3 and d = 5, so
        # the chain forms G^3 after its last Hankel row. c2m2.mat has even d.
        assert self.agrees(InclusionMatrix([[3]])).q_witness == 9
        s3s4 = parse_matrix(fixture_path("s3s4.mat").read_text())
        rep = self.agrees(s3s4)
        assert (rep.depth, rep.spectral_bound, rep.q_witness) == (5, 5, 7)
        c2m2 = parse_matrix(fixture_path("c2m2.mat").read_text())
        rep = self.agrees(c2m2)
        assert (rep.depth, rep.spectral_bound, rep.q_witness) == (2, 3, 2)

    @pytest.mark.parametrize("cells", [
        # d = 5, k = 5: M^[4] = G^2 has 199-bit entries
        [[0, 0, 1, 0], [886913104844272, 0, 0, 0], [277071586128148, 1, 1, 0],
         [1, 0, 0, 1], [1, 0, 1, 0]],
        # d = 4, k = 4: M^[3] = G M has 150-bit entries
        [[0, 0, 40147414335368], [395302198567085, 0, 0], [1, 963607173897615, 1],
         [1, 1, 1]],
    ])
    def test_witness_powers_above_p(self, cells):
        # the chain passes 2^127 by G^2 and stays exact through G^a, right after
        # which the Krylov certificate mod P proves k = r; with a = 3, G^2
        # is also the lower witness power
        m = InclusionMatrix(cells)
        rep = self.agrees(m)
        low = bracketed_power(m, rep.depth - 1)
        assert max(map(max, low.entries)) >> 127
        assert (rep.spectral_bound + 1) // 2 > (rep.depth + 1) // 2 + 1
        assert rep.spectral_bound == depth_upper_bound(m)
