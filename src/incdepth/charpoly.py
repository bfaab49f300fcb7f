"""The spectral depth bound: distinct eigenvalues from Gram power sums.

A symmetric integer matrix G is diagonalizable, so the degree k of its
minimal polynomial is its number of distinct eigenvalues: the powers
I, G, ..., G^(k-1) are linearly independent and G^k depends on them.
Under the Frobenius product <A, B> = tr(A^t B) their Gram matrix is the
Hankel matrix H_N = (s_(i+j))_(0 <= i, j < N) of the power sums
s_n = tr G^n (Hermite's quadratic form; Basu-Pollack-Roy, Algorithms in
Real Algebraic Geometry, ch. 4). H_N is therefore positive definite for
N <= k and singular for N = k + 1, whatever the signs of G's entries: k is
the least N with det H_(N+1) = 0. For G = M M^t, with M r x cols, k is at
most the ceiling c = min(r, cols + 1): rank G = rank M <= cols, so G has
at most cols distinct nonzero eigenvalues, and 0 adds at most one more.

The leading minors det H_N are the pivots of a fraction-free elimination
(Bareiss, Math. Comp. 1968) over the power sums of the chain
G^n = G G^(n-1). Up to t = min(max(exact, 1), c - 1), where exact is the
power a depth report asks for, each s_n is a trace, read off the
diagonal of G^n as step n forms it. s_(t+1) = tr(G^t G) = <G^t, G> is
taken at step t over the nonzero cells of G's upper triangle alone, and
each sum above it is a full Frobenius product, s_(2n-1) = <G^(n-1), G^n>
and s_(2n) = <G^n, G^n>, taken at step n. Hankel row m needs s_m, ...,
s_2m, so below step t a row waits for its sums, step t eliminates every
row through t, and each step after it one row. t is capped at c - 1, the
last step that adds a Hankel row (det H_(c+1) is always 0), so that
every sum that step needs is known by its end. Chain and elimination are
exact. The count tries a certificate
once: the minimal polynomial of G is monic in Z[x] (Gauss's lemma), so
its reduction mod the prime P annihilates G mod P, and the dimension of
the Krylov space span(v, Gv, G^2 v, ...) mod P is at most k (Wiedemann,
IEEE Trans. Inf. Theory 1986). A dimension of c proves k = c and ends the
count; otherwise the same chain goes on exactly, and the k it finds must
not be below that dimension. No step is probabilistic and every answer is
exact.

A depth report also takes the witness pair of depth 2a-1 or 2a from this
chain at step a: the upper triangles of G^(a-1) and G^a for odd d, and
for even d M^t G^(a-1) and M^t G^a, which the chain sums from the packed
rows it holds. It tries the certificate right after that pair, at the
end of chain step a, unless no Hankel step is left for it to save. When
a = c the chain forms G^c after its last Hankel row. So on a tall M,
with cols + 1 < r, the chain forms no power past G^max(a, cols), and none
past G^a when the certificate proves k = c. A full Frobenius sum or the
odd witness pair reads G^n only when 2n + 1 >= t + 2, so the chain reads
the upper triangle of G^n, as one flat tuple, from n = t // 2 + 1 on;
below that it reads each power's diagonal slots alone, for its trace,
and bounds its largest entry for the next product's slots without
unpacking it. This module only counts: exactmat forms the chain, lazily
(symmetric_powers), the witness pair, and the Krylov dimension
(krylov_dim), and alone knows the layout of the rows they pack.
"""

from __future__ import annotations

from itertools import compress
from operator import mul

from .exactmat import InclusionMatrix, krylov_dim, least_q, symmetric_powers, upper

# the prime of the Krylov certificate; 2 bits(P) + bits(r) + 1 <= 64 keeps its
# slots in 8-byte words for every r <= 2047
P = (1 << 26) - 5


def _frobenius(a, b) -> int:
    """Frobenius product sum_ij A_ij B_ij of two symmetric matrices A and B.

    a and b are (diagonal, cells): the diagonal of the matrix and the cells
    of its upper triangle, row i from column i on, flat, in the same order
    for both, every cell or a selection that keeps each cell where A and B
    are both nonzero. Both matrices must be symmetric, as every power of G
    is: the sum is then twice the sum over the upper cells less the
    diagonal, which that sum counted once, so on other matrices the result
    is wrong.
    """
    return 2 * sum(map(mul, a[1], b[1])) - sum(map(mul, a[0], b[0]))


def _eliminate(v, pivots, rows) -> int:
    """Add Hankel row m = len(pivots), whose entries s_m, ..., s_2m are v, to
    the elimination, and return its pivot det H_(m+1).

    pivots holds det H_1, ..., det H_m and rows[k][j - k] entry (k, j) of H
    after k elimination steps. By symmetry, the new row's entry in column k
    after k steps is also entry (k, m) of pivot row k. A nonzero pivot
    starts pivot row m.
    """
    m = len(pivots)
    divisors = [1, *pivots]
    for k, (pivot, row) in enumerate(zip(pivots, rows)):
        mult = v[k]
        row.append(mult)
        v[k + 1:] = [(pivot * x - mult * y) // divisors[k]
                     for x, y in zip(v[k + 1:], row[1:])]
    if v[m]:
        pivots.append(v[m])
        rows.append([v[m]])
    return v[m]


def _hankel_rank(g, exact: int, ceiling: int, left=None):
    """(k, pair) for the nonnegative symmetric rows g of G, such as M M^t.

    k is the least N with det H_(N+1) = 0, and ceiling must bound it: r for
    any G, cols + 1 for G = M M^t with M of cols columns. The count runs to
    c = min(r, ceiling), where det H_(c+1) = 0 always. pair is the witness
    pair of exactmat.symmetric_powers at step exact, given left: the
    triangles of G^(exact-1) and G^exact, or L G^(exact-1) and L G^exact for
    the rows of L in left, once the chain has formed G^exact, which it does
    whenever 1 <= exact <= k, and None otherwise. With
    t = min(max(exact, 1), c - 1), s_1, ..., s_t are the traces of G, ...,
    G^t, s_(t+1) = <G^t, G> is taken at step t over the nonzero cells of
    G's triangle alone, and only the sums above t + 1 are full Frobenius
    products. Hankel rows below t are eliminated once their sums are known,
    and all rows through t by the end of step t. The Krylov certificate is
    tried once, at the end of step exact, unless that is step c - 1 or later
    and no Hankel step is left for it to save; a dimension of c proves
    k = c. Its dimension is at most k, and a k below it raises
    AssertionError: the chain or the certificate is wrong. Step n pulls G^n
    from exactmat.symmetric_powers, with its triangle from n = t // 2 + 1
    on and as its diagonal alone before that.
    """
    r = len(g)
    c = min(r, ceiling)  # k <= c
    top = min(max(exact, 1), c - 1)  # s_1, ..., s_top are traces
    dim = 0  # the Krylov certificate's dimension, once it is tried
    # a full Frobenius sum s_j, j >= top + 2, reads G^n only when
    # 2n + 1 >= top + 2, the odd witness pair no earlier power, and the
    # traces below that only the diagonals
    chain = symmetric_powers(g, top // 2 + 1, exact, left)
    power = None  # (diagonal, triangle) of G^n, the triangle None below top // 2 + 1
    pair = None  # the witness pair, once formed
    sums = [r] + [None] * (2 * c - 2)  # s_0, ..., s_(2c-2), each set once known
    pivots = [r]  # det H_1, ..., det H_(m+1) for the rows eliminated so far
    rows = [[r]]  # pivot row k after k elimination steps, from column k on
    # Steps 1..c-1 add Hankel rows; det H_(c+1) = 0 always, so step c only
    # forms G^c, when it is asked for.
    for n in range(1, max(c, exact + 1)):
        low = power
        diagonal, triangle, formed = next(chain)
        power = diagonal, triangle
        if n == 1:
            first = power
        if n == exact:
            pair = formed
        if n == c:
            break
        if n <= top:
            sums[n] = sum(diagonal)
        if n == top:  # <G^t, G> over the nonzero cells of G's triangle
            cells = first[1] if first[1] is not None else upper(g)
            sums[n + 1] = _frobenius((diagonal, compress(triangle, cells)),
                                     (first[0], compress(cells, cells)))
        if 2 * n - 1 > top + 1:
            sums[2 * n - 1] = _frobenius(low, power)
        if 2 * n > top + 1:
            sums[2 * n] = _frobenius(power, power)
        known = 2 * n if n >= top else n  # s_0, ..., s_known are all set
        while 2 * len(pivots) <= known:
            m = len(pivots)
            if not _eliminate(sums[m:2 * m + 1], pivots, rows):
                if m < dim:  # explicit, so the check also runs under python -O
                    raise AssertionError(f"Krylov dimension {dim} exceeds k = {m}")
                return m, pair if m >= exact else None
        if n == exact < c - 1:
            dim = krylov_dim(g, P)
            if dim == c:
                return c, pair
    return c, pair


def bound_and_witness(m: InclusionMatrix, d: int):
    """The spectral bound 2k - 1 and the minimal witness q of depth d >= 1.

    k is the degree of the minimal polynomial of G = M M^t. With
    a = (d + 1) // 2, M^[d-1] and M^[d+1] are G^(a-1) and G^a for odd d,
    whose triangles hold every entry, and G^(a-1) M and G^a M for even d,
    whose transposes M^t G^(a-1) and M^t G^a the chain forms from the
    packed rows it holds. The chain that counts the distinct eigenvalues
    stays exact through G^a and hands over that pair. q is the least q with
    M^[d+1] <= q M^[d-1], read cell by cell over the pair, whenever d is
    within the bound; past the bound the chain may stop short of G^a, and q
    is None.
    """
    left = list(zip(*m.matrix.entries)) if d % 2 == 0 else None
    k, pair = _hankel_rank(m.gram.entries, (d + 1) // 2, m.cols + 1, left)
    return 2 * k - 1, None if pair is None else least_q(pair[1], pair[0])
