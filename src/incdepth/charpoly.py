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
(Bareiss, Math. Comp. 1968) over the power sums s_0 = r, s_1, ...,
s_(2c-2). exactmat forms them, lazily, along the exact chain
G^n = G G^(n-1) (symmetric_powers, whose docstring gives the schedule),
and hands out at each step the sums that step makes known. Hankel row m is
eliminated once s_m, ..., s_2m are known, and step c - 1 adds the last
row (det H_(c+1) is always 0). Chain and elimination are exact. The
count tries a certificate once: the minimal polynomial of G is monic in
Z[x] (Gauss's lemma), so its reduction mod the prime P annihilates G mod
P, and the dimension of the Krylov space span(v, Gv, G^2 v, ...) mod P
is at most k (Wiedemann, IEEE Trans. Inf. Theory 1986). A dimension of c
proves k = c and ends the count; otherwise the same chain goes on
exactly, and the k it finds must not be below that dimension. No step is
probabilistic and every answer is exact.

A depth report also takes the witness pair of depth 2a-1 or 2a from this
chain at step a: the upper triangles of G^(a-1) and G^a for odd d, and
for even d M^t G^(a-1) and M^t G^a, which the chain sums from the packed
rows it holds. It tries the certificate right after that pair, at the
end of chain step a, unless no Hankel step is left for it to save. When
a = c the chain forms G^c after its last Hankel row. So on a tall M,
with cols + 1 < r, the chain forms no power past G^max(a, cols), and none
past G^a when the certificate proves k = c. This module only counts:
exactmat forms the chain, its power sums and the witness pair
(symmetric_powers), and the Krylov dimension (krylov_dim), and alone
knows the layout of the rows they pack.
"""

from __future__ import annotations

from .exactmat import InclusionMatrix, krylov_dim, least_q, symmetric_powers

# the prime of the Krylov certificate; 2 bits(P) + bits(r) + 1 <= 64 keeps its
# slots in 8-byte words for every r <= 2047
P = (1 << 26) - 5


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
    c = min(r, ceiling), where det H_(c+1) = 0 always, and eliminates each
    Hankel row m once the chain, exactmat.symmetric_powers(g, c, exact,
    left), has handed out its sums s_m, ..., s_2m. pair is the chain's
    witness pair at step exact, the triangles of G^(exact-1) and G^exact, or
    L G^(exact-1) and L G^exact for the rows of L in left, once the chain
    has formed G^exact, which it does whenever 1 <= exact <= k, and None
    otherwise. The Krylov certificate is tried once, at the end of step
    exact, unless that is step c - 1 or later and no Hankel step is left for
    it to save; a dimension of c proves k = c. Its dimension is at most k,
    and a k below it raises AssertionError: the chain or the certificate is
    wrong.
    """
    r = len(g)
    c = min(r, ceiling)  # k <= c
    dim = 0  # the Krylov certificate's dimension, once it is tried
    pair = None  # the witness pair, once formed
    pivots = [r]  # det H_1, ..., det H_(m+1) for the rows eliminated so far
    rows = [[r]]  # pivot row k after k elimination steps, from column k on
    # Steps 1..c-1 add Hankel rows; det H_(c+1) = 0 always, so step c only
    # forms G^c, when it is asked for.
    steps = range(1, c + (exact >= c))
    for n, (sums, known, formed) in zip(steps, symmetric_powers(g, c, exact, left)):
        if n == exact:
            pair = formed
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
