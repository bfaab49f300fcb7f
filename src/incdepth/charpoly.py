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
G^n = G G^(n-1). Up to t = min(exact, c - 1), where exact >= 1 is the
power a depth report asks for, each s_n is a trace, read off the
diagonal of G^n as step n forms it; each sum above t is a Frobenius
product, s_(2n-1) = <G^(n-1), G^n> and s_(2n) = <G^n, G^n>, taken at step
n. Hankel row m needs s_m, ..., s_2m, so below step t a row waits for its
sums, step t eliminates every row through t, and each step after it one
row. t is capped at c - 1, the last step that adds a Hankel row
(det H_(c+1) is always 0), so that every sum that step needs is known by
its end. Chain and elimination are exact. The count tries a certificate
once: the minimal polynomial of G is monic in Z[x] (Gauss's lemma), so
its reduction mod the prime P annihilates G mod P, and the dimension of
the Krylov space span(v, Gv, G^2 v, ...) mod P is at most k (Wiedemann,
IEEE Trans. Inf. Theory 1986). A dimension of c proves k = c and ends the
count; otherwise the same chain goes on exactly, and the k it finds must
not be below that dimension. No step is probabilistic and every answer is
exact.

A depth report also takes the upper rows of G^(a-1) and G^a from this
chain, for the witness q of depth 2a-1 or 2a, and tries the certificate
right after that pair, at the end of chain step a, unless no
Hankel step is left for it to save. When a = c the chain forms G^c after
its last Hankel row. So on a tall M, with cols + 1 < r, the chain forms
no power past G^max(a, cols), and none past G^a when the certificate
proves k = c. A Frobenius sum or the witness pair reads G^n only when
2n + 1 > t, so the chain unpacks the upper rows of G^n from
n = (t + 1) // 2 on; below that it reads each power's diagonal slots
alone, for its trace, and bounds its largest entry for the next product's
slots without unpacking it. This module only counts: exactmat forms the
chain, lazily (symmetric_powers), and the Krylov dimension (krylov_dim),
and alone knows the layout of the rows they pack.
"""

from __future__ import annotations

from itertools import chain
from operator import mul

from .exactmat import InclusionMatrix, krylov_dim, least_q, product, symmetric_powers

P = (1 << 27) - 79  # the prime of the Krylov certificate


def _frobenius(a, b) -> int:
    """Frobenius product sum_ij A_ij B_ij of two symmetric matrices A and B.

    a[i] and b[i] are the upper rows of A and B: row i from column i on,
    the diagonal first. Both matrices must be symmetric, as every power of G
    is: the sum is then twice the sum over the upper rows less the diagonal,
    which that sum counted once, so on other matrices the result is wrong.
    """
    diagonal = sum([x[0] * y[0] for x, y in zip(a, b)])
    return 2 * sum(map(mul, chain.from_iterable(a), chain.from_iterable(b))) - diagonal


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


def _hankel_rank(g, exact: int, ceiling: int):
    """(k, powers) for the nonnegative symmetric rows g of G, such as M M^t.

    k is the least N with det H_(N+1) = 0, and ceiling must bound it: r for
    any G, cols + 1 for G = M M^t with M of cols columns. The count runs to
    c = min(r, ceiling), where det H_(c+1) = 0 always. powers is the upper
    rows of G^(exact-1) and G^exact once the chain has formed G^exact,
    which it does whenever 1 <= exact <= k, and None otherwise. With
    t = min(exact, c - 1), s_1, ..., s_t are the traces of G, ..., G^t, and
    only the sums above t are Frobenius products. Hankel rows below t are
    eliminated once their sums are known, and all rows through t by the
    end of step t. The Krylov certificate is tried once, at the end of step
    exact, unless that is step c - 1 or later and no Hankel step is left
    for it to save; a dimension of c proves k = c. Its dimension is at most
    k, and a k below it raises AssertionError: the chain or the certificate
    is wrong. Step n pulls G^n from exactmat.symmetric_powers, whole from
    n = (t + 1) // 2 on and as its diagonal alone before that.
    """
    r = len(g)
    c = min(r, ceiling)  # k <= c
    top = min(exact, c - 1)  # s_1, ..., s_top are traces
    dim = 0  # the Krylov certificate's dimension, once it is tried
    # a Frobenius sum reads G^n only when 2n + 1 > top, the witness pair no
    # earlier power, and the traces below that only the diagonals
    chain = symmetric_powers(g, (top + 1) // 2)
    _, upper = next(chain)  # the upper rows of G^0, and of G^n from step n on, or None
    powers = None  # the upper rows of G^(exact-1) and G^exact, once formed
    sums = [r] + [None] * (2 * c - 2)  # s_0, ..., s_(2c-2), each set once known
    pivots = [r]  # det H_1, ..., det H_(m+1) for the rows eliminated so far
    rows = [[r]]  # pivot row k after k elimination steps, from column k on
    # Steps 1..c-1 add Hankel rows; det H_(c+1) = 0 always, so step c only
    # forms G^c, when it is asked for.
    for n in range(1, max(c, exact + 1)):
        low = upper
        diagonal, upper = next(chain)
        if n == exact:
            powers = [low, upper]
        if n == c:
            break
        if n <= top:
            sums[n] = sum(diagonal)
        if 2 * n - 1 > top:
            sums[2 * n - 1] = _frobenius(low, upper)
        if 2 * n > top:
            sums[2 * n] = _frobenius(upper, upper)
        known = 2 * n if n >= top else n  # s_0, ..., s_known are all set
        while 2 * len(pivots) <= known:
            m = len(pivots)
            if not _eliminate(sums[m:2 * m + 1], pivots, rows):
                if m < dim:  # explicit, so the check also runs under python -O
                    raise AssertionError(f"Krylov dimension {dim} exceeds k = {m}")
                return m, powers if m >= exact else None
        if n == exact < c - 1:
            dim = krylov_dim(g, P)
            if dim == c:
                return c, powers
    return c, powers


def bound_and_witness(m: InclusionMatrix, d: int):
    """The spectral bound 2k - 1 and the minimal witness q of depth d >= 1.

    k is the degree of the minimal polynomial of G = M M^t. With
    a = (d + 1) // 2, M^[d-1] and M^[d+1] are G^(a-1) and G^a, times M for
    even d. The chain that counts the distinct eigenvalues stays exact
    through G^a and hands over the upper rows of those two symmetric powers,
    which hold every entry. q is the least q with M^[d+1] <= q M^[d-1]
    whenever d is within the bound; past the bound the chain may stop short
    of G^a, and q is None.
    """
    k, powers = _hankel_rank(m.gram.entries, (d + 1) // 2, m.cols + 1)
    if powers is None:
        return 2 * k - 1, None
    if d % 2 == 0:  # row i of a power is, by symmetry, column i of its upper
        # rows padded to the left, down to the diagonal, then upper row i
        for t, upper in enumerate(powers):
            columns = zip(*[[0] * i + [*row] for i, row in enumerate(upper)])
            whole = [[*col[:i], *row] for i, (col, row) in enumerate(zip(columns, upper))]
            powers[t] = product(whole, m.matrix.entries)
    return 2 * k - 1, least_q(powers[1], powers[0])
