"""The spectral depth bound: distinct eigenvalues from Gram power sums.

A symmetric integer matrix G is diagonalizable, so the degree k of its
minimal polynomial is its number of distinct eigenvalues: the powers
I, G, ..., G^(k-1) are linearly independent and G^k depends on them.
Under the Frobenius product <A, B> = tr(A^t B) their Gram matrix is the
Hankel matrix H_N = (s_(i+j))_(0 <= i, j < N) of the power sums
s_n = tr G^n (Hermite's quadratic form; Basu-Pollack-Roy, Algorithms in
Real Algebraic Geometry, ch. 4). H_N is therefore positive definite for
N <= k and singular for N = k + 1, whatever the signs of G's entries: k is
the least N with det H_(N+1) = 0.

The leading minors det H_N are the pivots of a fraction-free elimination
(Bareiss, Math. Comp. 1968) that adds one Hankel row per power of G, from
the chain G^(j+1) = G G^j: s_(2j) = <G^j, G^j>, s_(2j+1) = <G^j, G^(j+1)>.
Chain and elimination are exact. The count tries a certificate once: the
minimal polynomial of G is monic in Z[x] (Gauss's lemma), so its reduction
mod the prime P annihilates G mod P, and the dimension of the Krylov space
span(v, Gv, G^2 v, ...) mod P is at most k (Wiedemann, IEEE Trans. Inf.
Theory 1986). A dimension of r proves k = r and ends the count; otherwise
the same chain goes on exactly. No step is probabilistic and every answer
is exact.

A depth report also takes the exact pair G^(a-1), G^a from this chain,
for the witness q of depth 2a-1 or 2a, and tries the certificate right
after that pair, at the end of chain step max(a, 1), unless no Hankel
step is left for it to save. When a = r the chain forms G^r after its
last Hankel row.
"""

from __future__ import annotations

from itertools import compress
from operator import mul

from .exactmat import InclusionMatrix, combine, dominance_q, made, product, slots

P = (1 << 27) - 79  # the prime of the Krylov certificate


def _inner(a, b) -> int:
    """Frobenius product sum_ij a_ij b_ij of two symmetric row-major matrices.

    Both a and b must be symmetric, as every power of G is: the sum is then
    the diagonal plus twice the strict upper triangle, the only cells this
    reads, so on other matrices the result is wrong.
    """
    diagonal = upper = 0
    for i, (x, y) in enumerate(zip(a, b)):
        diagonal += x[i] * y[i]
        upper += sum(map(mul, x[i + 1:], y[i + 1:]))
    return diagonal + 2 * upper


def _krylov_dim(g, p: int) -> int:
    """Dimension of span(v, Gv, G^2 v, ...) mod p for v = (1, 2, ..., r).

    The rows of G mod p, the vectors and the echelon basis are packed into
    one int each (exactmat.slots). G is symmetric, so Gv is the sum of v_k
    times packed row k. Each new vector w is reduced against the basis
    found so far by w += (p - c) * row, where c is w's slot at the row's
    pivot, mod p. Either sum keeps every slot below p + r p^2 <
    2^(2 bits(p) + bits(r) + 1), so nothing carries. The count takes at
    most r matrix-vector products.
    """
    r = len(g)
    width, pack, unpack = slots(2 * p.bit_length() + r.bit_length() + 1, r)
    shift, mask = 8 * width, (1 << 8 * width) - 1
    rows = [pack([x % p for x in row]) for row in g]
    basis = []  # (pivot column, packed row mod p with 1 in that column)
    v = list(range(1, r + 1))
    while len(basis) < r:
        w = pack(v)
        for col, row in basis:
            c = (w >> col * shift & mask) % p
            if c:
                w += (p - c) * row
        w = [x % p for x in unpack(w)]
        col = next((j for j, x in enumerate(w) if x), None)
        if col is None:
            break
        inverse = pow(w[col], -1, p)
        basis.append((col, pack([x * inverse % p for x in w])))
        v = [x % p for x in unpack(sum(map(mul, compress(v, v), compress(rows, v))))]
    return len(basis)


def _hankel_rank(g, exact: int = 0):
    """(k, powers) for the nonnegative symmetric rows g of G, such as M M^t.

    k is the least N with det H_(N+1) = 0. powers is the exact pair
    (G^(exact-1), G^exact) once the chain has formed G^exact, which it does
    whenever 1 <= exact <= k, and None otherwise. The Krylov certificate is
    tried once, at the end of step max(exact, 1), unless that is step r - 1
    or later and no Hankel step is left for it to save.
    """
    r = len(g)
    check = max(exact, 1)  # the step that tries the Krylov certificate
    low, power = [[int(i == j) for j in range(r)] for i in range(r)], g  # G^(n-1), G^n
    head = r.bit_length() + max(map(max, g)).bit_length()  # G's share of product's bound
    width = packed = None  # the slot width of the last step and its packed sums
    powers = None
    sums = [r]  # s_0, s_1, ..., s_(2n)
    pivots = [r]  # det H_1, ..., det H_n
    rows = [[r]]  # rows[k][j - k]: entry (k, j) of H after k elimination steps
    # Steps 1..r-1 add Hankel rows; det H_(r+1) = 0 always, so step r only
    # forms G^r, when it is asked for.
    for n in range(1, max(r, exact + 1)):
        if n > 1:
            low = power
            # G^n = G G^(n-1) by product's kernel; the sums that formed G^(n-1)
            # are its packed rows, packed anew only when the slot width moves
            step, pack, unpack = slots(head + max(map(max, low)).bit_length(), r)
            if step != width:
                width, packed = step, list(map(pack, low))
            packed = combine(g, packed)
            power = [tuple(unpack(x)) for x in packed]
        if n == exact:
            powers = low, power
        if n == r:
            break
        sums += _inner(low, power), _inner(power, power)
        # Row n of H_(n+1) is s_n, ..., s_2n; by symmetry, its entry in
        # column k after k steps is also entry (k, n) of the pivot row k.
        v = sums[n:]
        divisors = [1, *pivots]
        for k, (pivot, row) in enumerate(zip(pivots, rows)):
            mult = v[k]
            row.append(mult)
            v[k + 1:] = [(pivot * x - mult * y) // divisors[k]
                         for x, y in zip(v[k + 1:], row[1:])]
        if not v[n]:
            return n, powers
        pivots.append(v[n])
        rows.append([v[n]])
        if n == check < r - 1 and _krylov_dim(g, P) == r:
            return r, powers
    return r, powers


def bound_and_witness(m: InclusionMatrix, d: int):
    """The spectral bound 2k - 1 and the minimal witness q of depth d >= 1.

    k is the degree of the minimal polynomial of G = M M^t. With
    a = (d + 1) // 2, M^[d-1] and M^[d+1] are G^(a-1) and G^a, times M for
    even d. The chain that counts the distinct eigenvalues stays exact
    through G^a and hands those two powers over. q is the least q with
    M^[d+1] <= q M^[d-1] whenever d is within the bound; past the bound the
    chain may stop short of G^a, and q is None.
    """
    k, powers = _hankel_rank(m.gram.entries, (d + 1) // 2)
    if powers is None:
        return 2 * k - 1, None
    if d % 2 == 0:
        powers = [product(power, m.matrix.entries) for power in powers]
    low, high = map(made, powers)
    return 2 * k - 1, dominance_q(high, low)
