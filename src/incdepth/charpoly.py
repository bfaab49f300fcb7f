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
Chain and elimination are exact while every entry of the chain is below
2^127, and then continue modulo the prime P = 2^127 - 1. A minor that is
nonzero mod P is nonzero, so r nonzero pivots prove k = r (k <= r). A minor
that vanishes mod P may not vanish over Z, so then the count is redone
without reduction. No step is probabilistic and every answer is exact.
"""

from __future__ import annotations

from operator import mul

from .exactmat import InclusionMatrix, IntMatrix, MatrixError, signed_product

P = (1 << 127) - 1  # a Mersenne prime
# Up to this many rows the chain multiplies by plain row-by-column sums,
# whose cost is below the packed kernel's fixed cost (the two cross between
# 12 and 15 rows on small-entry grams).
PLAIN_ROWS = 12


def _inner(a, b) -> int:
    """Frobenius product sum_ij a_ij b_ij of two row-major matrices."""
    return sum(sum(map(mul, x, y)) for x, y in zip(a, b))


def _hankel_rank(g, modulus: int | None) -> int:
    """Least N with det H_(N+1) = 0 for the symmetric rows g, or 0 if unproven.

    With a modulus, the chain and the elimination are reduced by it from the
    first power with an entry above it on; a pivot that vanishes after that
    proves nothing, and the answer is 0.
    """
    r = len(g)
    p = None  # the modulus, once the chain has reached it
    low, power = [[int(i == j) for j in range(r)] for i in range(r)], g  # G^(n-1), G^n
    sums = [r]  # s_0, s_1, ..., s_(2n)
    pivots = [r]  # det H_1, ..., det H_n
    rows = [[r]]  # rows[k][j - k]: entry (k, j) of H after k elimination steps
    inverses = []  # of the divisors 1, det H_1, det H_2, ... mod p
    for n in range(1, r):
        if n > 1:
            low = power
            # G^(n-1) is symmetric, so its rows are also its columns
            power = ([[sum(map(mul, x, y)) for y in low] for x in g] if r <= PLAIN_ROWS
                     else signed_product(g, low))
        if modulus and not p and max(max(map(max, power)), -min(map(min, power))) > modulus:
            p = modulus
            sums = [s % p for s in sums]
            pivots = [x % p for x in pivots]
            rows = [[x % p for x in row] for row in rows]
            if not all(pivots):
                return 0
        if p:
            power = [[x % p for x in row] for row in power]
        new = (_inner(low, power), _inner(power, power))
        sums += [s % p for s in new] if p else new
        # Row n of H_(n+1) is s_n, ..., s_2n; by symmetry, its entry in
        # column k after k steps is also entry (k, n) of the pivot row k.
        v = sums[n:]
        divisors = [1, *pivots]
        if p:
            inverses += [pow(x, -1, p) for x in divisors[len(inverses):n]]
        for k, (pivot, row) in enumerate(zip(pivots, rows)):
            mult = v[k]
            row.append(mult)
            terms = [pivot * x - mult * y for x, y in zip(v[k + 1:], row[1:])]
            v[k + 1:] = ([t * inverses[k] % p for t in terms] if p
                         else [t // divisors[k] for t in terms])
        if not v[n]:
            return 0 if p else n
        pivots.append(v[n])
        rows.append([v[n]])
    return r


def minpoly_degree(sym: IntMatrix) -> int:
    """Degree of the minimal polynomial of a symmetric integer matrix.

    This is its number of distinct eigenvalues, the rank of its power-sum
    Hankel matrix (see the module docstring). The count runs modulo P once
    the powers grow wide, and again exactly when that proves nothing.
    """
    if not sym.is_symmetric():
        raise MatrixError("minimal polynomial degree needs a symmetric matrix")
    return _hankel_rank(sym.entries, P) or _hankel_rank(sym.entries, None)


def depth_upper_bound(m: InclusionMatrix) -> int:
    """Spectral depth bound 2*d - 1, d = deg of the minimal polynomial of M M^t."""
    return 2 * minpoly_degree(m.gram) - 1
