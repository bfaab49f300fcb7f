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
SWITCH = 2^127. From the first power with a wider entry on, the chain, G
itself and the elimination are reduced modulo the prime P = 2^27 - 79. A
minor that is nonzero mod P is nonzero, so r nonzero pivots prove k = r
(k <= r). A minor that vanishes mod P may not vanish over Z, so then the
count is redone without reduction. No step is probabilistic and every
answer is exact. P is word-sized so that every product after the switch
packs machine words: exactmat._product's slot bound for it, bits(r) + 27 +
27, is at most 64 bits for r < 1024.

A depth report also takes the exact pair G^(a-1), G^a from this chain,
for the witness q of depth 2a-1 or 2a; the chain then stays exact through
G^a, and forms G^r after its last Hankel row when a = r.
"""

from __future__ import annotations

from operator import mul

from .exactmat import (InclusionMatrix, IntMatrix, MatrixError, dominance_q,
                       signed_product)

SWITCH = 1 << 127  # the chain turns modular at the first entry this wide
# The largest prime below 2^27 that is 1 mod 3: a product of two r x r
# matrices reduced by it has a slot bound of bits(r) + 54 <= 64 bits for
# r < 1024, and F_P has the cube roots of unity the tests build a zero pivot from.
P = (1 << 27) - 79


def _inner(a, b) -> int:
    """Frobenius product sum_ij a_ij b_ij of two row-major matrices."""
    return sum(sum(map(mul, x, y)) for x, y in zip(a, b))


def _hankel_rank(g, modulus: int | None, exact: int = 0):
    """(N, powers) for the symmetric rows g of G.

    N is the least N with det H_(N+1) = 0, or 0 if unproven. powers is the
    exact pair (G^(exact-1), G^exact) once the chain has formed G^exact,
    which it does whenever 1 <= exact <= N, and None otherwise.

    With a modulus, g, the chain and the elimination are reduced by it from
    the first power after G^exact with an entry of SWITCH or more on; a
    pivot that vanishes after that proves nothing, and N is 0. A word-sized
    modulus keeps every later product on _product's one-word slots.
    """
    r = len(g)
    p = None  # the modulus, once the chain has reached SWITCH
    low, power = [[int(i == j) for j in range(r)] for i in range(r)], g  # G^(n-1), G^n
    powers = None
    sums = [r]  # s_0, s_1, ..., s_(2n)
    pivots = [r]  # det H_1, ..., det H_n
    rows = [[r]]  # rows[k][j - k]: entry (k, j) of H after k elimination steps
    inverses = []  # of the divisors 1, det H_1, det H_2, ... mod p
    # Steps 1..r-1 add Hankel rows; det H_(r+1) = 0 always, so step r only
    # forms G^r, when it is asked for.
    for n in range(1, max(r, exact + 1)):
        if n > 1:
            low = power
            # G^(n-1) is symmetric, so its rows are also its columns
            power = signed_product(g, low)
        if n == exact:
            powers = low, power
        if n == r:
            break
        if (modulus and not p and n > exact
                and max(max(map(max, power)), -min(map(min, power))) >= SWITCH):
            p = modulus
            g = [[x % p for x in row] for row in g]
            sums = [s % p for s in sums]
            pivots = [x % p for x in pivots]
            rows = [[x % p for x in row] for row in rows]
            if not all(pivots):
                return 0, powers
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
            return (0 if p else n), powers
        pivots.append(v[n])
        rows.append([v[n]])
    return r, powers


def _count(g, exact: int = 0):
    """_hankel_rank(g, P, exact), rerun without reduction when it proves nothing."""
    counted = _hankel_rank(g, P, exact)
    return counted if counted[0] else _hankel_rank(g, None, exact)


def minpoly_degree(sym: IntMatrix) -> int:
    """Degree of the minimal polynomial of a symmetric integer matrix.

    This is its number of distinct eigenvalues, the rank of its power-sum
    Hankel matrix (see the module docstring). The count runs modulo P once
    the powers grow wide, and again exactly when that proves nothing.
    """
    if not sym.is_symmetric():
        raise MatrixError("minimal polynomial degree needs a symmetric matrix")
    return _count(sym.entries)[0]


def depth_upper_bound(m: InclusionMatrix) -> int:
    """Spectral depth bound 2*d - 1, d = deg of the minimal polynomial of M M^t."""
    return 2 * minpoly_degree(m.gram) - 1


def bound_and_witness(m: InclusionMatrix, d: int):
    """depth_upper_bound(m) and the minimal witness q of depth d >= 1.

    With G = M M^t and a = (d + 1) // 2, M^[d-1] and M^[d+1] are G^(a-1)
    and G^a, times M for even d. The chain that counts the distinct
    eigenvalues stays exact through G^a and hands those two powers over.
    q is has_depth(m, d) whenever d is within the bound; past the bound the
    chain may stop short of G^a, and q is None.
    """
    k, powers = _count(m.gram.entries, (d + 1) // 2)
    if powers is None:
        return 2 * k - 1, None
    low, high = map(IntMatrix, powers)
    if d % 2 == 0:
        low, high = low * m.matrix, high * m.matrix
    return 2 * k - 1, dominance_q(high, low)
