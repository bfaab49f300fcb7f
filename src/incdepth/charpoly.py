"""Exact characteristic polynomials and the minimal-polynomial depth bound.

char_poly works modulo one Mersenne prime P = 2^e - 1. Hadamard's
inequality on every principal minor bounds each coefficient of the
characteristic polynomial by B = prod_i (1 + |row_i|), so once P > 2B the
polynomial computed over F_P (Hessenberg reduction, O(n^3) operations)
lifts exactly to the integers through the residues in (-P/2, P/2).

For a symmetric integer matrix the minimal polynomial is the squarefree
part f / gcd(f, f') of the characteristic polynomial f (symmetric real
matrices are diagonalizable). The gcd is taken over F_P, lifted, and only
accepted when it divides f and f' exactly in Z[x]; see _squarefree_degree.
No step is probabilistic and every answer is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt, prod
from operator import mul

from .exactmat import InclusionMatrix, IntMatrix, MatrixError

# Exponents e of the Mersenne primes 2^e - 1, all proven prime.
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607,
                      1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213,
                      19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091)


class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        data = list(coeffs)
        for c in data:
            if not isinstance(c, int):
                raise MatrixError(f"non-integer coefficient: {c!r}")
        while data and data[-1] == 0:
            data.pop()
        self.coeffs = tuple(data)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def _exponents_above(m: IntMatrix) -> tuple[int, ...]:
    """Exponents of the Mersenne primes P > 2B, B = prod_i (2 + isqrt(|row_i|^2)).

    B bounds every coefficient of the characteristic polynomial of m and,
    for symmetric m, of every monic factor of it.
    """
    bound = prod(2 + isqrt(sum(x * x for x in row)) for row in m.entries)
    # 2^e - 1 > 2B exactly when e >= bit length of 2B + 1
    exponents = MERSENNE_EXPONENTS[bisect_left(MERSENNE_EXPONENTS,
                                               (2 * bound + 1).bit_length()):]
    if not exponents:
        raise MatrixError(f"characteristic polynomial coefficient bound of "
                          f"{bound.bit_length()} bits exceeds the largest prime modulus")
    return exponents


def _lift(coeffs, p: int) -> list[int]:
    """Residues mod the odd prime p as integers in (-p/2, p/2)."""
    half = p >> 1
    return [c - p if c > half else c for c in coeffs]


def _char_poly_mod(a, e: int) -> list[int]:
    """det(x*I - a) mod p = 2^e - 1, lowest degree first, by Hessenberg reduction.

    Each step moves a nonzero pivot to the subdiagonal and clears the cells
    below it with the similarity (row_i -= u_i row_c, then col_c += sum u_i
    col_i); the polynomial then follows from the Hessenberg recurrence.
    Cells stay below 2^(e+2) by folding z -> (z & p) + (z >> e) instead of
    dividing: with the pivot row fully reduced, x + v*y < 2^(e+2) + 2^(2e)
    folds once to below 2^(e+1) + 4, and a column sum of n such products
    folds twice to below 2^e + 4n + 2 (2^e > 2B >= 2^(n+1)). The pivot
    column is fully reduced, because its zero tests and inverse need the
    residues themselves.
    """
    p = (1 << e) - 1
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for j in range(n - 2):
        c = j + 1
        for row in h[c:]:
            row[j] %= p
        k = next((i for i in range(c, n) if h[i][j]), c)
        if k != c:
            h[k], h[c] = h[c], h[k]
            for row in h:
                row[k], row[c] = row[c], row[k]
        pivot = h[c]
        if not pivot[j]:
            continue
        neg_inv = p - pow(pivot[j], -1, p)
        tail = pivot[c:] = [x % p for x in pivot[c:]]
        us = [0] * (n - c - 1)
        for i in range(c + 1, n):
            row = h[i]
            if row[j]:
                v = row[j] * neg_inv % p  # -u_i
                us[i - c - 1] = p - v
                row[j] = 0
                row[c:] = [((z := x + v * y) & p) + (z >> e) for x, y in zip(row[c:], tail)]
        if any(us):
            for row in h:
                z = row[c] + sum(map(mul, us, row[c + 1:]))
                z = (z & p) + (z >> e)
                row[c] = (z & p) + (z >> e)
    # p_k = (x - h_kk) p_(k-1) - sum_i h_ik (h_(i+1,i) ... h_(k,k-1)) p_(i-1)
    polys = [[1]]
    for k in range(n):
        prev = polys[-1]
        diag = h[k][k]
        new = [hi - diag * lo for hi, lo in zip([0, *prev], [*prev, 0])]
        chain = 1
        for i in range(k, 0, -1):
            chain = chain * h[i][i - 1] % p
            if not chain:
                break
            scale = h[i - 1][k] * chain % p
            if scale:
                low = polys[i - 1]
                new[:len(low)] = [x - scale * v for x, v in zip(new, low)]
        polys.append([x % p for x in new])
    return polys[-1]


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(x*I - m), monic, exact.

    Computed modulo the least Mersenne prime P above twice the Hadamard
    bound B of its coefficients and lifted to (-P/2, P/2), which is exact.
    """
    if not m.is_square():
        raise MatrixError(
            f"characteristic polynomial needs a square matrix, got {m.rows}x{m.cols}")
    return _char_poly(m, _exponents_above(m)[0])


def _char_poly(m: IntMatrix, e: int) -> IntPolynomial:
    """char_poly of m computed modulo 2^e - 1, which must exceed twice its bound."""
    return IntPolynomial(_lift(_char_poly_mod(m.entries, e), (1 << e) - 1))


def _rem(f: list[int], g: list[int], p: int | None = None) -> list[int]:
    """Remainder of f by the monic g, lowest degree first, trailing zeros trimmed.

    Exact over Z[x] when p is None, otherwise reduced mod p.
    """
    r = list(f)
    dg = len(g) - 1
    while len(r) > dg:
        lead = r.pop()
        if lead:
            base = len(r) - dg
            if p is None:
                r[base:] = [x - lead * y for x, y in zip(r[base:], g)]
            else:
                r[base:] = [(x - lead * y) % p for x, y in zip(r[base:], g)]
    while r and not r[-1]:
        r.pop()
    return r


def _squarefree_degree(f: IntPolynomial, exponents) -> int:
    """deg f - deg gcd(f, f') over Q[x] for a monic f, certified exactly.

    For each Mersenne prime P = 2^e - 1 in turn, the monic gcd over F_P is
    lifted to a monic h in Z[x]. Reduction mod P can only enlarge the gcd
    (f is monic and P > deg f keeps f' nonzero), and h dividing f and f'
    exactly in Z[x] proves the converse, so the first h that divides both
    has the true degree. A P where the gcd grows is rejected and the next
    is tried.
    """
    df = f.derivative().coeffs
    for e in exponents:
        p = (1 << e) - 1
        a, b = [c % p for c in f.coeffs], [c % p for c in df]
        while b:
            inv = pow(b[-1], -1, p)
            monic = [c * inv % p for c in b]
            a, b = monic, _rem(a, monic, p)
        h = _lift(a, p)
        if not _rem(f.coeffs, h) and not _rem(df, h):
            return f.degree - (len(h) - 1)
    raise AssertionError("no Mersenne prime certified gcd(f, f')")


def minpoly_degree(sym: IntMatrix) -> int:
    """Degree of the minimal polynomial of a symmetric integer matrix.

    Equals the number of distinct eigenvalues: p / gcd(p, p') is the
    squarefree part of the characteristic polynomial p, and symmetry makes
    the matrix diagonalizable so the squarefree part is the minimal
    polynomial. Every monic factor of p has coefficients at most
    prod(1 + |eigenvalue|) = det(I + |sym|) <= B, so on any prime P > 2B
    where the gcd does not grow the lift is exact and the certificate holds.
    """
    if not sym.is_symmetric():
        raise MatrixError("minimal polynomial degree needs a symmetric matrix")
    exponents = _exponents_above(sym)
    return _squarefree_degree(_char_poly(sym, exponents[0]), exponents)


def depth_upper_bound(m: InclusionMatrix) -> int:
    """Spectral depth bound 2*d - 1, d = deg of the minimal polynomial of M M^t."""
    return 2 * minpoly_degree(m.gram) - 1
