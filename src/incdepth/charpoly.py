"""Exact characteristic polynomials and the minimal-polynomial depth bound.

char_poly uses the Berkowitz scheme: only ring operations on big integers,
no division, so the result is exact for any entry size. For a symmetric
integer matrix the minimal polynomial is the squarefree part of the
characteristic polynomial (symmetric real matrices are diagonalizable),
so its degree falls out of a polynomial gcd over Z[x] computed with a
primitive-part-normalized pseudo-remainder sequence.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from .exactmat import IntMatrix, MatrixError

if TYPE_CHECKING:
    from .depth import InclusionMatrix


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


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(x*I - m), monic, exact.

    Berkowitz recursion over trailing principal submatrices: the coefficient
    vector of each submatrix is pushed through a lower-triangular Toeplitz
    transform whose column is [1, -a, -R C, -R A C, -R A^2 C, ...].
    """
    if not m.is_square():
        raise MatrixError(
            f"characteristic polynomial needs a square matrix, got {m.rows}x{m.cols}")
    a = m.entries
    n = m.rows
    poly = [1]  # charpoly of the empty trailing submatrix, highest degree first
    for i in range(n - 1, -1, -1):
        size = n - i - 1  # trailing block below/right of position i
        row = a[i][i + 1:]
        col = [a[j][i] for j in range(i + 1, n)]
        toep = [1, -a[i][i]]
        vec = list(col)
        for _ in range(size):
            toep.append(-sum(r * v for r, v in zip(row, vec)))
            vec = [sum(a[p][q] * vec[q - i - 1] for q in range(i + 1, n))
                   for p in range(i + 1, n)]
        new = [0] * (len(poly) + 1)
        for idx in range(len(new)):
            acc = 0
            for k in range(max(0, idx - len(toep) + 1), min(idx, len(poly) - 1) + 1):
                acc += toep[idx - k] * poly[k]
            new[idx] = acc
        poly = new
    return IntPolynomial(list(reversed(poly)))


def _content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g


def _primitive(coeffs) -> list[int]:
    """Divide out the content and make the leading coefficient positive."""
    data = list(coeffs)
    while data and data[-1] == 0:
        data.pop()
    if not data:
        return []
    g = _content(data)
    data = [c // g for c in data]
    if data[-1] < 0:
        data = [-c for c in data]
    return data


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    # scale-and-subtract elimination; scalar factors are irrelevant because
    # the caller takes primitive parts
    r = list(f)
    dg = len(g) - 1
    lead_g = g[-1]
    while r and len(r) - 1 >= dg:
        shift = len(r) - 1 - dg
        lead_r = r[-1]
        r = [c * lead_g for c in r]
        for k, c in enumerate(g):
            r[k + shift] -= lead_r * c
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z[x], leading coefficient positive."""
    a = _primitive(f.coeffs)
    b = _primitive(g.coeffs)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return IntPolynomial(a)


def minpoly_degree(sym: IntMatrix) -> int:
    """Degree of the minimal polynomial of a symmetric integer matrix.

    Equals the number of distinct eigenvalues: p / gcd(p, p') is the
    squarefree part of the characteristic polynomial p, and symmetry makes
    the matrix diagonalizable so the squarefree part is the minimal
    polynomial.
    """
    if not sym.is_symmetric():
        raise MatrixError("minimal polynomial degree needs a symmetric matrix")
    p = char_poly(sym)
    return p.degree - poly_gcd(p, p.derivative()).degree


def depth_upper_bound(m: "InclusionMatrix") -> int:
    """Spectral depth bound 2*d - 1, d = deg of the minimal polynomial of M M^t."""
    gram = m.matrix * m.matrix.transpose()
    return 2 * minpoly_degree(gram) - 1
