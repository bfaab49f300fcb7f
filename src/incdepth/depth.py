"""Minimum depth and H-depth of inclusion matrices via bracketed powers.

For an r x s inclusion matrix M the bracketed powers are

    M^[0] = I_r,   M^[2n] = (M M^t)^n,   M^[2n+1] = (M M^t)^n M,

so M^[n+1] = M^[n] M^t for odd n and M^[n] M for even n. M has depth
n >= 1 when M^[n+1] <= q M^[n-1] entrywise for some positive integer q;
the least such n is the minimum depth d(M). H-depth lives on the
symmetric matrix S = M^t M: H-depth 2n-1 means S^n <= q S^{n-1} for some
positive integer q.

A valid inclusion matrix has no zero row and no zero column, so M M^t
and M^t M have strictly positive diagonals. Multiplying a nonnegative
matrix by a positive-diagonal matrix can only grow its support, hence
supp(M^[n-1]) is contained in supp(M^[n+1]) and the dominance inequality
holds for some q exactly when the two zero patterns coincide. The
searches below therefore run on boolean support matrices, whose cells
never grow, and exact big-integer powers are only computed afterwards to
extract the minimal witness q.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bigraph, charpoly
from .exactmat import IntMatrix, MatrixError, SupportMatrix, dominance_q

class InclusionMatrix:
    """Nonnegative integer matrix with no zero row and no zero column."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        for i, row in enumerate(matrix.entries):
            for j, e in enumerate(row):
                if e < 0:
                    raise MatrixError(f"negative entry {e} at ({i + 1},{j + 1})")
        for i, row in enumerate(matrix.entries):
            if not any(row):
                raise MatrixError(f"zero row {i + 1}", row=i)
        for j in range(matrix.cols):
            if not any(row[j] for row in matrix.entries):
                raise MatrixError(f"zero column {j + 1}")
        self.matrix = matrix

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    def transposed(self) -> "InclusionMatrix":
        return InclusionMatrix(self.matrix.transpose())

    def __eq__(self, other) -> bool:
        return isinstance(other, InclusionMatrix) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"InclusionMatrix({[list(r) for r in self.matrix.entries]!r})"


def bracketed_power(m: InclusionMatrix, n: int) -> IntMatrix:
    """Exact bracketed power M^[n]; r x r for even n, r x s for odd n."""
    if n < 0:
        raise MatrixError(f"bracketed power needs n >= 0, got {n}")
    mat = m.matrix
    power = None  # (M M^t)^(n // 2) by repeated squaring; None stands for I
    square = mat * mat.transpose() if n >= 2 else None
    k = n // 2
    while k:
        if k & 1:
            power = square if power is None else power * square
        k >>= 1
        if k:
            square = square * square
    if n % 2:
        return mat if power is None else power * mat
    return IntMatrix.identity(mat.rows) if power is None else power


def has_depth(m: InclusionMatrix, n: int) -> int | None:
    """Minimal witness q with M^[n+1] <= q M^[n-1], or None if M lacks depth n."""
    if n < 1:
        raise MatrixError(f"depth is defined for n >= 1, got {n}")
    low = bracketed_power(m, n - 1)
    gram = m.matrix * m.matrix.transpose()
    return dominance_q(gram * low, low)  # M^[n+1] = (M M^t) M^[n-1]


def _stabilize(factors: tuple[SupportMatrix, ...], gap: int) -> int:
    """Least n >= 1 with X_(n-1+gap) == X_(n-1) in the support chain

        X_0 = I,   X_(k+1) = X_k * factors[k % len(factors)].

    Supports in the chain only grow, and stabilize well below the cap (the
    spectral bound gives d <= 2*min(r,s) - 1); hitting it means a bug.
    """
    first = factors[0]
    cap = 2 * (first.rows + first.cols) + 2
    chain = [SupportMatrix.identity(first.rows)]
    for k in range(cap + gap - 1):
        chain.append(chain[-1] * factors[k % len(factors)])  # X_(k+1)
        if len(chain) > gap:
            if chain[-1] == chain[0]:
                return k + 2 - gap
            del chain[0]
    raise AssertionError("support stabilization exceeded its iteration cap")


def min_depth(m: InclusionMatrix) -> int:
    """Minimum depth d(M), the least n with supp(M^[n+1]) == supp(M^[n-1])."""
    supp = m.matrix.support()
    return _stabilize((supp, supp.transpose()), 2)


def min_hdepth(m: InclusionMatrix) -> int:
    """Minimum H-depth, the least odd 2n-1 with S^n <= q S^{n-1} for S = M^t M."""
    supp = m.matrix.support()
    return 2 * _stabilize((supp.transpose() * supp,), 1) - 1


def min_odd_depth_symmetric(sym: IntMatrix) -> int:
    """Minimum odd depth read off the symmetric bracketed square alone.

    For sym = M M^t, depth 2n+1 of M means sym^{n+1} <= q sym^n, and the
    strictly positive diagonal turns that into stabilization of the zero
    pattern; the answer is the same for every M with that bracketed square.
    """
    if not sym.is_square():
        raise MatrixError(f"expected a square matrix, got {sym.rows}x{sym.cols}")
    if not sym.is_symmetric():
        raise MatrixError("expected a symmetric matrix")
    for i in range(sym.rows):
        if sym.entries[i][i] <= 0:
            raise MatrixError(f"diagonal entry ({i + 1},{i + 1}) must be positive")
    return 2 * _stabilize((sym.support(),), 1) - 1


@dataclass(frozen=True)
class DepthReport:
    """Every depth invariant of one inclusion matrix, with cross-check flags."""

    rows: int
    cols: int
    depth: int
    depth_transpose: int
    h_depth: int
    min_odd_depth: int
    min_even_depth: int
    q_witness: int
    spectral_bound: int
    methods_agree: dict[str, bool]

    def all_methods_agree(self) -> bool:
        return all(self.methods_agree.values())


def depth_report(m: InclusionMatrix) -> DepthReport:
    """Compute d, d(M^t), H-depth, graph values, the spectral bound and witness q.

    The mutual inequalities between the invariants are theorems, so they are
    checked before the report is returned; a failure indicates a bug, not a
    bad input. Agreement between the matrix and graph methods, and the parity
    rule tying H-depth to d(M^t), are recorded as flags.
    """
    d = min_depth(m)
    d_t = min_depth(m.transposed())
    d_h = min_hdepth(m)
    graph = bigraph.build_graph(m)
    odd = bigraph.min_odd_depth_graph(graph)
    even = bigraph.min_even_depth_graph(graph)
    graph_h = bigraph.min_hdepth_graph(graph)
    bound = charpoly.depth_upper_bound(m)
    q = has_depth(m, d)
    # Explicit raises, not asserts, so the checks also run under python -O.
    for holds, message in (
        (q is not None, f"no dominance witness at minimum depth {d}"),
        (d >= 1 and d_h >= 1, f"depths must be positive: d={d}, d_H={d_h}"),
        (d_h % 2 == 1, f"H-depth must be odd: {d_h}"),
        (abs(d - d_h) <= 2, f"|d - d_H| > 2: d={d}, d_H={d_h}"),
        (abs(d_t - d) <= 1, f"|d(M^t) - d| > 1: d(M^t)={d_t}, d={d}"),
        (0 <= d_h - d_t <= 1, f"d_H - d(M^t) out of [0,1]: d_H={d_h}, d(M^t)={d_t}"),
        (d <= bound, f"d={d} exceeds spectral bound {bound}"),
    ):
        if not holds:
            raise AssertionError(message)
    return DepthReport(
        rows=m.rows,
        cols=m.cols,
        depth=d,
        depth_transpose=d_t,
        h_depth=d_h,
        min_odd_depth=odd,
        min_even_depth=even,
        q_witness=q,
        spectral_bound=bound,
        methods_agree={
            "graph_depth": d == min(odd, even),
            "graph_hdepth": d_h == graph_h,
            "transpose_parity": d_h == (d_t if d_t % 2 else d_t + 1),
        },
    )
