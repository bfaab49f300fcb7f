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
searches below therefore run on supports, tuples of row bitsets whose
set bits never clear, and exact big-integer powers are only computed
afterwards to extract the minimal witness q. They read the one walk of
supp(M) that the InclusionMatrix keeps. The two chains of a d(M) search,
from I and from supp(M), share one int per row, so one OR steps both.
S^n = (M^t M)^n = M^t M^[2n-1], so the same search also forms supp(S^n),
one OR per edge of M over the start halves it holds, and a report reads
d, d(M^t) and d_H off the settle steps of that one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from . import bigraph, charpoly
from .exactmat import InclusionMatrix, IntMatrix, MatrixError, set_bits


def _select_or(picks, rows) -> list[int]:
    """The boolean product A X as row bitsets: row i ORs the rows of X
    that the set bits of row i of A select, listed in picks[i]."""
    out = []
    for pick in picks:
        acc = 0
        for j in pick:
            acc |= rows[j]
        out.append(acc)
    return out


def _plan(g):
    """The plan of a square support g that _stabilize steps by: each row's
    position among the distinct rows of g, and the set bits of each of them."""
    distinct = {}  # row of g -> its position among the distinct rows
    for mask in g:
        distinct.setdefault(mask, len(distinct))
    return [distinct[mask] for mask in g], list(map(set_bits, distinct))


def _stabilize(plan, start=None, cols=None) -> int | tuple[int, int, int]:
    """Step the support chain from I by g until it stabilizes; return the depth.

    With no start, the chain I, g, g^2, ... of a square support g with a
    full diagonal gives the least odd 2n-1 with supp(g^n) == supp(g^(n-1)).
    With start = supp(M), g = supp(M M^t) and cols the column lists of M,
    the chains from I and start step together, since M^[n+1] = (M M^t)
    M^[n-1], and give (d(M), d(M^t), d_H). The two chains share one int per
    row, the I chain's row in bits 0..r-1 and start's above it, so one OR
    per pick steps both and the halves never mix. Step n forms M^[2n] in
    the low halves and M^[2n+1] in the high ones, and before it ORs the
    rows that each column list selects, whose high halves are then
    supp(S^n) = supp(M^t M^[2n-1]) for S = M^t M. Each chain settles at
    the first step where no row moves: n_G for the low halves, n_E for the
    high ones and n_S for the S rows. Then d(M) = min(2 n_G - 1, 2 n_E); the
    walk read the other way has M^t's bracketed powers S^n and M S^n =
    M^[2n+1], so d(M^t) = min(2 n_S - 1, 2 n_E), and d_H = 2 n_S - 1. The
    search stops once n_S and one of n_G, n_E are known. Once every S row
    is full, S^(n+1) = S^n with no ORs, since supports only grow.

    plan is _plan(g): the sparse g sits on the left, and the set bits of
    each distinct row of g are found once, so a step costs one OR per set
    bit of each distinct row, however full the power has grown, and equal
    rows of g share their row of the next power. Supports only grow, and
    stabilize well below the cap (the spectral bound gives d <= 2*min(r,s)
    - 1); hitting it means a bug.
    """
    spread, picks = plan
    r = len(spread)
    low = (1 << r) - 1  # the I chain's half of a row
    if start is None:
        rows = [1 << i for i in range(r)]
    else:
        rows = [1 << i | row << r for i, row in enumerate(start)]
        powers = [1 << w << r for w in range(len(cols))]  # S^0 = I, in high halves
        full = (1 << len(cols)) - 1 << r  # an S row is full when its int is at least this
    n_g = n_e = n_s = inf  # the settle steps, while unknown
    # the cap is 2 * (r + bits(start or I)) + 4 levels, two levels a step
    for n in range(1, r + max(start or rows).bit_length() + 3):
        if start is not None and n_s == inf:
            if min(powers) >= full:  # full rows cannot grow
                n_s = n
            else:
                derived = _select_or(cols, rows)
                if not any(a ^ b > low for a, b in zip(derived, powers)):
                    n_s = n
                powers = derived
        if n_s < inf and min(n_g, n_e) < inf:
            return min(2 * n_g - 1, 2 * n_e), min(2 * n_s - 1, 2 * n_e), 2 * n_s - 1
        grown = list(map(_select_or(picks, rows).__getitem__, spread))
        if start is None:
            if grown == rows:
                return 2 * n - 1
        else:
            if n_g == inf and not any((a ^ b) & low for a, b in zip(grown, rows)):
                n_g = n
            if n_e == inf and not any(a ^ b > low for a, b in zip(grown, rows)):
                n_e = n
        rows = grown
    raise AssertionError("support stabilization exceeded its iteration cap")


def _support_depths(m: InclusionMatrix) -> tuple[int, int, int]:
    """(d(M), d(M^t), d_H) from one search of the walk of supp(M)."""
    return _stabilize(_plan(_select_or(m.row_bits, m.supp_t)), m.support, m.col_bits)


def min_depth(m: InclusionMatrix) -> int:
    """Minimum depth d(M), the least n with supp(M^[n+1]) == supp(M^[n-1])."""
    return _support_depths(m)[0]


def min_hdepth(m: InclusionMatrix) -> int:
    """Minimum H-depth, the least odd 2n-1 with S^n <= q S^{n-1} for S = M^t M."""
    return _stabilize(_plan(_select_or(m.col_bits, m.support)))


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
    return _stabilize(_plan(sym.support()))


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


def inequalities(d: int, d_t: int, d_h: int, bound: int) -> list[tuple[str, bool, str]]:
    """(name, holds, detail) for each theorem tying d, d(M^t), d_H and the bound.

    The first, -2 <= d - d_H <= 1, is the sharp range that the next two give:
    d(M^t) - d is in [-1, 1] and d_H - d(M^t) in [0, 1].
    """
    return [
        ("-2 <= d - d_H <= 1", -2 <= d - d_h <= 1, f"d={d} d_H={d_h}"),
        ("|d(Mt) - d(M)| <= 1", abs(d_t - d) <= 1, f"d(Mt)={d_t} d={d}"),
        ("0 <= d_H - d(Mt) <= 1", 0 <= d_h - d_t <= 1, f"d_H={d_h} d(Mt)={d_t}"),
        ("d <= spectral bound", d <= bound, f"d={d} bound={bound}"),
        ("d_H is odd", d_h % 2 == 1, f"d_H={d_h}"),
    ]


def depth_report(m: InclusionMatrix) -> DepthReport:
    """Compute d, d(M^t), H-depth, graph values, the spectral bound and witness q.

    The mutual inequalities between the invariants are theorems, so they are
    checked before the report is returned; a failure indicates a bug, not a
    bad input. Agreement between the matrix and graph methods, and the parity
    rule tying H-depth to d(M^t), are recorded as flags.
    """
    # One search of the walk of supp(M) steps the chains of M^[n] and, from
    # their start halves, supp(S^n) for S = M^t M; the parity flag compares
    # the settle steps of the start halves and the S rows
    d, d_t, d_h = _support_depths(m)
    graph = bigraph.build_graph(m)
    odd = bigraph.min_odd_depth_graph(graph)
    even = bigraph.min_even_depth_graph(graph)
    graph_h = bigraph.min_hdepth_graph(graph)
    bound, q = charpoly.bound_and_witness(m, d)
    # Explicit raises, not asserts, so the checks also run under python -O.
    # q is None only when d exceeds the bound, so the inequalities come first.
    for name, holds, detail in inequalities(d, d_t, d_h, bound):
        if not holds:
            raise AssertionError(f"{name} fails ({detail})")
    if q is None:
        raise AssertionError(f"no dominance witness at minimum depth {d}")
    if d < 1 or d_h < 1:
        raise AssertionError(f"depths must be positive: d={d}, d_H={d_h}")
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
