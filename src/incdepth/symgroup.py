"""Symmetric-group inclusion matrices from the Young branching rule.

Irreducibles of S_n are labelled by partitions of n, each a plain tuple
of weakly decreasing positive parts (the empty tuple for n = 0).
Restriction to S_{n-1} removes one box from the Young diagram, so
induction adds one. Partitions of a given n are always listed in
descending lexicographic order ((3,) before (2, 1) before (1, 1, 1)),
which fixes the row and column order of every generated matrix. Depth
values do not depend on that choice (they are invariant under row/column
permutation).
"""

from __future__ import annotations

from .exactmat import InclusionMatrix


def _descending(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending lexicographic order.

    partitions(0) is the single empty partition, by convention.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"partitions need an integer n, got {n!r}")
    if n < 0:
        raise ValueError(f"partitions need n >= 0, got {n}")
    return tuple(_descending(n, n))


def branching_matrix(n: int) -> InclusionMatrix:
    """Inclusion matrix of S_{n-1} inside S_n.

    Rows are partitions of n-1, columns partitions of n; cell (i,j) is 1
    exactly when column j is row i with one box added. Entries are 0/1
    because the branching rule is multiplicity-free.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"branching matrix needs an integer n, got {n!r}")
    if n < 2:
        raise ValueError(f"branching matrix needs n >= 2, got {n}")
    col_index = {p: j for j, p in enumerate(partitions(n))}
    entries = []
    for p in partitions(n - 1):
        row = [0] * len(col_index)
        # a box goes at the end of any row shorter than the one above it,
        # or starts a new row
        for i, part in enumerate(p):
            if i == 0 or p[i - 1] > part:
                row[col_index[p[:i] + (part + 1,) + p[i + 1:]]] = 1
        row[col_index[p + (1,)]] = 1
        entries.append(row)
    return InclusionMatrix(entries)


def tower_matrix(k: int, n: int) -> InclusionMatrix:
    """Inclusion matrix of S_k inside S_n, the product of branching steps.

    Induction composes along the tower, so the matrix is
    branching_matrix(k+1) * ... * branching_matrix(n).
    """
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (k, n)):
        raise ValueError(f"tower needs integers k and n, got k={k!r}, n={n!r}")
    if k < 1 or n <= k:
        raise ValueError(f"tower needs 1 <= k < n, got k={k}, n={n}")
    product = branching_matrix(k + 1).matrix
    for step in range(k + 2, n + 1):
        product = product * branching_matrix(step).matrix
    return InclusionMatrix(product)
