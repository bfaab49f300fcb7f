"""Symmetric-group inclusion matrices from the Young branching rule.

Irreducibles of S_n are labelled by partitions of n; restriction to
S_{n-1} removes one box from the Young diagram, so induction adds one.
Partitions of a given n are always listed in descending lexicographic
order ([3] before [2,1] before [1,1,1]), which fixes the row and column
order of every generated matrix. Depth values do not depend on that
choice (they are invariant under row/column permutation).
"""

from __future__ import annotations

from .exactmat import InclusionMatrix


class Partition:
    """Weakly decreasing positive parts; the empty partition has n = 0."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        data = tuple(parts)
        for i, p in enumerate(data):
            if not isinstance(p, int):
                raise ValueError(f"part {i + 1} is not an integer: {p!r}")
            if p < 1:
                raise ValueError(f"part {i + 1} is not positive: {p}")
            if i and data[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {data}")
        self.parts = data

    @property
    def n(self) -> int:
        return sum(self.parts)

    def with_box_added(self) -> tuple["Partition", ...]:
        """All partitions reachable by adding a single box."""
        out = []
        for i, p in enumerate(self.parts):
            if i == 0 or self.parts[i - 1] > p:
                out.append(Partition(self.parts[:i] + (p + 1,) + self.parts[i + 1:]))
        out.append(Partition(self.parts + (1,)))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def _descending(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order.

    partitions(0) is the single empty partition, by convention.
    """
    if n < 0:
        raise ValueError(f"partitions need n >= 0, got {n}")
    if n == 0:
        return (Partition(()),)
    return tuple(Partition(p) for p in _descending(n, n))


def branching_matrix(n: int) -> InclusionMatrix:
    """Inclusion matrix of S_{n-1} inside S_n.

    Rows are partitions of n-1, columns partitions of n; cell (i,j) is 1
    exactly when column j is row i with one box added. Entries are 0/1
    because the branching rule is multiplicity-free.
    """
    if n < 2:
        raise ValueError(f"branching matrix needs n >= 2, got {n}")
    row_parts = partitions(n - 1)
    col_index = {p.parts: j for j, p in enumerate(partitions(n))}
    entries = []
    for p in row_parts:
        row = [0] * len(col_index)
        for q in p.with_box_added():
            row[col_index[q.parts]] = 1
        entries.append(row)
    return InclusionMatrix(entries)


def tower_matrix(k: int, n: int) -> InclusionMatrix:
    """Inclusion matrix of S_k inside S_n, the product of branching steps.

    Induction composes along the tower, so the matrix is
    branching_matrix(k+1) * ... * branching_matrix(n).
    """
    if k < 1 or n <= k:
        raise ValueError(f"tower needs 1 <= k < n, got k={k}, n={n}")
    product = branching_matrix(k + 1).matrix
    for step in range(k + 2, n + 1):
        product = product * branching_matrix(step).matrix
    return InclusionMatrix(product)
