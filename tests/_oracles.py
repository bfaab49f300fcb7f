"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
naive triple-loop products instead of IntMatrix.__mul__ where the product
itself is under test, cofactor determinants instead of the Berkowitz
scheme, direct big-integer dominance scans instead of boolean support
stabilization, and a counting recurrence instead of the partition
generator.
"""

from functools import cache

from incdepth import (InclusionMatrix, IntMatrix, bracketed_power,
                      dominance_q, minpoly_degree)


def naive_multiply(a, b):
    """Triple-loop product of two list-of-list integer matrices."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def naive_bracketed_powers(m: InclusionMatrix, top: int) -> list[IntMatrix]:
    """M^[0], ..., M^[top], each one naive product on from the one before."""
    cells = [list(r) for r in m.matrix.entries]
    factors = (cells, [list(c) for c in zip(*cells)])
    power = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    powers = [IntMatrix(power)]
    for n in range(top):
        power = naive_multiply(power, factors[n % 2])
        powers.append(IntMatrix(power))
    return powers


def zero_count(m: IntMatrix) -> int:
    """Number of entries of m equal to zero."""
    return sum(1 for row in m.entries for e in row if e == 0)


def support_as_int_matrix(s) -> IntMatrix:
    """The 0/1 matrix with the zero pattern of a SupportMatrix."""
    return IntMatrix([[1 if b else 0 for b in row] for row in s.bits])


def poly_at_matrix(p, m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule, adding each coefficient on the diagonal."""
    acc = IntMatrix.identity(m.rows) * 0
    for c in reversed(p.coeffs):
        cells = [list(row) for row in (acc * m).entries]
        for i in range(m.rows):
            cells[i][i] += c
        acc = IntMatrix(cells)
    return acc


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def char_poly_value(m: IntMatrix, t: int) -> int:
    """det(t*I - m) via cofactor expansion; independent of char_poly."""
    rows = [[(t if i == j else 0) - m.entries[i][j] for j in range(m.cols)]
            for i in range(m.rows)]
    return det_cofactor(rows)


def min_depth_exact(m: InclusionMatrix, cap: int) -> int:
    """Least n with a dominance witness, by exact big-integer powers."""
    for n in range(1, cap + 1):
        if dominance_q(bracketed_power(m, n + 1), bracketed_power(m, n - 1)) is not None:
            return n
    raise AssertionError(f"no depth found up to {cap}")


def min_hdepth_exact(m: InclusionMatrix) -> int:
    """Least odd 2n-1 with S^n <= q S^{n-1}, by exact big-integer powers."""
    s = m.matrix.transpose() * m.matrix
    cap = minpoly_degree(s) + 1
    power_prev = IntMatrix.identity(s.rows)
    for n in range(1, cap + 1):
        power = power_prev * s
        if dominance_q(power, power_prev) is not None:
            return 2 * n - 1
        power_prev = power
    raise AssertionError(f"no H-depth found up to 2*{cap}-1")


@cache
def count_partitions(n: int, max_part: int | None = None) -> int:
    """Number of partitions of n, by the max-part recurrence."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(count_partitions(n - first, first)
               for first in range(1, min(n, max_part) + 1))


def _remove_boxes(parts):
    out = []
    k = len(parts)
    for i in range(k):
        if i == k - 1 or parts[i] > parts[i + 1]:
            new = list(parts)
            new[i] -= 1
            if new[i] == 0:
                new.pop(i)
            out.append(tuple(new))
    return out


@cache
def dim_irreducible(parts: tuple) -> int:
    """Dimension of the symmetric-group irreducible, by recursive box removal."""
    if sum(parts) <= 1:
        return 1
    return sum(dim_irreducible(q) for q in _remove_boxes(parts))


def random_inclusion(rng, max_dim=6, max_entry=3) -> InclusionMatrix:
    """Random valid inclusion matrix; zero rows/columns are patched, not resampled."""
    r = rng.randint(1, max_dim)
    s = rng.randint(1, max_dim)
    cells = [[rng.randint(0, max_entry) for _ in range(s)] for _ in range(r)]
    for i in range(r):
        if not any(cells[i]):
            cells[i][rng.randrange(s)] = rng.randint(1, max_entry)
    for j in range(s):
        if not any(cells[i][j] for i in range(r)):
            cells[rng.randrange(r)][j] = rng.randint(1, max_entry)
    return InclusionMatrix(cells)


def all_binary_inclusions(max_rows: int, max_cols: int):
    """Every valid 0/1 inclusion matrix with r <= max_rows, s <= max_cols."""
    for r in range(1, max_rows + 1):
        for s in range(1, max_cols + 1):
            for mask in range(1 << (r * s)):
                cells = [[(mask >> (i * s + j)) & 1 for j in range(s)]
                         for i in range(r)]
                if any(not any(row) for row in cells):
                    continue
                if any(not any(row[j] for row in cells) for j in range(s)):
                    continue
                yield InclusionMatrix(cells)
