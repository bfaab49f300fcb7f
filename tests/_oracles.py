"""Independent brute-force oracles shared by the test modules.

Everything here but minpoly_degree, which wraps the program's own count,
tower_closed_forms and chain_widths, which restate the program's own
output and slot rule, and even_witness_pair, which multiplies by the
program's one-shot product, deliberately avoids the code paths it is
used to check: naive triple-loop
products instead of IntMatrix.__mul__ where the product itself is under
test or an operand is signed, Gram powers by plain sums of products
instead of the chain's carried packed rows, the least dominance witness
by trying every q, the characteristic polynomial (cofactor
determinants and the division-free Berkowitz scheme) and the degree of its
squarefree part by a primitive remainder sequence over Z[x] instead of the
rank of the power-sum Hankel matrix that charpoly counts, direct
big-integer dominance scans instead of boolean support stabilization,
the Krylov dimension by list elimination instead of packed rows,
the Frobenius product over every cell instead of twice the upper
triangle less the diagonal, the even-depth witness pair by whole plain
powers times M instead of sums of the chain's packed rows,
bracketed powers by repeated squaring instead of the report's Gram-power
chain, support chains that multiply the growing power on the right by a
bit test on every column instead of on the left by walking set bits,
graph distances by one queue-driven BFS per dot and diameters over every
pair of dots instead of the bit-parallel BFS from all dots at once, the
even graph depth over merged classes of black dots instead of
black-to-white distances, two counting recurrences instead of the
partition generator, the closed-form spectrum of M M^t on
symmetric-group towers instead of the Hankel count, and the paper's
small depths (d = 1, d_H = 1, d <= 2, d_H <= 3) read off the entries
instead of support chains.
"""

import random
from collections import deque
from functools import cache, reduce
from itertools import combinations_with_replacement
from math import factorial, gcd
from operator import mul, or_

from incdepth import (BipartiteGraph, InclusionMatrix, IntMatrix, MatrixError,
                      charpoly, dominance_q)
from incdepth.exactmat import product


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


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    if n < 1:
        raise MatrixError("identity size must be positive")
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def naive_multiply(a, b):
    """Triple-loop product of two list-of-list integer matrices."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def naive_powers(g, top: int) -> list[list[list[int]]]:
    """I, G, ..., G^top: entry (i, j) of G^n sums g_ik times entry (k, j) of
    G^(n-1) over the nonzero g_ik, one plain product on from the one before."""
    r = len(g)
    nonzero = [[(k, x) for k, x in enumerate(row) if x] for row in g]
    powers = [[[int(i == j) for j in range(r)] for i in range(r)]]
    for _ in range(top):
        low = powers[-1]
        powers.append([[sum(x * low[k][j] for k, x in terms) for j in range(r)]
                       for terms in nonzero])
    return powers


def chain_widths(g, powers, whole: int) -> list[int]:
    """The slot width in bytes of each product G^n = G G^(n-1), n >= 2, that
    exactmat.symmetric_powers takes to form powers[2:] when it reads the
    triangles of its powers from step whole = t // 2 + 1 on, read off the
    plain powers I, G, G^2, ...: bits(r) + bits(max G) + bits(h), where
    h is max G^(n-1) when the chain unpacks G^(n-1) (n - 1 < 2 or
    n - 1 >= whole) or n - 1 is even, and else h for G^(n-2) times the
    largest row sum of G. Word slots up to 64 bits, whole bytes past that,
    and a width never narrows."""
    head = len(g).bit_length() + max(map(max, g)).bit_length()
    row_sum = max(map(sum, g))
    widths, high = [], 0
    for m, power in enumerate(powers[1:-1], 1):
        high = max(map(max, power)) if m < 2 or m >= whole or m % 2 == 0 else high * row_sum
        bits = head + high.bit_length()
        widths.append(max(widths[-1:] + [8 if bits <= 64 else (bits + 7) // 8]))
    return widths


def upper_cells(power) -> tuple[int, ...]:
    """The upper triangle of a square matrix as one flat tuple: row i from
    column i on, rows back to back."""
    return tuple([x for i, row in enumerate(power) for x in row[i:]])


def even_witness_pair(m: InclusionMatrix, a: int) -> list[list[int]]:
    """The cells of M^t G^(a-1) and M^t G^a, row after row, for G = M M^t
    and a >= 1: the transposes of G^(a-1) M and G^a M, each the plain power
    (naive_powers), whole, times M by exactmat.product, as a report once
    formed them, instead of sums of the chain's packed rows."""
    cells = [list(row) for row in m.matrix.entries]
    powers = naive_powers(naive_multiply(cells, [list(col) for col in zip(*cells)]), a)
    return [[x for col in zip(*product(power, cells)) for x in col] for power in powers[a - 1:]]


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


def bracketed_power(m: InclusionMatrix, n: int) -> IntMatrix:
    """Exact bracketed power M^[n]; r x r for even n, r x s for odd n."""
    if n < 0:
        raise MatrixError(f"bracketed power needs n >= 0, got {n}")
    mat = m.matrix
    power = None  # (M M^t)^(n // 2) by repeated squaring; None stands for I
    square = m.gram if n >= 2 else None
    k = n // 2
    while k:
        if k & 1:
            power = square if power is None else power * square
        k >>= 1
        if k:
            square = square * square
    if n % 2:
        return mat if power is None else power * mat
    return identity(mat.rows) if power is None else power


def has_depth(m: InclusionMatrix, n: int) -> int | None:
    """Minimal witness q with M^[n+1] <= q M^[n-1], or None if M lacks depth n."""
    if n < 1:
        raise MatrixError(f"depth is defined for n >= 1, got {n}")
    low = bracketed_power(m, n - 1)
    return dominance_q(m.gram * low, low)  # M^[n+1] = (M M^t) M^[n-1]


def _supports(lines) -> list[frozenset]:
    """The nonzero positions of each line of entries, as a set."""
    return [frozenset(j for j, x in enumerate(line) if x) for line in lines]


# The four small-depth facts below read only the entries of an inclusion
# matrix M. Each follows from the support criterion: depth n holds when
# supp(M^[n+1]) = supp(M^[n-1]), and H-depth 2n - 1 when
# supp(S^n) = supp(S^(n-1)) for S = M^t M. Each was checked against
# min_depth or min_hdepth on 4,000 seeded matrices up to 7x7, every 0/1
# inclusion matrix up to 3x4 and every tower S_k <= S_n with n <= 16 and
# its transpose, and against depth_report on a 600x800 block-diagonal
# matrix and two seeded 200x260 ones (test_depth.TestSmallDepths).

def depth_is_one(cells) -> bool:
    """d(M) = 1 exactly when no column has two nonzero entries: depth 1 asks
    supp(M M^t) = supp(I), and entry (i, k) of M M^t is nonzero exactly when
    rows i and k share a column."""
    return all(len(col) == 1 for col in _supports(zip(*cells)))


def hdepth_is_one(cells) -> bool:
    """d_H(M) = 1 exactly when no row has two nonzero entries: H-depth 1 asks
    supp(S) = supp(I), and entry (j, l) of S is nonzero exactly when columns
    j and l share a row."""
    return all(len(row) == 1 for row in _supports(cells))


def depth_at_most_two(cells) -> bool:
    """d(M) <= 2 exactly when rows that share a column have equal supports.

    Depth 2 asks supp(M M^t M) = supp(M), and entry (i, j) of M M^t M is
    nonzero exactly when some row k that shares a column with row i has
    entry j nonzero: so supp(k) lies in supp(i), and the other way round.
    Depth 1, where no two rows share a column, implies it.
    """
    rows = _supports(cells)
    return all(rows[i] == rows[k] for col in _supports(zip(*cells)) for i in col for k in col)


def hdepth_at_most_three(cells) -> bool:
    """d_H(M) <= 3 exactly when "shares a row with" is transitive on the columns.

    H-depth 3 asks supp(S^2) = supp(S): entry (j, l) of S^2 is nonzero
    exactly when some column shares a row with both j and l. H-depth 1,
    where a column shares a row only with itself, implies it.
    """
    rows, cols = _supports(cells), _supports(zip(*cells))
    linked = [frozenset().union(*(rows[i] for i in col)) for col in cols]
    return all(linked[l] <= linked[j] for j, near in enumerate(linked) for l in near)


def minpoly_degree(sym: IntMatrix) -> int:
    """Degree of the minimal polynomial of a nonnegative symmetric matrix.

    This is the program's count, the rank of the power-sum Hankel matrix,
    not an independent oracle: the tests check it against berkowitz_char_poly
    and poly_gcd.
    """
    if not sym.is_symmetric():
        raise MatrixError("minimal polynomial degree needs a symmetric matrix")
    if min(map(min, sym.entries)) < 0:
        raise MatrixError("minimal polynomial degree needs a nonnegative matrix")
    return charpoly._hankel_rank(sym.entries, 1, sym.rows)[0]


def krylov_dim_reference(g, p: int) -> int:
    """Dimension of span(v, Gv, G^2 v, ...) mod p for v = (1, 2, ..., r).

    Each new vector is reduced against the echelon basis found so far, so
    the count takes at most r matrix-vector products.
    """
    r = len(g)
    g = [[x % p for x in row] for row in g]
    basis = []  # (pivot column, row mod p with 1 in that column)
    v = list(range(1, r + 1))
    while len(basis) < r:
        w = v
        for col, row in basis:
            c = w[col] % p
            if c:
                w = [x - c * y for x, y in zip(w, row)]
        w = [x % p for x in w]
        col = next((j for j, x in enumerate(w) if x), None)
        if col is None:
            break
        inverse = pow(w[col], -1, p)
        basis.append((col, [x * inverse % p for x in w]))
        v = [sum(map(mul, row, v)) % p for row in g]
    return len(basis)


def frobenius(a, b) -> int:
    """Frobenius product sum_ij a_ij b_ij over every cell of a and b."""
    return sum(sum(map(mul, x, y)) for x, y in zip(a, b))


def depth_upper_bound(m: InclusionMatrix) -> int:
    """Spectral depth bound 2*d - 1, d = deg of the minimal polynomial of M M^t."""
    return 2 * minpoly_degree(m.gram) - 1


def dominance_brute(a: IntMatrix, b: IntMatrix) -> int | None:
    """Least q with a <= q*b, trying q = 1, 2, ... in turn, or None.

    A witness never exceeds max(a, 1), as every nonzero cell of b is at
    least 1, so the search stops there. Only for small entries.
    """
    for q in range(1, max(1, *map(max, a.entries)) + 1):
        if entrywise_le(a, scale(b, q)):
            return q
    return None


def scale(m: IntMatrix, k: int) -> IntMatrix:
    """k * m, entry by entry."""
    return IntMatrix(tuple(tuple(e * k for e in row) for row in m.entries))


def entrywise_le(a: IntMatrix, b: IntMatrix) -> bool:
    """Entrywise order: every (i,j) entry of a is <= the one of b."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise MatrixError(
            f"cannot compare {a.rows}x{a.cols} "
            f"and {b.rows}x{b.cols}")
    return all(x <= y
               for ra, rb in zip(a.entries, b.entries)
               for x, y in zip(ra, rb))


def support_bits(s, cols: int) -> tuple[tuple[bool, ...], ...]:
    """Row-major tuple-of-bool view of a support with cols columns."""
    return tuple(tuple(bool(mask >> j & 1) for j in range(cols)) for mask in s)


def zero_count(m: IntMatrix) -> int:
    """Number of entries of m equal to zero."""
    return sum(1 for row in m.entries for e in row if e == 0)


def support_as_int_matrix(s, cols: int) -> IntMatrix:
    """The 0/1 matrix with the zero pattern of a support with cols columns."""
    return IntMatrix([[1 if b else 0 for b in row] for row in support_bits(s, cols)])


def naive_support_product(a, b) -> tuple[int, ...]:
    """supp(A B) from the supports of A and B: row i ORs the rows b_j of
    every j < len(b) whose bit is set in row i of A."""
    return tuple(reduce(or_, [b[j] for j in range(len(b)) if mask >> j & 1], 0)
                 for mask in a)


def naive_support_transpose(s, cols: int) -> tuple[int, ...]:
    """Support of the transpose of a support with cols columns."""
    return tuple(sum(1 << i for i, mask in enumerate(s) if mask >> j & 1)
                 for j in range(cols))


def support_walk(cells):
    """(support, row_bits, col_bits, supp_t) of nonnegative cells, cell by cell.

    The fields of exactmat.walk_support, each read off the cells on its own:
    row bitsets, the nonzero columns of each row, the nonzero rows of each
    column, and the column bitsets, all as tuples.
    """
    rows, cols = range(len(cells)), range(len(cells[0]))
    return (tuple(sum(1 << j for j in cols if cells[i][j]) for i in rows),
            tuple(tuple(j for j in cols if cells[i][j]) for i in rows),
            tuple(tuple(i for i in rows if cells[i][j]) for j in cols),
            tuple(sum(1 << i for i in rows if cells[i][j]) for j in cols))


def inclusion_rejection(cells) -> tuple[str, int | None] | None:
    """(message, row) that InclusionMatrix must raise for cells, None if valid.

    A plain entry scan in the documented order: any negative entry, then the
    first zero row, then the first zero column.
    """
    for i, row in enumerate(cells):
        for j, e in enumerate(row):
            if e < 0:
                return f"negative entry {e} at ({i + 1},{j + 1})", None
    for i, row in enumerate(cells):
        if all(e == 0 for e in row):
            return f"zero row {i + 1}", i
    for j in range(len(cells[0])):
        if all(row[j] == 0 for row in cells):
            return f"zero column {j + 1}", None
    return None


def poly_at_matrix(p, m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule, adding each coefficient on the diagonal."""
    cells = [[0] * m.rows for _ in range(m.rows)]
    for c in reversed(p.coeffs):
        cells = naive_multiply(cells, m.entries)
        for i in range(m.rows):
            cells[i][i] += c
    return IntMatrix(cells)


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


def berkowitz_char_poly(m: IntMatrix) -> IntPolynomial:
    """det(x*I - m) by the Berkowitz scheme: ring operations on integers only.

    Berkowitz recursion over trailing principal submatrices: the coefficient
    vector of each submatrix is pushed through a lower-triangular Toeplitz
    transform whose column is [1, -a, -R C, -R A C, -R A^2 C, ...].
    """
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


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(x*I - m), monic, by berkowitz_char_poly."""
    if not m.is_square():
        raise MatrixError(
            f"characteristic polynomial needs a square matrix, got {m.rows}x{m.cols}")
    return berkowitz_char_poly(m)


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


def stabilize_right(factors, gap: int) -> int:
    """Least n >= 1 with X_(n-1+gap) == X_(n-1) in the support chain

        X_0 = I,   X_(k+1) = X_k * factors[k % len(factors)].

    The factors are supports; the first has r rows and s columns, the
    second, if any, s rows. Supports in the chain only grow, and stabilize
    well below the cap (the spectral bound gives d <= 2*min(r,s) - 1);
    hitting it means a bug.
    """
    r, s = len(factors[0]), len(factors[-1])
    cap = 2 * (r + s) + 2
    chain = [tuple(1 << i for i in range(r))]
    for k in range(cap + gap - 1):
        factor = factors[k % len(factors)]
        chain.append(naive_support_product(chain[-1], factor))  # X_(k+1)
        if len(chain) > gap:
            if chain[-1] == chain[0]:
                return k + 2 - gap
            del chain[0]
    raise AssertionError("support stabilization exceeded its iteration cap")


def right_chain_depths(m: InclusionMatrix) -> tuple[int, int, int, int]:
    """d(M), d(M^t), H-depth and the odd depth of M M^t, each from the
    support chain that multiplies the growing X_k on the right."""
    supp = m.support
    supp_t = naive_support_transpose(supp, m.cols)
    return (stabilize_right((supp, supp_t), 2),
            stabilize_right((supp_t, supp), 2),
            2 * stabilize_right((naive_support_product(supp_t, supp),), 1) - 1,
            2 * stabilize_right((m.gram.support(),), 1) - 1)


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
    power_prev = identity(s.rows)
    for n in range(1, cap + 1):
        power = power_prev * s
        if dominance_q(power, power_prev) is not None:
            return 2 * n - 1
        power_prev = power
    raise AssertionError(f"no H-depth found up to 2*{cap}-1")


def bfs_distances(g: BipartiteGraph, vertex: int) -> list[int]:
    """Edge distances from one dot, by a queue-driven BFS over g.edges.

    Dots are numbered 0..r-1 for the blacks and r..r+s-1 for the whites;
    -1 marks a dot in another component.
    """
    r = g.black_count
    adj = [[] for _ in range(r + g.white_count)]
    for b, w in sorted(g.edges):
        adj[b].append(r + w)
        adj[r + w].append(b)
    dist = [-1] * len(adj)
    dist[vertex] = 0
    queue = deque([vertex])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def graph_depths_by_pairs(g: BipartiteGraph) -> tuple[int, int, int, int]:
    """(black diameter, odd depth, even depth, H-depth) over every pair of dots.

    A diameter is the largest distance between two distinct dots of one
    colour in a common component, 0 when no such pair exists; the even
    depth is 1 plus the largest black-to-white distance, or 2 when no black
    reaches a white.
    """
    r, s = g.black_count, g.white_count
    dist = [bfs_distances(g, v) for v in range(r + s)]

    def diameter(first, count):
        return max([0] + [dist[i][j] for i in range(first, first + count)
                          for j in range(i + 1, first + count)])

    black = diameter(0, r)
    to_white = max([-1] + [dist[b][r + w] for b in range(r) for w in range(s)])
    return black, 1 + black, 1 + max(1, to_white), 1 + diameter(r, s)


def min_even_depth_merged(g: BipartiteGraph) -> int:
    """Minimum even depth from its definition: 2 plus the largest distance
    from a black dot to the class of black neighbours of a white dot, the
    least distance to any member, over pairs in a common component."""
    classes = [[b for b, w in g.edges if w == white]
               for white in range(g.white_count)]
    worst = 0
    for i in range(g.black_count):
        dist = bfs_distances(g, i)
        for members in classes:
            reachable = [dist[k] for k in members if dist[k] >= 0]
            if reachable:
                worst = max(worst, min(reachable))
    return 2 + worst


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


def pentagonal_partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n), by Euler's pentagonal number recurrence

        p(k) = sum over i >= 1 of (-1)^(i+1) (p(k - i(3i-1)/2) + p(k - i(3i+1)/2)).
    """
    p = [1] + [0] * n
    for k in range(1, n + 1):
        i = 1
        while i * (3 * i - 1) // 2 <= k:
            sign = 1 if i % 2 else -1
            for pentagonal in (i * (3 * i - 1) // 2, i * (3 * i + 1) // 2):
                if pentagonal <= k:
                    p[k] += sign * p[k - pentagonal]
            i += 1
    return p


def tower_spectrum(m: int, n: int) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) pairs of M M^t for the tower S_m <= S_n,
    in increasing order, with the zero multiplicities left out.

    Young's lattice is a 1-differential poset, DU - UD = I (Stanley,
    J. Amer. Math. Soc. 1, 1988), and M M^t is D^j U^j on rank m, with
    j = n - m. Its eigenvalue e (e + 1) ... (e + j - 1) for e = i + 1 has
    multiplicity p(m - i) - p(m - i - 1), for i = 0..m, with p(-1) = 0.
    """
    p = pentagonal_partition_counts(m) + [0]  # p[-1] reads the trailing 0
    spectrum = []
    for i in range(m + 1):
        mult = p[m - i] - p[m - i - 1]
        if mult:
            spectrum.append((reduce(mul, range(i + 1, i + 1 + n - m), 1), mult))
    return spectrum


def tower_closed_forms(k: int, n: int) -> dict[str, int]:
    """Report fields of the tower S_k <= S_n, 1 <= k < n, in closed form.

    With d = 2 ceil((n - 1) / (n - k)) - 1: d(M^t) = d + 1, d_H = d + 2,
    graph odd depth d and even depth d + 1; q = n(n - 1)/2 + 1 for
    k = n - 1, and q = n! for k = 1, where M M^t is the 1x1 matrix n!.
    These are regression oracles, read off the program's own output on
    every tower with n <= 16, not independent evidence. For k = n - 1 the
    depth 2n - 3 is Burciu-Kadison-Kuelshammer ("On subgroup depth",
    IEJA 2011); the general form is not checked against the literature.
    """
    d = 2 * -(-(n - 1) // (n - k)) - 1
    forms = {"depth": d, "depth_transpose": d + 1, "h_depth": d + 2,
             "min_odd_depth": d, "min_even_depth": d + 1}
    if k == n - 1:
        forms["q_witness"] = n * (n - 1) // 2 + 1
    if k == 1:
        forms["q_witness"] = factorial(n)
    return forms


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


def dense_rows(rng, count):
    """count rows of 60 cells, each 0 with probability 0.2 and else 1..1000."""
    return [[0 if rng.random() < 0.2 else rng.randint(1, 1000) for _ in range(60)]
            for _ in range(count)]


def symmetric_matrix(rng, n, high, density):
    """Random nonnegative n x n cells, mirrored from the lower triangle."""
    cells = [[rng.randint(0, high) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)]
    return IntMatrix([[cells[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)])


def symmetric_corpus():
    """Nonnegative symmetric matrices of 1 to 16 rows, whose chain products take
    word and byte slots, and whose count tries the Krylov certificate from
    three rows on."""
    rng = random.Random(20)
    for n in range(1, 17):
        for high, density in 3 * ((9, 1.0), (10**6, 1.0), (10**30, 1.0),
                                  (10**30, 0.25), (3, 0.15)):
            yield symmetric_matrix(rng, n, high, density)


def repeated_spectrum(rng, k, high):
    """Nonnegative symmetric S + S + T (direct sum) under a random permutation.

    Every eigenvalue of the k x k block S occurs at least twice, so the
    characteristic polynomial is not squarefree.
    """
    def block(size):
        cells = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                cells[i][j] = cells[j][i] = rng.randint(0, high)
        return cells

    s, t = block(k), block(rng.randint(1, 3))
    blocks = [s, s, t]
    n = sum(len(b) for b in blocks)
    cells = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            cells[at + i][at:at + len(b)] = row
        at += len(b)
    order = rng.sample(range(n), n)
    return IntMatrix([[cells[order[i]][order[j]] for j in range(n)] for i in range(n)])


def dense_gram(seed):
    """Gram of the seeded dense 40x60 matrix dense_rows(Random(seed), 40)."""
    return InclusionMatrix(dense_rows(random.Random(seed), 40)).gram


def repeated_rows_gram():
    """Gram of a seeded dense 40x60 matrix with 20 distinct rows, each twice:
    rank 20, so k = 21 (the 20 nonzero eigenvalues and 0) below r = 40."""
    rng = random.Random(23)
    cells = 2 * dense_rows(rng, 20)
    rng.shuffle(cells)
    return InclusionMatrix(cells).gram


def near_million_gram():
    """Seeded symmetric 16x16 cells in [10^6 - 1000, 10^6]: every power needs
    wider slots than the one before, and k = r."""
    rng = random.Random(41)
    cells = [[rng.randint(10**6 - 1000, 10**6) for _ in range(16)] for _ in range(16)]
    return [tuple(cells[max(i, j)][min(i, j)] for j in range(16)) for i in range(16)]


def block_diagonal(*blocks) -> InclusionMatrix:
    """The inclusion matrices blocks down the diagonal, zeros elsewhere."""
    cols = sum(block.cols for block in blocks)
    cells, offset = [], 0
    for block in blocks:
        for row in block.matrix.entries:
            cells.append([0] * offset + list(row)
                         + [0] * (cols - offset - block.cols))
        offset += block.cols
    return InclusionMatrix(cells)


def random_inclusion(rng, max_dim=6, max_entry=3, shape=None) -> InclusionMatrix:
    """Random valid inclusion matrix, r x s = shape or each up to max_dim;
    zero rows/columns are patched, not resampled."""
    r, s = shape or (rng.randint(1, max_dim), rng.randint(1, max_dim))
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


def sorted_binary_inclusions(max_rows: int, max_cols: int):
    """Every valid 0/1 inclusion matrix with r <= max_rows, s <= max_cols, up
    to the order of its rows: of the C(2^s + r - 2, r) non-decreasing
    sequences of r nonzero row bitsets, those that cover every column."""
    for r in range(1, max_rows + 1):
        for s in range(1, max_cols + 1):
            full = (1 << s) - 1
            for masks in combinations_with_replacement(range(1, full + 1), r):
                if reduce(or_, masks) == full:
                    yield InclusionMatrix([[mask >> j & 1 for j in range(s)]
                                           for mask in masks])
