"""Exact integer matrices, their supports, and inclusion matrices.

A support, the zero pattern of a nonnegative matrix, is a tuple of row
bitsets: one int per row, with bit j set when entry j of the row is
nonzero. walk_support alone forms a support from entries, checking their
signs, with its row and column lists and its transpose in the same pass;
an InclusionMatrix makes that walk when it is built, and keeps it.
Products pack a row into one int, one slot per entry, little-endian on
every host: slot j is the j-th from the int's low end, and the slot width
alone picks how slots are packed and read, struct words or whole bytes.
Only this module knows that layout (slots, read, diagonal, triangle and
widen), and so it runs the loops that carry packed rows:
symmetric_powers, the chain G^n, which reads each power it needs as one
flat upper triangle and hands out the power sums s_j = tr G^j, traces
and Frobenius products of those triangles, for the count to eliminate,
and forms the even-depth witness pair from the packed rows it holds, and
krylov_dim. Every product sums packed rows by one kernel, planned_sums,
from a plan of its left operand (plan_rows): per row, the columns of its
units, whose packed rows are added with no multiplication, and its
larger entries, each multiplied by its packed row. The chain plans G
once and reuses that plan at every step; a one-shot product, and each
Krylov step, takes each row of its left operand as its own mask, the
plan of a row with no unit, since one product does not repay the split.

Everything runs on Python's arbitrary-precision integers: entries of
iterated matrix products grow geometrically and must never overflow or
round. Values are immutable after construction (tuples all the way down)
but for one lazily filled field, InclusionMatrix._gram: an idempotent memo
of M M^t, so threads that fill it at once store equal values. Every
operation is a pure function, so values can be shared freely across
threads.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, compress
from operator import mul


class MatrixError(ValueError):
    """Rejected input: bad shape, bad entry, or a violated precondition.

    `row` is the 0-based index of the matrix row at fault, when there is one.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class IntMatrix:
    """Dense r x s matrix of integers, stored row-major.

    It holds any integers, but multiplies only nonnegative ones.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        data = tuple(tuple(row) for row in entries)
        if not data or not data[0]:
            raise MatrixError("matrix needs at least one row and one column")
        width = len(data[0])
        for i, row in enumerate(data):
            if len(row) != width:
                raise MatrixError(
                    f"row {i + 1} has {len(row)} entries, expected {width}")
            for j, e in enumerate(row):
                if isinstance(e, bool) or not isinstance(e, int):
                    raise MatrixError(
                        f"entry ({i + 1},{j + 1}) is not an integer: {e!r}")
        self.rows = len(data)
        self.cols = width
        self.entries = data

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self.entries]!r})"

    def __mul__(self, other):
        """Exact product of nonnegative matrices, by the packed kernel product."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} "
                f"by {other.rows}x{other.cols}")
        if min(map(min, self.entries)) < 0 or min(map(min, other.entries)) < 0:
            raise MatrixError("products need nonnegative matrices")
        return made(product(self.entries, other.entries))

    def transpose(self) -> "IntMatrix":
        return made(zip(*self.entries))

    def support(self) -> tuple[int, ...]:
        """Zero pattern as row bitsets (walk_support); only for nonnegative input."""
        return walk_support(self.entries, self.cols)[0]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i))


def slots(bits: int, count: int):
    """(width, pack, unpack) for rows of count nonnegative entries below 2^bits.

    pack turns a row into one int, entry j in bits 8 width j to
    8 width (j + 1), and unpack reads such an int back into the tuple of
    its entries (read). Slots are machine words (8 bytes), packed by one
    little-endian struct format, when bits is at most 64, and whole bytes
    past that, joined from little-endian bytes: the slot width alone picks
    the path, the same on every host. A sum of packed rows reads back as
    the rows' sum as long as no slot of it reaches 2^(8 width).
    """
    width = 8 if bits <= 64 else (bits + 7) // 8
    if width == 8:
        words = struct.Struct(f"<{count}Q").pack

        def pack(row):
            return int.from_bytes(words(*row), "little")
    else:

        def pack(row):
            return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in row]),
                                  "little")

    def unpack(packed):
        return read(packed.to_bytes(width * count, "little"), width)
    return width, pack, unpack


def read(data: bytes, width: int) -> tuple[int, ...]:
    """The slots of width bytes that the little-endian bytes data holds, in
    order: one struct unpack of little-endian words for word slots, and one
    int.from_bytes per slot past them."""
    if width == 8:
        return struct.unpack(f"<{len(data) // 8}Q", data)
    return tuple([int.from_bytes(data[i:i + width], "little")
                  for i in range(0, len(data), width)])


def triangle(packed, width: int) -> tuple[int, ...]:
    """The upper triangle of a symmetric matrix whose rows are packed in
    slots of width bytes, as one flat tuple: row i from slot i on, rows back
    to back, formed by one bytes join and one read."""
    size, bits = width * len(packed), 8 * width
    return read(b"".join([(x >> bits * i).to_bytes(size - width * i, "little")
                          for i, x in enumerate(packed)]), width)


def widen(packed, old: int, new: int, count: int) -> list[int]:
    """Rows of count entries packed in slots of old bytes, in slots of new.

    Slot t moves from bit 8 old t to bit 8 new t: byte b of each old slot
    becomes byte b of the new one, one strided copy per b over all rows.
    """
    data = b"".join([x.to_bytes(old * count, "little") for x in packed])
    out = bytearray(new * count * len(packed))
    for b in range(old):
        out[b::new] = data[b::old]
    size, view = new * count, memoryview(out)
    return [int.from_bytes(view[i:i + size], "little") for i in range(0, len(out), size)]


def product(a, b) -> list[tuple[int, ...]]:
    """Rows of a * b for nonnegative row-major a (r x s) and b (s x t).

    Kronecker substitution: slots packs row k of b into one int. Every
    entry of the product is at most
    s * max(a) * max(b) < 2^(bits(s) + bits(max a) + bits(max b)), so it
    fits its slot and no sum carries into the next one. Row i of the
    product is then the sum of a_ik * packed_k over the nonzero a_ik
    (planned_sums, each row of a its own mask), read back slot by slot. A
    negative entry would borrow across slots, so the product would be
    silently wrong.
    """
    bits = (len(b).bit_length() + max(map(max, a)).bit_length()
            + max(map(max, b)).bit_length())
    _, pack, unpack = slots(bits, len(b[0]))
    plans = [((), row, row) for row in a]
    return [unpack(x) for x in planned_sums(plans, list(map(pack, b)))]


def plan_rows(a) -> list:
    """The plan of each nonnegative row of a, the left operand of a product.

    A row's plan is (units, coefficients, picks). A row with a unit keeps
    the columns of its entries equal to 1 in units, whose packed rows
    planned_sums adds with no multiplication, its larger nonzero entries in
    coefficients, in column order, and their columns in picks; all three
    are lists. A row with none keeps units empty and itself as both
    coefficients and picks, which compress reads as a mask: it gathers a
    dense row faster than its columns would. That mask plan is what a
    one-shot product gives every row (product, krylov_dim): splitting out
    the units pays only when the plan is reused, as the chain does.
    """
    cols, plans = range(len(a[0])), []
    for row in a:
        if 1 in row:
            units, coefficients, picks = [], [], []
            for j in compress(cols, row):
                if row[j] == 1:
                    units.append(j)
                else:
                    coefficients.append(row[j])
                    picks.append(j)
            plans.append((units, coefficients, picks))
        else:
            plans.append(((), row, row))
    return plans


def planned_sums(plans, packed) -> list[int]:
    """The packed rows of a * b, from the plans of a's rows (plan_rows) and
    the packed rows of b: per row, the sum of its units' packed rows plus
    each larger coefficient times its packed row."""
    get = packed.__getitem__
    return [sum(map(mul, coefficients, map(get, picks)), sum(map(get, units))) if units
            else sum(map(mul, compress(coefficients, picks), compress(packed, picks)))
            for units, coefficients, picks in plans]


def diagonal(packed, width: int) -> list[int]:
    """Slot i of packed row i for each i: the diagonal of a square matrix
    whose rows are packed in slots of width bytes, read with no unpacking."""
    bits = 8 * width
    mask = (1 << bits) - 1
    return [x >> bits * i & mask for i, x in enumerate(packed)]


def upper(rows) -> tuple:
    """The upper triangle of a square matrix given by its rows, as one flat
    tuple: row i from column i on, rows back to back, the layout triangle
    reads packed rows into."""
    return tuple(chain.from_iterable([row[i:] for i, row in enumerate(rows)]))


def _frobenius(a, b) -> int:
    """Frobenius product sum_ij A_ij B_ij of two symmetric matrices A and B.

    a and b are (diagonal, cells): the diagonal of the matrix and the cells
    of its upper triangle, row i from column i on, flat, in the same order
    for both, every cell or a selection that keeps each cell where A and B
    are both nonzero. Both matrices must be symmetric, as every power of G
    is: the sum is then twice the sum over the upper cells less the
    diagonal, which that sum counted once, so on other matrices the result
    is wrong.
    """
    return 2 * sum(map(mul, a[1], b[1])) - sum(map(mul, a[0], b[0]))


def symmetric_powers(g, c: int, exact: int = 0, left=None):
    """(sums, known, pair) at each step n = 1, 2, ... of the chain
    G^n = G G^(n-1), for nonnegative symmetric rows g and the ceiling c >= 1
    of a count of G's distinct eigenvalues, which eliminates the power sums
    s_j = tr G^j (charpoly._hankel_rank).

    sums is one list, the same at every step, of s_0 = r, s_1, ..., s_(2c-2),
    each set once known, and s_0, ..., s_known are all set. With
    t = min(max(exact, 1), c - 1), step n <= t sets the trace s_n, read off
    the diagonal of G^n; step t sets s_(t+1) = tr(G^t G) = <G^t, G> over the
    nonzero cells of G's upper triangle alone; and each step n < c sets
    those of s_(2n-1) = <G^(n-1), G^n> and s_(2n) = <G^n, G^n> past s_(t+1),
    full Frobenius products (_frobenius) of the triangles of two powers. So
    known is n below step t and 2n from step t to step c - 1, and no sum
    past s_(2c-2) is formed: a step from c on reads no sum, and only forms
    its power for the pair. pair is None but at step n = exact.

    Lazy: G^n is formed only when pulled, by planned_sums from the plan of
    G, which plan_rows forms once, at the first product. The packed sums
    that formed G^(n-1) are the next product's packed rows, widened byte by
    byte when the slots grow. A full sum or the odd witness pair reads G^n
    only when 2n + 1 >= t + 2, so from step t // 2 + 1 on the chain reads
    the triangle of G^n (triangle), which holds every entry, as G^n is
    symmetric, as one flat tuple (upper), and its diagonal off that; a step
    below it reads only the diagonal slots (diagonal). G^1's triangle is
    G's own rows, taken when a sum or the pair reads it. The largest entry
    of G^n sizes the next product's slots: an even power G^(2m) =
    (G^m)^t G^m has it on its diagonal (Cauchy-Schwarz), so every even step
    reads it there. An odd step that reads its triangle takes it from
    there, and one that does not bounds it without unpacking:
    G^n = G G^(n-1) has no entry above the largest of G^(n-1) times the
    largest row sum of G. Both rules hold for every nonnegative symmetric G.

    pair is the witness pair of step exact >= 1. With left None it is the
    triangles of G^(exact-1) and G^exact. With left the rows of a
    nonnegative L whose row sums are at most tr G, such as M^t for
    G = M M^t, it is the entries of L G^(exact-1) and of L G^exact, row
    after row, each row read as it is pulled, from sums of the packed rows
    the chain holds by the plan of L. The chain keeps the packed rows of
    G^(exact-1) one step longer and widens both powers to the slots it gives
    G^(exact+1), which hold them: an entry of L G^n is at most a row sum of
    L times max G^n, a row sum of L is at most tr G <= r max G, and
    max G^(n-1) <= max G^n on a nonzero G, for row k of G^(n-1) is 0 when
    row k of G is, and else some G_ik >= 1.
    """
    r = len(g)
    t = min(max(exact, 1), c - 1)  # s_1, ..., s_t are traces
    whole = t // 2 + 1  # the first power whose triangle is read
    diag = first = [row[i] for i, row in enumerate(g)]
    tri = cells = upper(g) if whole == 1 or left is None and exact in (1, 2) else None
    high = max(map(max, g))  # the largest entry of G^n, or a bound on it
    head = r.bit_length() + high.bit_length()  # G's share of product's bound
    widest = max(map(sum, g))  # the largest row sum of G, the odd steps' factor

    def bound():
        """The largest entry of G^n, or a bound on it from G^(n-1)'s."""
        if n == 1:
            return high
        if n % 2 == 0:
            return max(diag)
        return max(tri) if tri is not None else high * widest

    sums = [r] + [None] * (2 * c - 2)
    known = 0
    # the slot width, the packed rows of G^n and those of G^(n-1) the even
    # witness keeps, and the (diagonal, triangle) of G^(n-1)
    width, packed, low, last = 0, None, None, None
    plans = offsets = None  # formed once, when first needed
    n = 1
    while True:
        power = diag, tri
        if n < c:
            if n <= t:
                sums[n] = sum(diag)
            if n == t:  # <G^t, G> over the nonzero cells of G's triangle
                if cells is None:
                    cells = upper(g)
                sums[n + 1] = _frobenius((diag, compress(tri, cells)),
                                         (first, compress(cells, cells)))
            if 2 * n - 1 > t + 1:
                sums[2 * n - 1] = _frobenius(last, power)
            if 2 * n > t + 1:
                sums[2 * n] = _frobenius(power, power)
            known = 2 * n if n >= t else n
        pair, bounded = None, n == exact and left is not None
        if n == exact and left is None:
            pair = [last[1] if n > 1 else tuple(int(i == j) for i in range(r) for j in range(i, r)),
                    tri]
        elif bounded:  # G^(n+1)'s slots, and the bound on G^n that sizes them
            high = bound()
            step, pack, unpack = slots(head + high.bit_length(), r)
            if packed is None:
                packed, low = list(map(pack, g)), [1 << 8 * step * i for i in range(r)]
            elif step > width:
                packed, low = widen(packed, width, step, r), widen(low, width, step, r)
            width, by = step, plan_rows(left)
            pair = [chain.from_iterable(map(unpack, planned_sums(by, x))) for x in (low, packed)]
            low = None
        yield sums, known, pair
        last = power
        if not bounded:  # the bound is formed only when the next power is pulled
            high = bound()
        n += 1
        step, pack, _ = slots(head + high.bit_length(), r)
        if step > width:
            packed = widen(packed, width, step, r) if packed else list(map(pack, g))
            width = step
        if plans is None:
            plans = plan_rows(g)
        keep = n == exact and left is not None
        low, packed = packed if keep else None, planned_sums(plans, packed)
        if n >= whole:
            if offsets is None:
                offsets = list(accumulate(range(r, 1, -1), initial=0))
            tri = triangle(packed, width)
            diag = list(map(tri.__getitem__, offsets))
        else:
            tri, diag = None, diagonal(packed, width)


def krylov_dim(g, p: int) -> int:
    """Dimension of span(v, Gv, G^2 v, ...) mod p for v = (1, 2, ..., r).

    The rows of G mod p, the vectors and the echelon basis are packed into
    one int each (slots). Each echelon row is kept unscaled, as a
    reduced vector mod p, with the bit offset of its pivot e, its first
    nonzero entry, and p - e^-1 mod p. A new vector w is reduced against the
    basis found so far by w += (c (p - e^-1) mod p) * row, where c is w's
    slot at the row's pivot, so a reduced vector is zero at every pivot so
    far and any nonzero slot of it is a new pivot. The vector after w is G
    times the reduced w, not G times w: the two differ by G times a vector
    of the span so far, which the next span holds, so every span is the
    same, and the zeros of the reduced w at the pivots skip rows of G. G is
    symmetric, so Gu is the sum of u_k times packed row k, whose slots stay
    below r p^2; the reduction adds less than r p^2 more, and 2 r p^2
    < 2^(2 bits(p) + bits(r) + 1), so nothing carries. The count takes at
    most r matrix-vector products.
    """
    r = len(g)
    width, pack, unpack = slots(2 * p.bit_length() + r.bit_length() + 1, r)
    bits = 8 * width
    mask = (1 << bits) - 1
    rows = [pack([x % p for x in row]) for row in g]
    basis = []  # (pivot's bit offset, p - pivot^-1 mod p, packed row mod p)
    w = pack(range(1, r + 1))
    while len(basis) < r:
        for at, negated, row in basis:
            c = (w >> at & mask) * negated % p
            if c:
                w += c * row
        v = [x % p for x in unpack(w)]
        u = pack(v)
        if not u:
            break
        at = ((u & -u).bit_length() - 1) // bits * bits  # the lowest nonzero slot
        basis.append((at, p - pow(u >> at & mask, -1, p), u))
        w = planned_sums([((), v, v)], rows)[0]  # v is its own mask
    return len(basis)


def made(rows) -> IntMatrix:
    """IntMatrix of rows of ints that the package made or checked: no new check."""
    matrix = object.__new__(IntMatrix)
    matrix.entries = entries = tuple(map(tuple, rows))
    matrix.rows, matrix.cols = len(entries), len(entries[0])
    return matrix


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask >= 0, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def walk_support(entries, cols: int):
    """(support, row_bits, col_bits, supp_t), tuples, from one walk of the rows.

    row_bits[i] lists the nonzero columns of row i and col_bits[j] the nonzero
    rows of column j, lowest first; supp_t is the transposed support. Only the
    nonzero entries are checked: the first negative one, row-major, raises.
    """
    support, row_bits = [], []
    col_bits = [[] for _ in range(cols)]
    supp_t = [0] * cols
    for i, row in enumerate(entries):
        bits = tuple(compress(range(cols), row))
        bit, mask = 1 << i, 0
        for j in bits:
            if row[j] < 0:
                raise MatrixError(f"negative entry {row[j]} at ({i + 1},{j + 1})")
            mask |= 1 << j
            col_bits[j].append(i)
            supp_t[j] |= bit
        support.append(mask)
        row_bits.append(bits)
    return tuple(support), tuple(row_bits), tuple(map(tuple, col_bits)), tuple(supp_t)


class InclusionMatrix:
    """Nonnegative integer matrix with no zero row and no zero column.

    `support`, `row_bits`, `col_bits` and `supp_t` are the one walk of its
    entries (walk_support), made and validated once here; the depth searches
    and the bipartite graph read them instead of the entries. `gram` is the
    big-integer M M^t, formed on first use and then kept.
    """

    __slots__ = ("matrix", "support", "row_bits", "col_bits", "supp_t", "_gram")

    def __init__(self, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        self.support, self.row_bits, self.col_bits, self.supp_t = walk_support(
            matrix.entries, matrix.cols)  # rejects negative entries
        if 0 in self.support:
            i = self.support.index(0)
            raise MatrixError(f"zero row {i + 1}", row=i)
        if 0 in self.supp_t:
            raise MatrixError(f"zero column {self.supp_t.index(0) + 1}")
        self.matrix = matrix
        self._gram = None

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    @property
    def gram(self) -> IntMatrix:
        """M M^t, the r x r symmetric bracketed square M^[2]."""
        if self._gram is None:  # the entries were checked when the matrix was built
            entries = self.matrix.entries
            self._gram = made(product(entries, list(zip(*entries))))
        return self._gram

    def transposed(self) -> "InclusionMatrix":
        """M^t, with this matrix's walk read the other way: no second check or walk."""
        t = object.__new__(InclusionMatrix)
        t.matrix = self.matrix.transpose()
        t.support, t.supp_t = self.supp_t, self.support
        t.row_bits, t.col_bits = self.col_bits, self.row_bits
        t._gram = None
        return t

    def __eq__(self, other) -> bool:
        return isinstance(other, InclusionMatrix) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"InclusionMatrix({[list(r) for r in self.matrix.entries]!r})"


def dominance_q(a: IntMatrix, b: IntMatrix) -> int | None:
    """Least positive integer q with a <= q*b entrywise, or None if no q
    exists: least_q of two nonnegative matrices of the same shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise MatrixError(
            f"cannot compare {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    if min(map(min, a.entries)) < 0 or min(map(min, b.entries)) < 0:
        raise MatrixError("dominance needs nonnegative matrices")
    return least_q(chain.from_iterable(a.entries), chain.from_iterable(b.entries))


def least_q(a, b) -> int | None:
    """Least positive q with a <= q*b over the paired entries of a and b,
    two nonnegative flat sequences of cells, or None if a cell has a > 0
    where b = 0. The witness is minimal: unless q == 1, a <= (q-1)*b fails."""
    q = 1
    for x, y in zip(a, b):
        if x > q * y:  # a cell past q*b raises q to its own need
            if not y:
                return None
            q = -(-x // y)
    return q
