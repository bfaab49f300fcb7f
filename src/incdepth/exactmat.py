"""Exact dense integer matrices and their boolean support patterns.

Everything runs on Python's arbitrary-precision integers: entries of
iterated matrix products grow geometrically and must never overflow or
round. Values are immutable after construction (tuples all the way down)
and every operation is a pure function, so they can be shared freely
across threads.
"""

from __future__ import annotations


class MatrixError(ValueError):
    """Rejected input: bad shape, bad entry, or a violated precondition."""


class IntMatrix:
    """Dense r x s matrix of signed integers, stored row-major."""

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
                if not isinstance(e, int):
                    raise MatrixError(
                        f"entry ({i + 1},{j + 1}) is not an integer: {e!r}")
        self.rows = len(data)
        self.cols = width
        self.entries = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise MatrixError("identity size must be positive")
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    def __getitem__(self, key) -> int:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self.entries]!r})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other, "add")
        return IntMatrix(tuple(tuple(x + y for x, y in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other, "subtract")
        return IntMatrix(tuple(tuple(x - y for x, y in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise MatrixError(
                    f"cannot multiply {self.rows}x{self.cols} "
                    f"by {other.rows}x{other.cols}")
            cols = tuple(zip(*other.entries))
            return IntMatrix(tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                for row in self.entries))
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(e * other for e in row)
                                   for row in self.entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __le__(self, other: "IntMatrix") -> bool:
        """Entrywise order: every (i,j) entry of self is <= the one of other."""
        self._require_same_shape(other, "compare")
        return all(x <= y
                   for ra, rb in zip(self.entries, other.entries)
                   for x, y in zip(ra, rb))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def support(self) -> "SupportMatrix":
        """Zero pattern as a SupportMatrix; only defined for nonnegative input."""
        masks = []
        for i, row in enumerate(self.entries):
            mask = 0
            for j, e in enumerate(row):
                if e:
                    if e < 0:
                        raise MatrixError(
                            f"negative entry {e} at ({i + 1},{j + 1}); "
                            "support needs a nonnegative matrix")
                    mask |= 1 << j
            masks.append(mask)
        return SupportMatrix._from_masks(masks, self.cols)

    def zero_count(self) -> int:
        """Number of entries equal to zero."""
        return sum(1 for row in self.entries for e in row if e == 0)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i))

    def _require_same_shape(self, other: "IntMatrix", verb: str) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(
                f"cannot {verb} {self.rows}x{self.cols} "
                f"and {other.rows}x{other.cols}")


class SupportMatrix:
    """Boolean zero-pattern of a nonnegative matrix; True marks a nonzero cell.

    Row i is stored as one int bitset, `masks[i]`, with bit j set when cell
    (i, j) is nonzero, so a boolean product ORs together the right-hand rows
    that a left row's set bits select.
    """

    __slots__ = ("rows", "cols", "masks")

    def __init__(self, bits):
        data = tuple(tuple(row) for row in bits)
        if not data or not data[0]:
            raise MatrixError("support matrix needs at least one row and one column")
        width = len(data[0])
        for i, row in enumerate(data):
            if len(row) != width:
                raise MatrixError(
                    f"row {i + 1} has {len(row)} entries, expected {width}")
        self.rows = len(data)
        self.cols = width
        self.masks = tuple(sum(1 << j for j, b in enumerate(row) if b)
                           for row in data)

    @classmethod
    def _from_masks(cls, masks, cols: int) -> "SupportMatrix":
        """Wrap row bitsets that are already known to fit `cols` columns."""
        out = cls.__new__(cls)
        out.rows = len(masks)
        out.cols = cols
        out.masks = tuple(masks)
        return out

    @classmethod
    def identity(cls, n: int) -> "SupportMatrix":
        if n < 1:
            raise MatrixError("support matrix needs at least one row and one column")
        return cls._from_masks([1 << i for i in range(n)], n)

    @property
    def bits(self) -> tuple[tuple[bool, ...], ...]:
        """Row-major tuple-of-bool view of the pattern."""
        return tuple(tuple(bool(mask >> j & 1) for j in range(self.cols))
                     for mask in self.masks)

    def __mul__(self, other: "SupportMatrix"):
        """OR-AND product over the boolean semiring."""
        if not isinstance(other, SupportMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} "
                f"by {other.rows}x{other.cols}")
        right = other.masks
        out = []
        for mask in self.masks:
            acc = 0
            while mask:
                low = mask & -mask
                acc |= right[low.bit_length() - 1]
                mask ^= low
            out.append(acc)
        return SupportMatrix._from_masks(out, other.cols)

    def transpose(self) -> "SupportMatrix":
        cols = [0] * self.cols
        for i, mask in enumerate(self.masks):
            bit = 1 << i
            while mask:
                low = mask & -mask
                cols[low.bit_length() - 1] |= bit
                mask ^= low
        return SupportMatrix._from_masks(cols, self.rows)

    def as_int_matrix(self) -> IntMatrix:
        """The 0/1 matrix with this zero pattern."""
        return IntMatrix(tuple(tuple(1 if b else 0 for b in row)
                               for row in self.bits))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SupportMatrix) and self.cols == other.cols
                and self.masks == other.masks)

    def __hash__(self) -> int:
        return hash((self.cols, self.masks))

    def __repr__(self) -> str:
        return f"SupportMatrix({[[int(b) for b in row] for row in self.bits]!r})"


def dominance_q(a: IntMatrix, b: IntMatrix) -> int | None:
    """Least positive integer q with a <= q*b entrywise, or None if no q exists.

    No q exists exactly when some cell has a > 0 where b = 0. The witness is
    minimal: a <= q*b holds, and unless q == 1, a <= (q-1)*b fails. Both
    matrices must be nonnegative and of the same shape.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise MatrixError(
            f"cannot compare {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    q = 1
    for ra, rb in zip(a.entries, b.entries):
        for x, y in zip(ra, rb):
            if x < 0 or y < 0:
                raise MatrixError("dominance needs nonnegative matrices")
            if y == 0:
                if x > 0:
                    return None
            else:
                need = -(-x // y)
                if need > q:
                    q = need
    return q
