"""Exact arithmetic over prime fields GF(p): small dense matrices, and rows packed into ints.

``MatrixGF`` keeps tuple rows and multiplies in plain Python.  Every elimination, in ``rank``,
``solve_right``, ``mat_inv`` and the search, runs on the rows of ``PackedRows``."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence


class FieldMismatch(ValueError):
    """Operands live over different prime fields."""


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


def _is_prime(p: int) -> bool:
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p).  Only primes up to 2**16 are accepted."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not (2 <= self.p <= 1 << 16):
            raise ValueError(f"characteristic out of range: {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)


class MatrixGF:
    """Immutable dense matrix over GF(p): ``entries``, a nonempty tuple of equal-length tuples of residues."""

    __slots__ = ("field", "entries")

    def __new__(cls, field: FieldSpec, rows: Iterable[Iterable[int]]) -> "MatrixGF":
        p = field.p
        entries = tuple([tuple([int(x) % p for x in r]) for r in rows])
        if not entries or not entries[0] or len(set(map(len, entries))) != 1:
            raise DimensionMismatch("matrix needs at least one row and column, and rows of one length")
        return cls._reduced(field, entries)

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("MatrixGF is immutable")

    @classmethod
    def _reduced(cls, field: FieldSpec, entries: tuple[tuple[int, ...], ...]) -> "MatrixGF":
        """The matrix of ``entries``, already a nonempty tuple of equal-length tuples of residues."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "entries", entries)
        return m

    rows = property(lambda self: len(self.entries))
    cols = property(lambda self: len(self.entries[0]))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixGF":
        return cls._reduced(field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "MatrixGF":
        return cls._reduced(field, ((0,) * cols,) * rows)

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "MatrixGF":
        return MatrixGF._reduced(self.field, tuple(zip(*self.entries)))

    def is_identity(self) -> bool:
        return self == MatrixGF.identity(self.field, self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatrixGF) and self.field == other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field.p, self.entries))

    def __repr__(self) -> str:
        return f"MatrixGF(p={self.field.p}, {self.tolists()})"

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        return mat_mul(self, other)


def _check_same_field(a: MatrixGF, b: MatrixGF) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"GF({a.field.p}) vs GF({b.field.p})")


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Exact product mod p."""
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    p, cols = a.field.p, tuple(zip(*b.entries))
    rows = [tuple([sum(map(operator.mul, r, c)) % p for c in cols]) for r in a.entries]
    return MatrixGF._reduced(a.field, tuple(rows))


def rank(a: MatrixGF) -> int:
    gf, basis = PackedRows(a.field.p, a.cols), {}
    for r in a.entries:
        gf.insert(basis, gf.pack(r))
    return len(basis)


def mat_inv(a: MatrixGF) -> Optional[MatrixGF]:
    """Inverse when full rank, else None."""
    if a.rows != a.cols:
        raise DimensionMismatch("inverse needs a square matrix")
    return solve_right(a, MatrixGF.identity(a.field, a.rows))


def solve_right(a: MatrixGF, b: MatrixGF) -> Optional[MatrixGF]:
    """One X with a @ X == b, or None if inconsistent.

    Underdetermined systems return the particular solution with every free
    variable set to zero, so repeated runs give identical witnesses.
    """
    _check_same_field(a, b)
    if a.rows != b.rows:
        raise DimensionMismatch("solve_right needs matching row counts")
    gf = PackedRows(a.field.p, a.rows)
    x = gf.solve([gf.pack(c) for c in zip(*a.entries)], [gf.pack(c) for c in zip(*b.entries)])
    return None if x is None else MatrixGF._reduced(a.field, tuple(zip(*x)))


class PackedRows:
    """Rows over GF(p), each one int: column j takes bits [j b, (j + 1) b), b = p.bit_length() + 1.

    A basis is a dict from each row's pivot, its lowest nonzero column, to the
    row scaled to pivot entry 1; ``cols`` bounds the columns any row uses.
    """

    # Scalars up to SMALL take repeated adds, wider ones a Montgomery product; the two tie at c = 4.
    SMALL = 3

    def __init__(self, p: int, cols: int):
        self.p, self.b, self.cols = p, p.bit_length() + 1, cols
        self.mask = (1 << self.b) - 1
        ones = ((1 << (cols * self.b)) - 1) // self.mask
        self.bias, self.high = ones * ((1 << (self.b - 1)) - p), ones << (self.b - 1)
        # The even and the odd columns, each column the low half of a 2b-bit window; -1/p mod 2^b.
        even = ((1 << ((cols + 1) // 2 * 2 * self.b)) - 1) // ((1 << 2 * self.b) - 1) * self.mask
        self.halves, self.pinv = (even, even << self.b), pow(-p, -1, 1 << self.b) if p > 2 else 0

    def unit(self, j: int) -> int:
        return 1 << (j * self.b)

    def entry(self, r: int, j: int) -> int:
        return (r >> (j * self.b)) & self.mask

    def pivot(self, r: int) -> int:
        return ((r & -r).bit_length() - 1) // self.b

    def add(self, x: int, y: int) -> int:
        """Two reduced rows sum to at most 2p - 2 < 2^b per column, so no carry
        crosses columns, and the bias sets bit b - 1 exactly where a column reached p."""
        s = x + y
        return s - (((s + self.bias) & self.high) >> (self.b - 1)) * self.p

    def mul(self, c: int, r: int) -> int:
        """c times row r, for 0 < c < p."""
        if c > self.SMALL:
            # Even, then odd columns: x = entry (c 2^b mod p) < p 2^b fills the column's window; adding
            # (x pinv mod 2^b) p clears the window's low half and leaves c entry mod p, below 2p, above it.
            c, out = (c << self.b) % self.p, 0
            for half in self.halves:
                x = (r & half) * c
                out |= x + ((x & half) * self.pinv & half) * self.p
            return self.add(out >> self.b, 0)
        out = r
        for _ in range(c - 1):
            out = self.add(out, r)
        return out

    def times(self, block: Iterable[Iterable[int]], rows: list[int]) -> list[int]:
        """``block``, a matrix of ints in [0, p), times the stacked ``rows``: one row per block row."""
        add, mul = self.add, self.mul
        out = []
        for brow in block:
            row = 0
            for c, srow in zip(brow, rows):
                if c and srow:
                    y = srow if c == 1 else mul(c, srow)
                    row = add(row, y) if row else y
            out.append(row)
        return out

    def pack(self, entries: Sequence[int]) -> int:
        """The packed row of ``entries``, residues in [0, p); ``unpack`` inverts it."""
        b = self.b
        return sum(entries[j] << (j * b) for j in compress(range(len(entries)), entries))

    def unpack(self, r: int) -> tuple[int, ...]:
        """The ``cols`` entries of row ``r``, read by skipping from one nonzero column to the next."""
        b, m, out, j = self.b, self.mask, [0] * self.cols, 0
        while r:
            s = self.pivot(r)
            r >>= s * b
            j += s
            out[j] = r & m
            r >>= b
            j += 1
        return tuple(out)

    def reduce(self, basis: dict, r: int) -> int:
        """``r`` minus basis rows until its lowest nonzero column is no pivot; 0 iff r is in the span."""
        b, m, p = self.b, self.mask, self.p
        while r and (br := basis.get(j := ((r & -r).bit_length() - 1) // b)) is not None:
            r = self.add(r, self.mul(p - ((r >> j * b) & m), br))
        return r

    def insert(self, basis: dict, r: int) -> None:
        """Add row r to the span of ``basis``."""
        if r := self.reduce(basis, r):
            j = self.pivot(r)
            basis[j] = self.mul(pow(self.entry(r, j), self.p - 2, self.p), r)

    def solve(self, rows: list[int], targets: list[int]) -> Optional[list[list[int]]]:
        """Per target, its coefficients on ``rows``, or None if some target is outside their span.

        Row j carries a unit entry in column cols + j, and only rows
        independent of the earlier ones enter the basis, so every free
        coefficient is 0.
        """
        w, gf = self.cols, type(self)(self.p, self.cols + len(rows))
        messages = gf.unit(w) - 1  # the bits of columns 0 .. w - 1
        basis: dict[int, int] = {}
        for j, row in enumerate(rows):
            r = gf.reduce(basis, row | gf.unit(w + j))
            if r & messages:
                gf.insert(basis, r)
        rest = [gf.reduce(basis, trow) for trow in targets]
        return None if any(r & messages for r in rest) else [
            [-gf.entry(r, w + j) % self.p for j in range(len(rows))] for r in rest]
