"""Exact arithmetic over prime fields GF(p) and dense matrices over them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


class FieldMismatch(ValueError):
    """Operands live over different prime fields."""


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
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
    """Immutable dense matrix over GF(p); entries are residues in [0, p)."""

    __slots__ = ("field", "_a")

    def __new__(cls, field: FieldSpec, rows: Iterable[Iterable[int]]) -> "MatrixGF":
        return cls.from_array(field, [[int(x) for x in r] for r in rows])

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("MatrixGF is immutable")

    @classmethod
    def _reduced(cls, field: FieldSpec, a: np.ndarray) -> "MatrixGF":
        """The matrix of ``a``, a nonempty 2-d int64 array of residues that no one else writes."""
        m = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "_a", a)
        return m

    @classmethod
    def from_array(cls, field: FieldSpec, a: np.ndarray) -> "MatrixGF":
        """The matrix of a copy of ``a``, reduced mod p."""
        a = np.array(a, dtype=np.int64)
        if a.ndim != 2 or a.size == 0:
            raise DimensionMismatch("matrix needs at least one row and column")
        a %= field.p
        return cls._reduced(field, a)

    rows = property(lambda self: self._a.shape[0])
    cols = property(lambda self: self._a.shape[1])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixGF":
        return cls.from_array(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "MatrixGF":
        return cls.from_array(field, np.zeros((rows, cols), dtype=np.int64))

    def array(self) -> np.ndarray:
        """Read-only numpy view of the entries."""
        return self._a

    def tolists(self) -> list[list[int]]:
        return self._a.tolist()

    def transpose(self) -> "MatrixGF":
        return MatrixGF._reduced(self.field, self._a.T)

    def is_identity(self) -> bool:
        return self.rows == self.cols and bool(
            np.array_equal(self._a, np.eye(self.rows, dtype=np.int64))
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.field, self._a.shape, self._a.tobytes()))

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
    return MatrixGF._reduced(a.field, (a.array() @ b.array()) % a.field.p)


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns).

    Pivoting picks the first nonzero entry in each column, so the result is
    deterministic for a given input.
    """
    m = a % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        # Row r is zero left of c, so columns < c stay as they are.
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        nz = np.nonzero(m[:, c])[0]
        nz = nz[nz != r]
        m[nz, c:] = (m[nz, c:] - np.outer(m[nz, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: MatrixGF) -> int:
    _, pivots = _rref(a.array(), a.field.p)
    return len(pivots)


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
    r, pivots = _rref(np.concatenate([a.array(), b.array()], axis=1), a.field.p)
    if any(c >= a.cols for c in pivots):
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, a.cols:]
    return MatrixGF.from_array(a.field, x)
