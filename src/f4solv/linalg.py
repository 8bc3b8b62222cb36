"""Exact dense linear algebra over the rationals.

Every kernel runs over ``int``; ``Fraction`` is only taken and returned.
Systems are solved by fraction-free (Bareiss) elimination on rows scaled
to coprime integers: the two-by-two cross elimination step divides
exactly by the previous pivot, which keeps intermediate entries at
determinant size.  Back-substitution keeps the vector it solves for
integral by scaling it wherever a division would leave the integers.

``solve`` returns ``None`` for inconsistent systems (a no-solution
signal, not an exception); ``nullspace`` returns a full exact basis,
possibly empty.  The kernel of an upper-triangular matrix, such as
``M - lam I`` in a triangular frame, is found by back-substitution
without elimination.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence


class RatMatrix:
    """Dense row-major matrix of exact rationals.

    Entries are written only while a matrix is filled: its integer form
    and its triangularity are found once, on first use, and a shift by
    ``minus_scalar_identity`` derives both from them (its Fraction rows
    are built only if read).
    """

    __slots__ = ("rows", "cols", "_data", "_scaled", "_upper")

    def __init__(self, data: Sequence[Sequence[Fraction]]):
        rows = [list(map(Fraction, row)) for row in data]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows, self.cols, self._data = len(rows), width, rows
        self._scaled = self._upper = None

    @classmethod
    def _of(cls, data: list[list[Fraction]]) -> "RatMatrix":
        """A matrix on rows that already hold Fractions: no copy, no checks."""
        out = cls.__new__(cls)
        out.rows, out.cols, out._data = len(data), len(data[0]) if data else 0, data
        out._scaled = out._upper = None
        return out

    @property
    def data(self) -> list[list[Fraction]]:
        if self._data is None:
            d, ints = self._scaled
            self._data = [[Fraction(v, d) for v in row] for row in ints]
        return self._data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        zero = Fraction(0)  # shared: Fractions are immutable, writers replace entries
        return cls._of([[zero] * cols for _ in range(rows)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def integer_form(self) -> tuple[int, list[list[int]]]:
        """``(d, d * self)`` with a common denominator d, as int rows."""
        if self._scaled is None:
            self._scaled = _integer_rows(self.data)
        return self._scaled

    def minus_scalar_identity(self, lam: Fraction) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        d, ints = self.integer_form()
        k = lam.denominator // gcd(d, lam.denominator)  # makes d * k * lam integral
        shift = lam.numerator * (d * k // lam.denominator)
        ints = [row[:] for row in ints] if k == 1 else [[k * v for v in row] for row in ints]
        for i in range(self.rows):
            ints[i][i] -= shift
        out = RatMatrix.__new__(RatMatrix)
        out.rows = out.cols = self.rows
        out._data, out._scaled, out._upper = None, (d * k, ints), self._upper  # same shape
        return out

    def is_upper_triangular(self) -> bool:
        if self._upper is None:
            self._upper = _upper_triangular(self.data if self._scaled is None else self._scaled[1])
        return self._upper

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _upper_triangular(data: Sequence[Sequence]) -> bool:
    return all(not any(row[:i]) for i, row in enumerate(data))


def _integer_rows(data: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(d, d * data)`` as int rows, d the lcm of every denominator."""
    d = lcm(*(c.denominator for row in data for c in row))
    return d, [[c.numerator * (d // c.denominator) for c in row] for row in data]


def _divide_content(v: list[int]) -> list[int]:
    g = gcd(*v) or 1
    return [x // g for x in v]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon of the rows divided by their contents:
    (echelon rows, pivot columns)."""
    m = [_divide_content(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        for i in range(r + 1, n_rows):
            head = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, n_cols):
                q, rem = divmod(p * row_i[j] - head * row_r[j], prev)
                if rem:  # Bareiss steps divide exactly; anything else is a bug
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = q
            row_i[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots


def solve(matrix: RatMatrix, rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve ``matrix @ x = rhs`` exactly.

    Returns one exact solution (free variables set to zero) or ``None``
    when the system is inconsistent.
    """
    return solve_with_rank(matrix, rhs)[0]


def solve_with_rank(
    matrix: RatMatrix, rhs: Sequence[Fraction]
) -> tuple[Optional[list[Fraction]], int]:
    """Like ``solve`` but also reports the coefficient-matrix rank."""
    if len(rhs) != matrix.rows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [Fraction(v)] for row, v in zip(matrix.data, rhs)]
    echelon, pivots = _bareiss_echelon(_integer_rows(aug)[1])
    n = matrix.cols
    if n in pivots:
        return None, len(pivots) - 1  # pivot in the right-hand column
    v = [0] * n + [-1]  # (x, -1) spans the kernel of (matrix | rhs) with x free = 0
    _back_substitute(echelon[: len(pivots)], pivots, v)
    return [Fraction(c, -v[n]) for c in v[:n]], len(pivots)


def nullspace(matrix: RatMatrix) -> list[list[Fraction]]:
    """Exact basis of the kernel of ``matrix`` (empty list for full column rank).

    Basis vectors are normalized to coprime integers with a positive
    first nonzero entry, one per free column, in column order.  A square
    upper-triangular matrix is solved by back-substitution when that
    gives the whole kernel, and any other matrix by elimination; both
    routes return the same basis.
    """
    basis = None
    if matrix.rows == matrix.cols and matrix.is_upper_triangular():
        basis = _triangular_nullspace(matrix.integer_form()[1])
    if basis is None:
        basis = _echelon_nullspace(matrix)
    zero = Fraction(0)  # shared: the int kernels become Fractions only here
    return [[Fraction(x) if x else zero for x in v] for v in basis]


def _back_substitute(rows: Sequence[list[int]], leads: Sequence[int], v: list[int]) -> bool:
    """Fill ``v`` in place, last row first, so that every row annihilates it.

    Row k is zero left of column ``leads[k]``, and ``v`` is zero past its
    end.  A nonzero lead entry d sets ``v[leads[k]]``, after scaling all of
    ``v`` by |d| / gcd(acc, d) where d would not divide.  A row with a zero
    lead entry must already annihilate ``v``, else this returns False.
    """
    end = len(v)
    for k in range(len(rows) - 1, -1, -1):
        c, row = leads[k], rows[k]
        acc = sum(map(mul, row[c + 1:end], v[c + 1:]))
        if not acc:
            continue
        d = row[c]
        if not d:
            return False
        s = abs(d) // gcd(acc, d)
        if s > 1:
            v[:] = [s * x for x in v]
            acc *= s
        v[c] = -acc // d
    return True


def _triangular_nullspace(rows: list[list[int]]) -> Optional[list[list[int]]]:
    """Kernel basis of a square upper-triangular integer matrix by back-substitution.

    The free columns lie among the zero-diagonal ones.  For each such
    column f this solves for the kernel vector with 1 at f and 0 at every
    other zero-diagonal column, which vanishes past f.  When every such
    vector exists these are the vectors elimination returns.  Returns None
    when a zero-diagonal row cannot be met, which happens exactly when the
    nullity is below the number of zero diagonal entries.
    """
    n = len(rows)
    return _kernel_basis(rows, range(n), [f for f in range(n) if not rows[f][f]], n)


def _echelon_nullspace(matrix: RatMatrix) -> list[list[int]]:
    rows, pivots = _bareiss_echelon(matrix.integer_form()[1])
    free = sorted(set(range(matrix.cols)) - set(pivots))
    return _kernel_basis(rows, pivots, free, matrix.cols)


def _kernel_basis(rows, leads, free: list[int], n: int) -> Optional[list[list[int]]]:
    """For each free column f, the kernel vector with 1 at f and 0 at every
    other free column, by back-substitution on the rows that lead left of f."""
    basis = []
    for f in free:
        k = bisect_left(leads, f)
        v = [0] * f + [1]
        if not _back_substitute(rows[:k], leads[:k], v):
            return None
        v = _divide_content(v + [0] * (n - f - 1))  # coprime, positive first nonzero entry
        basis.append([-x for x in v] if next(x for x in v if x) < 0 else v)
    return basis
