"""Exact linear algebra over the rationals, on sparse integer rows.

Every kernel runs over ``int``, as do ``spectral``'s block products along
the same rows; ``Fraction`` is only taken and returned.
Systems are solved by fraction-free (Bareiss) elimination on rows scaled
to coprime integers: the two-by-two cross elimination step divides
exactly by the previous pivot, which keeps intermediate entries at
determinant size.  Sparse back-substitution keeps the vector it solves
for integral by scaling it wherever a division would leave the integers.

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
from typing import Optional, Sequence


class RatMatrix:
    """Matrix of exact rationals: a common denominator d and the rows of d
    times the matrix as sparse ``{column: int}`` dicts without zeros.  The
    dense ``Fraction`` rows, ``data``, are built each time they are read."""

    __slots__ = ("rows", "cols", "_d", "_ints")

    def __init__(self, data: Sequence[Sequence[Fraction]]):
        rows = [list(map(Fraction, row)) for row in data]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        d = lcm(*(c.denominator for row in rows for c in row))
        self.rows, self.cols, self._d = len(rows), width, d
        self._ints = [{j: c.numerator * (d // c.denominator) for j, c in enumerate(row) if c}
                      for row in rows]

    @classmethod
    def _sparse(cls, cols: int, d: int, ints: list[dict[int, int]]) -> "RatMatrix":
        """The matrix ``ints / d`` on sparse integer rows: no copy, no checks."""
        out = cls.__new__(cls)
        out.rows, out.cols, out._d, out._ints = len(ints), cols, d, ints
        return out

    @property
    def data(self) -> list[list[Fraction]]:
        zero, d = Fraction(0), self._d  # zero is shared: Fractions are immutable
        return [[Fraction(v, d) if v else zero for v in _dense(r, self.cols)] for r in self._ints]

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return Fraction(self._ints[ij[0]].get(ij[1], 0), self._d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and _times(self._ints, other._d) == _times(other._ints, self._d)
        )

    def integer_form(self) -> tuple[int, list[dict[int, int]]]:
        """``(d, d * self)`` with a common denominator d, as sparse int rows."""
        return self._d, self._ints

    def minus_scalar_identity(self, lam: Fraction) -> "RatMatrix":
        """``self - lam I`` on a copy of the sparse rows, in O(N + nnz)."""
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        d = self._d
        k = lam.denominator // gcd(d, lam.denominator)  # makes d * k * lam integral
        shift = lam.numerator * (d * k // lam.denominator)
        ints = [row.copy() for row in self._ints] if k == 1 else _times(self._ints, k)
        for i, row in enumerate(ints):
            v = row.pop(i, 0) - shift
            if v:
                row[i] = v
        return RatMatrix._sparse(self.cols, d * k, ints)

    def first_below_diagonal(self) -> Optional[tuple[int, int]]:
        """``(i, j)`` of the nonzero entry below the diagonal with the lowest
        column j, then the lowest row i; None for an upper-triangular matrix."""
        below = min(((j, i) for i, r in enumerate(self._ints) for j in r if j < i), default=None)
        return below and below[::-1]

    def is_upper_triangular(self) -> bool:
        # stops at the first entry below the diagonal; a per-row min() is slower on sparse rows
        return not any(True for i, row in enumerate(self._ints) for j in row if j < i)


def _times(ints: Sequence[dict[int, int]], k: int) -> list[dict[int, int]]:
    """Fresh sparse rows, each entry times k."""
    return [{j: k * v for j, v in row.items()} for row in ints]


def _dense(row: dict[int, int], n: int, k: int = 1) -> list[int]:
    """The sparse row times k as a dense int row of length n."""
    out = [0] * n
    for j, v in row.items():
        out[j] = k * v
    return out


def _divide_content(v: list[int]) -> list[int]:
    g = gcd(*v) or 1
    return [x // g for x in v]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[dict[int, int]], list[int]]:
    """Fraction-free row echelon of the rows divided by their contents:
    (the nonzero echelon rows as sparse rows, pivot columns)."""
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
    return [{j: x for j, x in enumerate(row) if x} for row in m[:r]], pivots


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
    n, (d, ints), rhs = matrix.cols, matrix.integer_form(), list(map(Fraction, rhs))
    aug = [_dense(row, n + 1, v.denominator) for row, v in zip(ints, rhs)]
    for row, v in zip(aug, rhs):  # row i of (matrix | rhs) times d and rhs[i]'s denominator
        row[n] = d * v.numerator
    echelon, pivots = _bareiss_echelon(aug)
    if n in pivots:
        return None, len(pivots) - 1  # pivot in the right-hand column
    v = {n: -1}  # (x, -1) spans the kernel of (matrix | rhs) with x free = 0
    _back_substitute(echelon, pivots, v)
    return [Fraction(v.get(c, 0), -v[n]) for c in range(n)], len(pivots)


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


def _back_substitute(rows: Sequence[dict], leads: Sequence[int], v: dict[int, int]) -> bool:
    """Fill the sparse vector ``v`` in place, last row first, so that every
    sparse row annihilates it.

    Row k is zero left of column ``leads[k]``, and ``v`` holds entries right
    of it only.  A nonzero lead entry d sets ``v[leads[k]]``, after scaling
    all of ``v`` by |d| / gcd(acc, d) where d would not divide.  A row with
    a zero lead entry must already annihilate ``v``, else this returns False.
    """
    for k in range(len(rows) - 1, -1, -1):
        c, row = leads[k], rows[k]
        acc = sum([x * v[j] for j, x in row.items() if j in v])
        if not acc:
            continue
        d = row.get(c, 0)
        if not d:
            return False
        s = abs(d) // gcd(acc, d)
        if s > 1:
            for j in v:
                v[j] *= s
            acc *= s
        v[c] = -acc // d
    return True


def _triangular_nullspace(rows: list[dict[int, int]]) -> Optional[list[list[int]]]:
    """Kernel basis of a square upper-triangular matrix's sparse int rows by back-substitution.

    The free columns lie among the zero-diagonal ones.  For each such
    column f this solves for the kernel vector with 1 at f and 0 at every
    other zero-diagonal column, which vanishes past f.  When every such
    vector exists these are the vectors elimination returns.  Returns None
    when a zero-diagonal row cannot be met, which happens exactly when the
    nullity is below the number of zero diagonal entries.
    """
    n = len(rows)
    return _kernel_basis(rows, range(n), [f for f in range(n) if f not in rows[f]], n)


def _echelon_nullspace(matrix: RatMatrix) -> list[list[int]]:
    rows, pivots = _bareiss_echelon([_dense(row, matrix.cols) for row in matrix.integer_form()[1]])
    free = sorted(set(range(matrix.cols)) - set(pivots))
    return _kernel_basis(rows, pivots, free, matrix.cols)


def _kernel_basis(rows, leads, free: list[int], n: int) -> Optional[list[list[int]]]:
    """For each free column f, the kernel vector with 1 at f and 0 at every
    other free column, by back-substitution on the rows that lead left of f."""
    basis = []
    for f in free:
        k = bisect_left(leads, f)
        v = {f: 1}
        if not _back_substitute(rows[:k], leads[:k], v):
            return None
        g = gcd(*v.values())
        if v[min(v)] < 0:  # coprime, positive first nonzero entry
            g = -g
        basis.append(_dense({j: x // g for j, x in v.items()}, n))
    return basis
