"""Exact dense linear algebra over the rationals.

Systems are solved by fraction-free (Bareiss) elimination: each row is
first scaled to integers, after which the two-by-two cross elimination
step divides exactly by the previous pivot.  This keeps intermediate
entries at determinant size instead of letting numerators and
denominators blow up independently, which is the main cost driver for
the operator matrices around level 8.

``solve`` returns ``None`` for inconsistent systems (a no-solution
signal, not an exception); ``nullspace`` returns a full exact basis,
possibly empty.  The kernel of an upper-triangular matrix, such as
``M - lam I`` in a triangular frame, is found by back-substitution
without elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


class RatMatrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Fraction]]):
        rows = [list(map(Fraction, row)) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def column(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    def mul_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum((row[j] * v[j] for j in range(self.cols)), Fraction(0)) for row in self.data]

    def minus_scalar_identity(self, lam: Fraction) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        out = RatMatrix.__new__(RatMatrix)  # entries are Fractions already
        out.rows, out.cols, out.data = self.rows, self.cols, [row[:] for row in self.data]
        for i in range(self.rows):
            out.data[i][i] = out.data[i][i] - lam
        return out

    def is_upper_triangular(self) -> bool:
        return all(not any(row[:i]) for i, row in enumerate(self.data))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _integer_rows(data: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in data:
        scale = lcm(*(c.denominator for c in row)) if row else 1
        ints = [int(c * scale) for c in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon; returns (matrix, pivot columns)."""
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
    if not aug:
        return [], 0
    echelon, pivots = _bareiss_echelon(_integer_rows(aug))
    n = matrix.cols
    if n in pivots:
        return None, len(pivots) - 1  # pivot in the right-hand column
    x = [Fraction(0)] * n
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        row = echelon[k]
        acc = Fraction(row[n])
        for j in range(c + 1, n):
            if row[j]:
                acc -= row[j] * x[j]
        x[c] = acc / row[c]
    return x, len(pivots)


def nullspace(matrix: RatMatrix) -> list[list[Fraction]]:
    """Exact basis of the kernel of ``matrix`` (empty list for full column rank).

    Basis vectors are normalized to coprime integers with a positive
    first nonzero entry, one per free column, in column order.  A square
    upper-triangular matrix is solved by back-substitution when that
    gives the whole kernel, and any other matrix by elimination; both
    routes return the same basis.
    """
    if matrix.rows == matrix.cols and matrix.is_upper_triangular():
        basis = _triangular_nullspace(matrix.data)
        if basis is not None:
            return basis
    return _echelon_nullspace(matrix)


def _triangular_nullspace(data: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Kernel basis of a square upper-triangular matrix by back-substitution.

    A column with a nonzero diagonal entry is independent of the columns
    before it, so the free columns lie among the zero-diagonal ones.  For
    each zero-diagonal column f this solves for the kernel vector with 1
    at f and 0 at every other zero-diagonal column: it vanishes past f,
    and rows f-1 down to 0 each fix one entry.  When every such vector
    exists the free columns are exactly the zero-diagonal ones and these
    are the vectors elimination returns.  Returns None when a zero-diagonal
    row cannot be met, which happens exactly when the nullity is below
    the number of zero diagonal entries.
    """
    n = len(data)
    basis = []
    for f in range(n):
        if data[f][f]:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        support = [f]  # indices of the nonzero entries of v
        for i in range(f - 1, -1, -1):
            row = data[i]
            acc = sum(row[j] * v[j] for j in support if row[j])
            if row[i]:
                if acc:
                    v[i] = -acc / row[i]
                    support.append(i)
            elif acc:
                return None
        basis.append(_normalize_primitive(v))
    return basis


def _echelon_nullspace(matrix: RatMatrix) -> list[list[Fraction]]:
    n = matrix.cols
    if n == 0:
        return []
    if matrix.rows == 0:
        rows, pivots = [], []
    else:
        rows, pivots = _bareiss_echelon(_integer_rows(matrix.data))
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            if c > free:
                continue
            row = rows[k]
            acc = Fraction(0)
            for j in range(c + 1, n):
                if row[j] and v[j]:
                    acc += row[j] * v[j]
            v[c] = -acc / row[c]
        basis.append(_normalize_primitive(v))
    return basis


def _normalize_primitive(v: list[Fraction]) -> list[Fraction]:
    scale = lcm(*(c.denominator for c in v))
    ints = [int(c * scale) for c in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def rank(matrix: RatMatrix) -> int:
    if matrix.rows == 0 or matrix.cols == 0:
        return 0
    _, pivots = _bareiss_echelon(_integer_rows(matrix.data))
    return len(pivots)
