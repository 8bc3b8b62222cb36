from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from f4solv.linalg import (
    RatMatrix,
    _echelon_nullspace,
    _triangular_nullspace,
    nullspace,
    solve,
    solve_with_rank,
)


def fractions():
    return st.builds(
        F,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )


def mul_vector(m, v):
    """The product m v, summed row by row in Fractions."""
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return [sum((row[j] * v[j] for j in range(m.cols)), F(0)) for row in m.data]


def matrices(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda rows: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(fractions(), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ).map(RatMatrix)
        )
    )


@st.composite
def upper_triangular(draw, max_dim=6):
    """Diagonal from 2-3 values, so eigenvalues repeat and some are defective:
    up to max_dim x max_dim, or up to 40 x 40 with at most 2 n nonzero
    entries above the diagonal."""
    values = draw(st.lists(fractions(), min_size=2, max_size=3, unique=True))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=max_dim))
        above = st.one_of(st.just(F(0)), fractions())  # zeros keep some repeats whole
        return RatMatrix(
            [
                [F(0)] * i
                + [draw(st.sampled_from(values))]
                + [draw(above) for _ in range(i + 1, n)]
                for i in range(n)
            ]
        )
    n = draw(st.integers(min_value=max_dim + 1, max_value=40))
    data = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        data[i][i] = draw(st.sampled_from(values))
    position = st.integers(0, n - 2).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    for (i, j), x in draw(st.lists(st.tuples(position, fractions()), max_size=2 * n)):
        data[i][j] = x
    return RatMatrix(data)


def gauss_jordan(data):
    """Reduced row echelon form over Fraction, no scaling tricks: the rows
    and the pivot columns."""
    rows = [list(r) for r in data]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def gauss_jordan_kernel(m):
    """Reference kernel: a basis read off the reduced row echelon form."""
    rows, pivots = gauss_jordan(m.data)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[free] = F(1)
        for k, c in enumerate(pivots):
            v[c] = -rows[k][free]
        basis.append((free, v))
    return basis


def gauss_jordan_solve(m, rhs):
    """Reference ``solve_with_rank``: eliminate (m | rhs); a pivot in the
    right-hand column means no solution, otherwise the free variables are
    0 and each pivot variable is its row's right-hand entry."""
    rows, pivots = gauss_jordan([list(row) + [F(v)] for row, v in zip(m.data, rhs)])
    if m.cols in pivots:
        return None, len(pivots) - 1
    x = [F(0)] * m.cols
    for k, c in enumerate(pivots):
        x[c] = rows[k][m.cols]
    return x, len(pivots)


@st.composite
def systems(draw, max_dim=6):
    """(m, rhs) up to 6 x 6.  m is a product of random factors through a
    drawn inner dimension, so it is often rank-deficient; rhs is m x for a
    drawn x (consistent) or drawn freely, which is inconsistent for most
    m without full row rank."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    inner = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    left = [[draw(fractions()) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(fractions()) for _ in range(cols)] for _ in range(inner)]
    m = RatMatrix([
        [sum((row[k] * right[k][j] for k in range(inner)), F(0)) for j in range(cols)]
        for row in left
    ])
    if draw(st.booleans()):
        rhs = mul_vector(m, draw(st.lists(fractions(), min_size=cols, max_size=cols)))
    else:
        rhs = draw(st.lists(fractions(), min_size=rows, max_size=rows))
    return m, rhs


def test_identity_solve_returns_rhs():
    m = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rhs = [F(3), F(-1, 2), F(0), F(7, 3)]
    assert solve(m, rhs) == rhs


def test_zero_rows_are_independent():
    z = RatMatrix([[0, 0]] * 3)
    assert (z.rows, z.cols) == (3, 2)
    view = z.data  # a fresh dense view: writing to it leaves the matrix alone
    view[0][1] = F(5)
    assert [row[1] for row in view] == [5, 0, 0]
    assert z == RatMatrix([[0, 0]] * 3) and z.data == [[0, 0]] * 3
    assert all(type(v) is F for row in z.data for v in row)


def test_zero_matrix_nullspace_is_full():
    basis = nullspace(RatMatrix([[0] * 3] * 3))
    assert len(basis) == 3


def test_inconsistent_system_signals_none():
    m = RatMatrix([[1, 1], [1, 1]])
    assert solve(m, [F(1), F(2)]) is None


def test_underdetermined_particular_solution():
    m = RatMatrix([[1, 1, 0], [0, 0, 1]])
    x = solve(m, [F(2), F(5)])
    assert mul_vector(m, x) == [F(2), F(5)]


def test_rank_reported():
    m = RatMatrix([[1, 2], [2, 4], [0, 1]])
    _, r = solve_with_rank(m, [F(0), F(0), F(0)])
    assert r == 2 == len(gauss_jordan(m.data)[1])


@settings(max_examples=60)
@given(m=matrices())
def test_nullspace_vectors_annihilate(m):
    basis = nullspace(m)
    for v in basis:
        assert all(val == 0 for val in mul_vector(m, v))
    assert len(basis) == m.cols - len(gauss_jordan(m.data)[1])


@settings(max_examples=60)
@given(m=matrices())
def test_nullspace_matches_gauss_jordan(m):
    got = nullspace(m)
    expected = gauss_jordan_kernel(m)
    assert len(got) == len(expected)
    for v, (free, ref) in zip(got, expected):
        # the same vector up to scale, as coprime integers with a positive lead
        assert v == [v[free] * x for x in ref]
        assert all(x.denominator == 1 for x in v)
        lead = next(x for x in v if x)
        assert lead > 0
        g = 0
        for x in v:
            g = gcd(g, x.numerator)
        assert g == 1


def shifted_dense(m, lam):
    """The rows of m - lam I, computed on the dense Fraction view."""
    return [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.data)]


@settings(max_examples=150)
@given(m=upper_triangular())
def test_triangular_kernel_is_the_nullspace_or_reports_a_defect(m):
    diagonal = [m[i, i] for i in range(m.rows)]
    for lam in set(diagonal):
        shifted = m.minus_scalar_identity(lam)
        kernel = _echelon_nullspace(RatMatrix(shifted_dense(m, lam)))
        assert _echelon_nullspace(shifted) == kernel
        got = _triangular_nullspace(shifted.integer_form()[1])
        if len(kernel) < diagonal.count(lam):
            assert got is None
        else:
            assert got == kernel
        assert nullspace(shifted) == kernel


@settings(max_examples=100)
@given(m=st.one_of(upper_triangular(), matrices(4).filter(lambda m: m.rows == m.cols)),
       lam=fractions())
def test_shift_is_derived_over_the_integers(m, lam):
    # the shift's sparse integer rows come from m's; they must be those of M - lam I
    shifted = m.minus_scalar_identity(lam)
    expected = shifted_dense(m, lam)
    d, rows = shifted.integer_form()
    assert all(type(x) is int for row in rows for x in row.values())
    assert rows == [{j: d * x for j, x in enumerate(row) if x} for row in expected]
    assert shifted.data == expected
    assert shifted == RatMatrix(expected)
    below = any(expected[i][j] for i in range(m.rows) for j in range(i))
    assert shifted.is_upper_triangular() == m.is_upper_triangular() == (not below)
    assert nullspace(shifted) == nullspace(RatMatrix(expected))


def test_minus_scalar_identity_copies_rows():
    m = RatMatrix([[1, 2], [0, 3]])
    shifted = m.minus_scalar_identity(F(1, 2))
    assert shifted == RatMatrix([[F(1, 2), 2], [0, F(5, 2)]])
    assert m == RatMatrix([[1, 2], [0, 3]])
    # d * lam an integer, as for every eigenvalue of a matrix over d: the rows keep
    # their scale, and are still copied
    for rows, lam in ([[1, 2], [0, 3]], F(3)), ([[F(1, 2), 1], [0, F(3, 2)]], F(1, 2)):
        m = RatMatrix(rows)
        shifted = m.minus_scalar_identity(lam)
        assert shifted.integer_form()[0] == m.integer_form()[0]
        assert shifted == RatMatrix([[x - lam * (i == j) for j, x in enumerate(r)]
                                     for i, r in enumerate(rows)])
        assert m == RatMatrix(rows)


@settings(max_examples=60)
@given(m=matrices(), data=st.data())
def test_solutions_satisfy_system(m, data):
    rhs = data.draw(st.lists(fractions(), min_size=m.rows, max_size=m.rows))
    x = solve(m, rhs)
    if x is not None:
        assert mul_vector(m, x) == [F(v) for v in rhs]


@settings(max_examples=40)
@given(m=matrices(4), data=st.data())
def test_consistent_systems_are_solved(m, data):
    # build a consistent right-hand side from a known solution
    x = data.draw(st.lists(fractions(), min_size=m.cols, max_size=m.cols))
    rhs = mul_vector(m, x)
    got = solve(m, rhs)
    assert got is not None
    assert mul_vector(m, got) == rhs


@settings(max_examples=200)
@given(system=systems())
def test_solve_matches_gauss_jordan(system):
    m, rhs = system
    want, want_rank = gauss_jordan_solve(m, rhs)
    assert solve_with_rank(m, rhs) == (want, want_rank)
    assert solve(m, rhs) == want
