from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from f4solv.linalg import (
    RatMatrix,
    _echelon_nullspace,
    _triangular_nullspace,
    nullspace,
    rank,
    solve,
    solve_with_rank,
)


def fractions():
    return st.builds(
        F,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )


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
    """Diagonal from 2-3 values, so eigenvalues repeat and some are defective."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    values = draw(st.lists(fractions(), min_size=2, max_size=3, unique=True))
    above = st.one_of(st.just(F(0)), fractions())  # zeros keep some repeats whole
    return RatMatrix(
        [
            [F(0)] * i
            + [draw(st.sampled_from(values))]
            + [draw(above) for _ in range(i + 1, n)]
            for i in range(n)
        ]
    )


def gauss_jordan_kernel(m):
    """Reference kernel: reduced row echelon form over Fraction, no scaling tricks."""
    rows = [list(r) for r in m.data]
    pivots = []
    for c in range(m.cols):
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
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[free] = F(1)
        for k, c in enumerate(pivots):
            v[c] = -rows[k][free]
        basis.append((free, v))
    return basis


def test_identity_solve_returns_rhs():
    m = RatMatrix.identity(4)
    rhs = [F(3), F(-1, 2), F(0), F(7, 3)]
    assert solve(m, rhs) == rhs


def test_zero_matrix_nullspace_is_full():
    basis = nullspace(RatMatrix.zero(3, 3))
    assert len(basis) == 3


def test_inconsistent_system_signals_none():
    m = RatMatrix([[1, 1], [1, 1]])
    assert solve(m, [F(1), F(2)]) is None


def test_underdetermined_particular_solution():
    m = RatMatrix([[1, 1, 0], [0, 0, 1]])
    x = solve(m, [F(2), F(5)])
    assert m.mul_vector(x) == [F(2), F(5)]


def test_rank_reported():
    m = RatMatrix([[1, 2], [2, 4], [0, 1]])
    _, r = solve_with_rank(m, [F(0), F(0), F(0)])
    assert r == 2 == rank(m)


@settings(max_examples=60)
@given(m=matrices())
def test_nullspace_vectors_annihilate(m):
    basis = nullspace(m)
    for v in basis:
        assert all(val == 0 for val in m.mul_vector(v))
    assert len(basis) == m.cols - rank(m)


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


@settings(max_examples=150)
@given(m=upper_triangular())
def test_triangular_kernel_is_the_nullspace_or_reports_a_defect(m):
    diagonal = [m[i, i] for i in range(m.rows)]
    for lam in set(diagonal):
        shifted = m.minus_scalar_identity(lam)
        kernel = _echelon_nullspace(shifted)
        got = _triangular_nullspace(shifted.data)
        if len(kernel) < diagonal.count(lam):
            assert got is None
        else:
            assert got == kernel
        assert nullspace(shifted) == kernel


def test_minus_scalar_identity_copies_rows():
    m = RatMatrix([[1, 2], [0, 3]])
    shifted = m.minus_scalar_identity(F(1, 2))
    assert shifted == RatMatrix([[F(1, 2), 2], [0, F(5, 2)]])
    assert m == RatMatrix([[1, 2], [0, 3]])


@settings(max_examples=60)
@given(m=matrices(), data=st.data())
def test_solutions_satisfy_system(m, data):
    rhs = data.draw(st.lists(fractions(), min_size=m.rows, max_size=m.rows))
    x = solve(m, rhs)
    if x is not None:
        assert m.mul_vector(x) == [F(v) for v in rhs]


@settings(max_examples=40)
@given(m=matrices(4), data=st.data())
def test_consistent_systems_are_solved(m, data):
    # build a consistent right-hand side from a known solution
    x = data.draw(st.lists(fractions(), min_size=m.cols, max_size=m.cols))
    rhs = m.mul_vector(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.mul_vector(got) == rhs
