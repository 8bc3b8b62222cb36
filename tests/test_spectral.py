from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4solv import linalg, spectral
from f4solv.errors import ClosureError, F4SolvError
from f4solv.flags import GradedBasis, enumerate_basis, flag_dimension, preserves_flag
from f4solv.linalg import RatMatrix
from f4solv.operators import SecondOrderOp
from f4solv.poly import MPoly, build_triangular_map, format_fraction
from f4solv.models import (
    ModelParams,
    build_rational_operator,
    build_rho_map,
    build_trig_operator,
    trig_a_table,
    trig_b_table,
)
from f4solv.spectral import (
    SpectralLine,
    attach_closed_form,
    closed_form_energy_rational,
    closed_form_energy_trig,
    compare_closed_form,
    degeneracy_count,
    eigenfunctions,
    fit_energy_affine,
    spectrum_from_matrix,
    weighted_level,
    _diagonal,
    _eigenpairs,
    _eigenspace,
)
from tests.conftest import RATIONAL_SETS, TRIG_SETS

MINIMAL = (1, 2, 2, 3)


def brute_force_degeneracy(n):
    return sum(
        1
        for p in product(range(n + 1), repeat=4)
        if p[0] + 3 * p[1] + 4 * p[2] + 6 * p[3] == n
    )


class TestClosedForms:
    def test_rational_ground_value(self, rational_params):
        nu, mu, w = rational_params.nu, rational_params.mu, rational_params.omega
        assert closed_form_energy_rational((0, 0, 0, 0), rational_params) == 2 * (
            2 + 12 * mu + 12 * nu
        ) * w

    def test_rational_equidistance(self, rational_params):
        w = rational_params.omega
        e0 = closed_form_energy_rational((0, 0, 0, 0), rational_params)
        e1 = closed_form_energy_rational((1, 0, 0, 0), rational_params)
        assert e1 - e0 == 2 * w

    def test_rational_couplings_enter_only_additively(self):
        gaps = set()
        for params in RATIONAL_SETS[:2]:
            p = ModelParams(nu=params.nu, mu=params.mu, omega=F(1))
            e0 = closed_form_energy_rational((0, 0, 0, 0), p)
            gaps.add(
                tuple(
                    closed_form_energy_rational(qn, p) - e0
                    for qn in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
                )
            )
        assert len(gaps) == 1

    def test_trig_ground_value(self, trig_params):
        nu, mu, b2 = trig_params.nu, trig_params.mu, trig_params.beta2
        expected = 4 * b2 * (7 * nu**2 + 14 * mu**2 + 18 * nu * mu)
        assert closed_form_energy_trig((0, 0, 0, 0), trig_params) == expected

    def test_trig_first_gap(self, trig_params):
        nu, mu, b2 = trig_params.nu, trig_params.mu, trig_params.beta2
        e0 = closed_form_energy_trig((0, 0, 0, 0), trig_params)
        e1 = closed_form_energy_trig((1, 0, 0, 0), trig_params)
        assert e1 - e0 == 4 * b2 * (1 + 5 * nu + 6 * mu)

    def test_trig_second_difference(self, trig_params):
        b2 = trig_params.beta2
        vals = [
            closed_form_energy_trig((k, 0, 0, 0), trig_params) for k in range(3)
        ]
        assert vals[2] - 2 * vals[1] + vals[0] == 8 * b2


def reference_energy_rational(p, params):
    """The closed forms over Fraction, the former implementation."""
    return 2 * (weighted_level(p) + 2 + 12 * params.mu + 12 * params.nu) * params.omega


def reference_energy_trig(p, params):
    beta2, nu, mu = params.beta2, params.nu, params.mu
    p1, p3, p4, p6 = (F(v) for v in p)
    quad = (
        p1 * (p1 + 2 * p3 + 3 * p4 + 4 * p6)
        + 2 * p3 * (p3 + 2 * p4 + 3 * p6)
        + p4 * (3 * p4 + 8 * p6)
        + 6 * p6 * p6
        + nu * (5 * p1 + 6 * p3 + 9 * p4 + 12 * p6)
        + 2 * mu * (3 * p1 + 5 * p3 + 6 * p4 + 9 * p6)
    )
    return 4 * quad * beta2 + 4 * beta2 * (7 * nu**2 + 14 * mu**2 + 18 * nu * mu)


@settings(max_examples=200)
@given(
    p=st.tuples(*[st.integers(min_value=0, max_value=40)] * 4),
    couplings=st.tuples(*[st.builds(F, st.integers(-50, 50), st.integers(1, 30))] * 3),
)
def test_closed_forms_match_the_fraction_reference(p, couplings):
    nu, mu, third = couplings
    rational = ModelParams(nu=nu, mu=mu, omega=third)
    trig = ModelParams(nu=nu, mu=mu, beta2=third)
    got = closed_form_energy_rational(p, rational)
    assert type(got) is F and got == reference_energy_rational(p, rational)
    got = closed_form_energy_trig(p, trig)
    assert type(got) is F and got == reference_energy_trig(p, trig)


class TestDegeneracy:
    @pytest.mark.parametrize("n,count", [(0, 1), (3, 2), (6, 5)])
    def test_reference_counts(self, n, count):
        assert degeneracy_count(n) == count

    @pytest.mark.parametrize("n", range(12))
    def test_against_brute_force(self, n):
        assert degeneracy_count(n) == brute_force_degeneracy(n)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            degeneracy_count(-1)


class TestSpectrum:
    def test_level_one_lines(self, rational_op, rational_params):
        spectrum = spectrum_from_matrix(rational_op, MINIMAL, 1)
        assert spectrum.strict
        assert [(l.quantum_numbers, l.eigenvalue) for l in spectrum.lines] == [
            ((0, 0, 0, 0), 0),
            ((1, 0, 0, 0), 2 * rational_params.omega),
        ]

    def test_rational_diagonal_is_linear_in_level(self, rational_op, rational_params):
        spectrum = spectrum_from_matrix(rational_op, MINIMAL, 6)
        w = rational_params.omega
        assert all(l.eigenvalue == 2 * w * weighted_level(l.quantum_numbers) for l in spectrum.lines)

    def test_rational_affine_relation_across_parameter_sets(self):
        for params in RATIONAL_SETS:
            op = build_rational_operator(params)
            spectrum = spectrum_from_matrix(op, MINIMAL, 6)
            lines = attach_closed_form(spectrum.lines, "rational", params)
            fit = fit_energy_affine(lines)
            assert fit.exact
            assert fit.scale == 1
            assert fit.offset == closed_form_energy_rational((0, 0, 0, 0), params)

    def test_rational_gaps_are_coupling_independent(self):
        pairs = [(F(1, 3), F(1, 5)), (F(2), F(3)), (F(5, 2), F(1, 7))]
        gap_sets = set()
        for nu, mu in pairs:
            op = build_rational_operator(ModelParams(nu=nu, mu=mu, omega=F(1)))
            spectrum = spectrum_from_matrix(op, MINIMAL, 6)
            zero = next(
                l.eigenvalue for l in spectrum.lines if l.quantum_numbers == (0, 0, 0, 0)
            )
            gap_sets.add(
                tuple(
                    sorted((l.quantum_numbers, l.eigenvalue - zero) for l in spectrum.lines)
                )
            )
        assert len(gap_sets) == 1

    def test_rational_eigenvalues_live_on_the_even_lattice(self, rational_op, rational_params):
        spectrum = spectrum_from_matrix(rational_op, MINIMAL, 8)
        w = rational_params.omega
        assert all((l.eigenvalue / (2 * w)).denominator == 1 for l in spectrum.lines)
        assert all(l.eigenvalue >= 0 for l in spectrum.lines)

    def test_multiplicities_match_degeneracy_counts(self, rational_op, rational_params):
        spectrum = spectrum_from_matrix(rational_op, MINIMAL, 8)
        w = rational_params.omega
        mult = Counter(l.eigenvalue for l in spectrum.lines)
        for level in range(9):
            assert mult[2 * w * level] == degeneracy_count(level)

    def test_trig_rho_diagonal_matches_closed_form_affinely(self):
        for params in TRIG_SETS:
            op = build_trig_operator(params)
            fwd, inv = build_rho_map(params.beta2)
            spectrum = spectrum_from_matrix(op.change_variables(fwd, inv), MINIMAL, 4)
            assert spectrum.strict
            lines = attach_closed_form(spectrum.lines, "trig", params)
            fit = fit_energy_affine(lines)
            assert fit.exact
            assert fit.scale == F(-1, 2)
            assert fit.offset == closed_form_energy_trig((0, 0, 0, 0), params)

    def test_tau_spectrum_through_the_rho_shear_is_the_rho_diagonal(self, trig_op, rho_op):
        for level in (4, 5, 6, 8):
            tau = spectrum_from_matrix(trig_op, MINIMAL, level)
            strict = spectrum_from_matrix(rho_op, MINIMAL, level)
            assert not tau.strict and strict.strict
            assert tau.basis.monomials == enumerate_basis(MINIMAL, level, "tau").monomials
            assert [l.eigenvalue for l in tau.lines] == sorted(l.eigenvalue for l in strict.lines)
            assert all(l.quantum_numbers is None for l in tau.lines)

    @pytest.mark.parametrize("beta2", ["1/4", "-3/7", "1", "4"])
    def test_the_tau_frame_is_read_at_the_beta2_of_its_own_a11(self, beta2):
        # tau1^2 and tau3 feed each other from level 2 on; levels 0 and 1 are
        # triangular, and the cyclic levels read the rho diagonal at this beta2
        op = build_trig_operator(ModelParams(F(1, 3), F(1, 8), beta2=F(beta2)))
        level_one = spectrum_from_matrix(op, MINIMAL, 1)
        assert level_one.strict and all(l.quantum_numbers for l in level_one.lines)
        rho = op.change_variables(*build_rho_map(F(beta2)))
        for level in (2, 4):
            tau = spectrum_from_matrix(op, MINIMAL, level)
            assert not tau.strict and all(l.quantum_numbers is None for l in tau.lines)
            want = sorted(l.eigenvalue for l in spectrum_from_matrix(rho, MINIMAL, level).lines)
            assert [l.eigenvalue for l in tau.lines] == want

    def test_a_shear_that_leaves_the_flag_is_not_used(self):
        # at nu = -2/3 the tau operator keeps (1,2,2,2) at level 2, where the rho
        # image of tau6 has the grade-3 term tau1 tau4: the rho matrix on P_2 is
        # not similar to the tau one, so the tau frame's cyclic block raises,
        # naming the flag the shear leaves
        op = build_trig_operator(ModelParams(F(-2, 3), F(1, 8), beta2=F(1, 4)))
        assert preserves_flag(op, (1, 2, 2, 2), 2)
        with pytest.raises(F4SolvError, match=r"^the grade 2 diagonal block is cyclic, so its "
                           r"eigenvalues are not on the diagonal; the rho shear does not keep "
                           r"the flag \(1, 2, 2, 2\)$"):
            spectrum_from_matrix(op, (1, 2, 2, 2), 2)

    def test_a_tau_operator_at_beta2_zero_is_not_sheared(self):
        # no tau1^2 term in A[1,1] reads as beta2 = 0, where the rho shear is singular:
        # the cyclic block raises with no hint
        t3, t4 = MPoly.variable("tau", 1), MPoly.variable("tau", 2)
        swap = SecondOrderOp("tau", {}, {3: t4, 4: 2 * t3})  # tau3 and tau4 share grade 2
        with pytest.raises(F4SolvError, match=r"^the grade 2 diagonal block is cyclic, so its "
                           r"eigenvalues are not on the diagonal$"):
            spectrum_from_matrix(swap, MINIMAL, 2)

    # t3 d/dt1 + 2 t1 d/dt3 swaps t1 and t3: a cycle in the grade-1 block,
    # whose eigenvalues (0, 0 and the irrational +-sqrt(2)) are not on its diagonal
    SWAP_MESSAGE = r"^the grade 1 diagonal block is cyclic, so its eigenvalues are not on the diagonal"

    @staticmethod
    def swap_op():
        t1, t3 = MPoly.variable("t", 0), MPoly.variable("t", 1)
        return SecondOrderOp("t", {}, {1: t3, 3: 2 * t1})

    def test_a_cyclic_block_raises_naming_its_grade(self):
        with pytest.raises(F4SolvError, match=self.SWAP_MESSAGE):
            spectrum_from_matrix(self.swap_op(), (1, 1, 1, 1), 1)

    def test_eigenfunctions_raise_on_a_cyclic_block(self):
        with pytest.raises(F4SolvError, match=self.SWAP_MESSAGE):
            eigenfunctions(self.swap_op(), (1, 1, 1, 1), 1)

    def test_the_rational_non_minimal_flags_are_acyclic_not_triangular(self):
        # (1,2,3,4) and (1,2,3,5) from level 6, (1,3,4,5) at level 8: the diagonal, unlabelled
        for params in RATIONAL_SETS + [ModelParams(F(1, 3), F(1, 5), omega=F(0))]:
            op = build_rational_operator(params)
            for f, level in (((1, 2, 3, 4), 6), ((1, 2, 3, 5), 8), ((1, 3, 4, 5), 8)):
                spectrum = spectrum_from_matrix(op, f, level)
                assert not spectrum.strict
                w = params.omega
                want = sorted(2 * w * weighted_level(m) for m in spectrum.basis.monomials)
                assert [l.eigenvalue for l in spectrum.lines] == want

    def test_unpreserved_flag_raises_closure_error(self, rational_op):
        with pytest.raises(ClosureError):
            spectrum_from_matrix(rational_op, (1, 1, 1, 1), 4)


def flag_shear(frame, a, b, c, d, e, f):
    """A shear whose corrections stay within their variable's (1,2,2,3)-grade."""
    v1, v3, v4, _ = (MPoly.variable(frame, s) for s in range(4))
    corrections = {
        1: a * v1**2,
        2: b * v1**2 + c * v3,
        3: d * v1**3 + e * v1 * v3 + f * v1 * v4,
    }
    return build_triangular_map(frame, frame, corrections)


@settings(max_examples=20, deadline=None)
@given(
    model=st.sampled_from(["rational", "trig"]),
    coeffs=st.tuples(
        *[st.builds(F, st.integers(min_value=-3, max_value=3), st.integers(1, 3))] * 6
    ),
)
def test_flag_preserving_shears_keep_the_spectrum(rational_op, trig_op, model, coeffs):
    # P_6 holds every level up to 6.  The moved matrix may be cyclic, so the
    # spectrum is certified by eigenspaces: the moved operator's kernels at the
    # eigenvalues of op span P_6, and every pair passes the residual certificate
    op = rational_op if model == "rational" else trig_op
    level = 6
    fwd, inv = flag_shear(op.frame, *coeffs)
    moved = op.change_variables(fwd, inv)
    before = spectrum_from_matrix(op, MINIMAL, level)
    basis, mat = spectral._flag_matrix(moved, MINIMAL, level)
    report = _eigenpairs(moved, before._replace(basis=basis, matrix=mat))
    assert not report.defective
    assert len(report.lines) == flag_dimension(MINIMAL, level)
    assert Counter(l.eigenvalue for l in report.lines) == Counter(
        l.eigenvalue for l in before.lines
    )


@pytest.fixture
def no_elimination(monkeypatch):
    # strictly triangular frames back-substitute; elimination is only for
    # the block path and defective eigenvalues
    def refuse(rows):
        raise AssertionError("elimination in a strictly triangular frame")

    monkeypatch.setattr(linalg, "_bareiss_echelon", refuse)


class TestEigenfunctions:
    def test_ground_line(self, rational_op):
        report = eigenfunctions(rational_op, MINIMAL, 0)
        (line,) = report.lines
        assert line.eigenvalue == 0
        assert line.eigenfunction == 1

    def test_first_excited_shift(self, rational_op, rational_params):
        nu, mu, w = rational_params.nu, rational_params.mu, rational_params.omega
        report = eigenfunctions(rational_op, MINIMAL, 1)
        line = next(l for l in report.lines if l.eigenvalue == 2 * w)
        psi = line.eigenfunction
        scaled = psi * (1 / psi.coefficient((1, 0, 0, 0)))
        shift = scaled.constant_value()
        assert shift == 12 * (nu + mu + F(1, 6)) / w
        # the residual identity pins the shift sign
        assert (rational_op.apply(scaled) - 2 * w * scaled).is_zero()

    def test_all_residuals_vanish_rational(self, rational_op, no_elimination):
        report = eigenfunctions(rational_op, MINIMAL, 6)
        assert not report.defective
        for line in report.lines:
            residual = rational_op.apply(line.eigenfunction) - line.eigenvalue * line.eigenfunction
            assert residual.is_zero()

    def test_all_residuals_vanish_trig_rho(self, rho_op, no_elimination):
        report = eigenfunctions(rho_op, MINIMAL, 4)
        assert not report.defective
        for line in report.lines:
            residual = rho_op.apply(line.eigenfunction) - line.eigenvalue * line.eigenfunction
            assert residual.is_zero()

    def test_wrong_eigenvector_fails_the_residual_certificate(self, rational_op, monkeypatch):
        def wrong(mat, lam, multiplicity):
            return [[F(1)] * mat.rows], None  # not an eigenvector

        monkeypatch.setattr(spectral, "_eigenspace", wrong)
        with pytest.raises(F4SolvError, match="nonzero residual"):
            eigenfunctions(rational_op, MINIMAL, 2)

    def test_tau_frame_goes_through_elimination(self, trig_op, monkeypatch):
        calls = []
        eliminate = linalg._bareiss_echelon

        def counted(rows):
            calls.append(rows)
            return eliminate(rows)

        # the block-triangular matrix is not upper triangular: every
        # eigenspace goes through elimination
        monkeypatch.setattr(linalg, "_bareiss_echelon", counted)
        report = eigenfunctions(trig_op, MINIMAL, 4)
        assert not report.defective
        assert len(report.lines) == flag_dimension(MINIMAL, 4)
        assert len(calls) == len({l.eigenvalue for l in report.lines})
        for line in report.lines:
            residual = trig_op.apply(line.eigenfunction) - line.eigenvalue * line.eigenfunction
            assert residual.is_zero()

    def test_defective_eigenvalue_is_reported(self):
        # a Jordan block: back-substitution fails, elimination gives the record
        kernel, defect = _eigenspace(RatMatrix([[3, 1], [0, 3]]), F(3), 2)
        assert kernel == [[F(1), F(0)]]
        assert defect == {
            "eigenvalue": "3",
            "algebraic_multiplicity": 2,
            "geometric_multiplicity": 1,
        }
        assert _eigenspace(RatMatrix([[3, 0], [0, 3]]), F(3), 2) == (
            [[F(1), F(0)], [F(0), F(1)]],
            None,
        )

    def test_eigenfunction_count_equals_dimension(self, rational_op):
        report = eigenfunctions(rational_op, MINIMAL, 6)
        assert len(report.lines) == flag_dimension(MINIMAL, 6)

    def test_degenerate_eigenspace_is_returned_whole(self, rational_op, rational_params):
        w = rational_params.omega
        report = eigenfunctions(rational_op, MINIMAL, 3)
        lines = [l for l in report.lines if l.eigenvalue == 6 * w]
        assert len(lines) == 2  # t1^3-led and t3-led states share the level
        leads = {l.quantum_numbers for l in lines}
        assert leads == {(3, 0, 0, 0), (0, 1, 0, 0)}


def test_nullspace_of_shifted_level_one_matrix(rational_op, rational_params):
    # the kernel of (M - 2 omega I) on P_1 is exactly the first excited state
    from f4solv.flags import enumerate_basis
    from f4solv.linalg import nullspace
    from f4solv.operators import op_matrix

    basis = enumerate_basis(MINIMAL, 1)
    mat = op_matrix(rational_op, basis).matrix
    kernel = nullspace(mat.minus_scalar_identity(2 * rational_params.omega))
    assert len(kernel) == 1
    coeffs = kernel[0]
    assert coeffs[1] != 0  # the t1 coordinate leads


@st.composite
def permuted_triangular(draw, max_dim=8):
    """(P T P^-1, diagonal of T): T upper triangular with int entries over a
    denominator, its diagonal with repeats, and P a permutation matrix."""
    n = draw(st.integers(1, max_dim))
    d = draw(st.integers(1, 12))
    entry = st.integers(-9, 9)
    diagonal = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    upper = [[diagonal[i] if i == j else draw(entry) if i < j else 0 for j in range(n)]
             for i in range(n)]
    sigma = draw(st.permutations(range(n)))
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            data[sigma[i]][sigma[j]] = F(upper[i][j], d)
    return RatMatrix(data), [F(v, d) for v in diagonal]


def one_grade_basis(n):
    """n monomials of (1,1,1,1)-grade 3, so any matrix on them is block triangular."""
    return GradedBasis((1, 1, 1, 1), tuple(m for m in product(range(4), repeat=4) if sum(m) == 3)[:n])


def one_grade_diagonal(rows):
    """``_diagonal`` of the Fraction matrix ``rows`` on ``one_grade_basis``."""
    return _diagonal(one_grade_basis(len(rows)), RatMatrix([[F(v) for v in row] for row in rows]))


#: the grade-3 block of ``one_grade_basis`` is cyclic
GRADE_3_CYCLE = r"^the grade 3 diagonal block is cyclic, so its eigenvalues are not on the diagonal"


class TestDiagonal:
    def test_small_triangular_block(self):
        assert one_grade_diagonal([[2, 1], [0, 3]]) == [2, 3]

    def test_lower_triangular_block_is_acyclic(self):
        # triangular in the reversed order of the basis
        assert one_grade_diagonal([[1, 0, 0], [5, 2, 0], [7, 8, 3]]) == [1, 2, 3]

    def test_repeated_and_fractional_entries(self):
        jordan = [[3, 1, 0], [0, 3, 1], [0, 0, 3]]
        assert one_grade_diagonal(jordan) == [3, 3, 3]
        assert one_grade_diagonal([[F(1, 3), 1], [0, F(-7, 5)]]) == [F(1, 3), F(-7, 5)]

    def test_zero_block(self):
        assert one_grade_diagonal([[0] * 3 for _ in range(3)]) == [0, 0, 0]

    def test_entries_of_any_size_are_read_exactly(self):
        # 2^61 - 1 and 2^4423 are past a trial division and past the largest
        # Mersenne modulus of a root search; the diagonal needs neither
        assert one_grade_diagonal([[2**61 - 1, 1], [0, 3]]) == [2**61 - 1, 3]
        assert one_grade_diagonal([[2 - 2**61]]) == [2 - 2**61]
        assert one_grade_diagonal([[2**4423, 0], [0, 1]]) == [2**4423, 1]
        assert one_grade_diagonal([[F(3, 2**4430), 1], [0, F(1, 2**4430)]]) == [
            F(3, 2**4430), F(1, 2**4430)]

    def test_a_far_off_cluster_in_a_permuted_order_is_read_exactly(self):
        # four close diagonal entries near 7.6e14 and one near -1.2e15, triangular
        # in the order 1, 3, 4, 0, 2 of the basis
        c = 755153512521398
        diagonal = [c + 1, c, c - 3, c - 2000000000000000, c - 2]
        order = [1, 3, 4, 0, 2]
        upper = [[8, 4, 3, -4], [4, 1, 2], [-1, -4000000000000000], [-2]]
        rows = [[0] * 5 for _ in range(5)]
        for i, a in enumerate(order):
            rows[a][a] = diagonal[i]
            for j, v in enumerate(upper[i] if i < 4 else (), start=i + 1):
                rows[a][order[j]] = v
        assert Counter(one_grade_diagonal(rows)) == Counter(diagonal)

    @pytest.mark.parametrize("rows", [
        [[2, 1], [2, 3]],  # eigenvalues 1 and 4, not its diagonal 2 and 3
        [[5, 5], [5, 5]],  # eigenvalues 0 and 10
        [[0, 1], [2, 0]],  # eigenvalues +-sqrt(2)
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # a 3-cycle through every index
    ], ids=["rational-spectrum", "full", "irrational", "three-cycle"])
    def test_a_coupled_block_raises(self, rows):
        with pytest.raises(F4SolvError, match=GRADE_3_CYCLE):
            one_grade_diagonal(rows)

    def test_the_far_off_coupled_cluster_raises(self):
        # the same cluster with 1 and 2 feeding each other
        c = 755153512521398
        rows = [
            [c + 1, 8, 4, 3, -4],
            [0, c, 4, 1, 2],
            [0, -2, c - 3, -1, 0],
            [0, -4000000000000000, -8, c - 2000000000000002, -2],
            [0, 0, 0, 0, c],
        ]
        with pytest.raises(F4SolvError, match=GRADE_3_CYCLE):
            one_grade_diagonal(rows)

    def test_the_lowest_cyclic_grade_is_named(self):
        # a grade-1 index feeds a 2-cycle at grade 2, which feeds a grade-3
        # index: neither the cycle nor the index it feeds leaves, and the
        # message names the cycle's grade, not the higher one
        basis = enumerate_basis((1, 1, 1, 1), 3)
        grades = basis.grades()
        g1, (a, b), g3 = grades.index(1), [k for k, g in enumerate(grades) if g == 2][:2], grades.index(3)
        data = [[F(0)] * len(basis) for _ in range(len(basis))]
        data[g1][a] = data[a][b] = data[b][a] = data[b][g3] = F(1)
        with pytest.raises(F4SolvError, match=r"^the grade 2 diagonal block is cyclic"):
            _diagonal(basis, RatMatrix(data))


@settings(max_examples=100, deadline=None)
@given(case=permuted_triangular())
def test_a_permuted_triangular_matrix_gives_its_diagonal(case):
    matrix, diagonal = case
    assert Counter(_diagonal(one_grade_basis(matrix.rows), matrix)) == Counter(diagonal)


@st.composite
def planted_two_cycles(draw):
    """(basis, matrix, g): the (1,1,1,1) basis of P_2 and an upper triangular
    int matrix on it, plus a 2-cycle planted in the grade-g block: a nonzero
    (i, j) and (j, i), i < j, both of grade g."""
    basis = enumerate_basis((1, 1, 1, 1), 2)
    grades, n = basis.grades(), len(basis)
    entry = st.integers(-3, 3)
    data = [[F(draw(entry)) if i <= j else F(0) for j in range(n)] for i in range(n)]
    g = draw(st.integers(1, 2))
    i, j = sorted(draw(st.permutations([k for k in range(n) if grades[k] == g]))[:2])
    data[i][j] = F(draw(st.sampled_from([-2, -1, 1, 2])))
    data[j][i] = F(draw(st.sampled_from([-2, -1, 1, 2])))
    return basis, RatMatrix(data), g


@settings(max_examples=100, deadline=None)
@given(case=planted_two_cycles())
def test_a_planted_two_cycle_raises_naming_its_grade(case):
    basis, matrix, g = case
    with pytest.raises(F4SolvError, match=f"^the grade {g} diagonal block is cyclic"):
        _diagonal(basis, matrix)


couplings = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=15, deadline=None)
@given(level=st.integers(2, 6), nu=couplings, mu=couplings,
       beta2=couplings.filter(bool))
def test_rho_diagonal_eigenvalues_have_tau_eigenspaces(level, nu, mu, beta2):
    # each eigenvalue read off the rho diagonal has a tau eigenvector, and the
    # multiplicities sum to dim P_n; a shortfall is a reported defect (outside
    # the physical windows, nu = 0, mu = -1, beta2 = 1 has a Jordan block at level 2)
    params = ModelParams(nu=nu, mu=mu, beta2=beta2)
    op = SecondOrderOp("tau", trig_a_table(beta2), trig_b_table(params))  # no window warning
    spectrum = spectrum_from_matrix(op, MINIMAL, level)
    report = _eigenpairs(op, spectrum)  # raises on a nonzero residual
    algebraic = Counter(l.eigenvalue for l in spectrum.lines)
    geometric = Counter(l.eigenvalue for l in report.lines)
    assert sum(algebraic.values()) == flag_dimension(MINIMAL, level)
    assert geometric.keys() == algebraic.keys()
    defects = {d["eigenvalue"]: d for d in report.defective_blocks}
    for lam, m in algebraic.items():
        assert 1 <= geometric[lam] <= m
        assert (geometric[lam] < m) == (format_fraction(lam) in defects)


def test_the_rho_route_reads_no_dense_view(trig_op, monkeypatch):
    # the tau and rho matrices are read by entries and sparse rows, never RatMatrix.data
    want = spectrum_from_matrix(trig_op, MINIMAL, 6).lines

    def refuse(*args):
        raise AssertionError("RatMatrix.data was read")

    monkeypatch.setattr(RatMatrix, "data", property(refuse))
    spectrum = spectrum_from_matrix(trig_op, MINIMAL, 6)
    assert not spectrum.strict and spectrum.lines == want
    assert len(want) == flag_dimension(MINIMAL, 6)


#: bit sizes of nu = (2^k + 1) / 3 on both sides of the word, the 2^32
#: switch and every Mersenne modulus a characteristic-polynomial root search
#: would need, and past the largest of them (2^4423 - 1)
COUPLING_BITS = (1, 2, 31, 32, 61, 62, 89, 127, 521, 1024, 2203, 4423, 4424, 4500, 8000)


@pytest.mark.parametrize("bits", COUPLING_BITS)
@pytest.mark.parametrize("model", ["rational", "trig"])
def test_a_coupling_of_any_size_gives_the_exact_spectrum(model, bits):
    # the non-triangular matrices hold entries of about `bits` bits; their
    # eigenvalues are the closed-form multiset, through no modulus
    nu = F(2**bits + 1, 3)
    if model == "rational":
        params = ModelParams(nu, F(1, 5), omega=F(1))
        op, f, level = build_rational_operator(params), (1, 2, 3, 4), 6
        spectrum = spectrum_from_matrix(op, f, level)
        want = sorted(2 * params.omega * weighted_level(m) for m in spectrum.basis.monomials)
        assert [l.eigenvalue for l in spectrum.lines] == want
    else:
        params = ModelParams(nu, F(1, 8), beta2=F(1, 4))
        op, f, level = build_trig_operator(params), MINIMAL, 4
        spectrum = spectrum_from_matrix(op, f, level)
        fit = compare_closed_form(spectrum, "trig", params)[1]
        assert fit.exact and fit.scale == F(-1, 2)
    assert not spectrum.strict
    ints = spectrum.matrix.integer_form()[1]
    assert max(abs(v).bit_length() for row in ints for v in row.values()) >= bits


@pytest.mark.parametrize("params", RATIONAL_SETS + [ModelParams(F(1, 3), F(1, 5), omega=F(0))],
                         ids=["set0", "set1", "set2", "omega0"])
@pytest.mark.parametrize("f, level", [((1, 2, 3, 4), 6), ((1, 2, 3, 5), 8), ((1, 3, 4, 5), 8)],
                         ids=["1234-6", "1235-8", "1345-8"])
def test_rational_non_minimal_flags_have_certified_eigenspaces(params, f, level):
    # the unlabelled diagonal is the spectrum: each of its eigenvalues has an
    # eigenspace, found by elimination and certified by its residuals.  They
    # span P_n for omega != 0; at omega = 0 the operator is nilpotent on P_n
    # and its one eigenvalue 0 is reported defective
    op = build_rational_operator(params)
    spectrum = spectrum_from_matrix(op, f, level)
    report = eigenfunctions(op, f, level)
    algebraic = Counter(l.eigenvalue for l in spectrum.lines)
    geometric = Counter(l.eigenvalue for l in report.lines)
    assert sum(algebraic.values()) == flag_dimension(f, level)
    assert geometric.keys() == algebraic.keys()
    if params.omega:
        assert not report.defective and geometric == algebraic
    else:
        [defect] = report.defective_blocks
        assert algebraic == {0: flag_dimension(f, level)}
        assert defect == {"eigenvalue": "0", "algebraic_multiplicity": algebraic[0],
                          "geometric_multiplicity": geometric[0]}
        assert geometric[0] < algebraic[0]


class TestResidualCertificate:
    def test_residual_does_not_read_the_image_memo(self, rational_params):
        # the matrix comes from the corrupt memo, the residual from the operator
        op = build_rational_operator(rational_params)
        m = (1, 0, 0, 0)  # t1, eigenvalue 2 omega
        terms = op.image(m)  # ints over the operator's denominator
        assert m in dict(terms)
        op._images[m] = tuple((e, c + 1 if e == m else c) for e, c in terms)
        with pytest.raises(F4SolvError, match="nonzero residual"):
            eigenfunctions(op, MINIMAL, 2)

    def test_triangular_frames_never_read_the_dense_view(self, rational_op, rho_op, monkeypatch):
        # spectra and eigenpairs read entries and sparse rows, never RatMatrix.data
        def refuse(self):
            raise AssertionError("RatMatrix.data was read")

        monkeypatch.setattr(RatMatrix, "data", property(refuse))
        for op in (rational_op, rho_op):
            assert spectrum_from_matrix(op, MINIMAL, 6).strict
            report = eigenfunctions(op, MINIMAL, 6)
            assert len(report.lines) == flag_dimension(MINIMAL, 6) and not report.defective
        assert len({line.eigenvalue for line in report.lines}) > 20



def test_residual_applies_each_support_monomial_once(rho_op, monkeypatch):
    # the certificate works by columns: apply sees single monomials t^m with
    # coefficient 1, each distinct support monomial once, at most dim P_n
    calls = []
    apply = SecondOrderOp.apply

    def counted(self, p):
        calls.append(p)
        return apply(self, p)

    monkeypatch.setattr(SecondOrderOp, "apply", counted)
    report = eigenfunctions(rho_op, MINIMAL, 8)
    assert all(list(p.terms.values()) == [1] for p in calls)
    applied = [m for p in calls for m in p.terms]
    support = {m for line in report.lines for m in line.eigenfunction.terms}
    assert sorted(applied) == sorted(support)
    assert len(calls) <= flag_dimension(MINIMAL, 8) == len(report.lines)
    # and a sample of the eigenpairs holds against a whole-polynomial apply
    for line in report.lines[::9]:
        psi = line.eigenfunction
        assert (apply(rho_op, psi) - line.eigenvalue * psi).is_zero()

def test_multiset_match_handles_negative_scale():
    from f4solv.spectral import match_energy_multisets

    eigen = [F(0), F(-2), F(-6), F(-2)]
    energies = [F(1) + F(1, 2) * v * -1 for v in eigen]
    fit = match_energy_multisets(eigen, energies)
    assert fit.exact
    assert fit.scale == F(-1, 2)
    assert fit.offset == F(1)


def test_multiset_match_rejects_non_affine_pairs():
    from f4solv.spectral import match_energy_multisets

    fit = match_energy_multisets([F(0), F(1), F(2)], [F(0), F(1), F(3)])
    assert not fit.exact


def test_affine_fit_flags_mismatches():
    lines = [
        SpectralLine((0, 0, 0, 0), F(0), F(1)),
        SpectralLine((1, 0, 0, 0), F(2), F(3)),
        SpectralLine((2, 0, 0, 0), F(4), F(6)),
    ]
    fit = fit_energy_affine(lines)
    # through the first two lines: 1 * eigenvalue + 1, which predicts 5 at 4
    assert (fit.scale, fit.offset) == (1, 1)
    assert not fit.exact
