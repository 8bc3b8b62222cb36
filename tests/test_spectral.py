from collections import Counter
from fractions import Fraction as F
from functools import reduce
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f4solv import linalg, spectral
from f4solv.errors import ClosureError, F4SolvError
from f4solv.flags import GradedBasis, flag_dimension
from f4solv.linalg import RatMatrix
from f4solv.operators import SecondOrderOp
from f4solv.poly import MPoly, build_triangular_map
from f4solv.models import (
    ModelParams,
    build_rational_operator,
    build_rho_map,
    build_trig_operator,
)
from f4solv.spectral import (
    SpectralLine,
    attach_closed_form,
    closed_form_energy_rational,
    closed_form_energy_trig,
    degeneracy_count,
    eigenfunctions,
    fit_energy_affine,
    spectrum_from_matrix,
    weighted_level,
    _char_poly,
    _eigenspace,
    _modulus,
    _rational_eigenvalues,
    _roots_mod_p,
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

    def test_block_spectrum_of_tau_frame_matches_rho_diagonal(self, trig_op, rho_op):
        for level in (4, 5, 6, 8):
            blocks = spectrum_from_matrix(trig_op, MINIMAL, level)
            strict = spectrum_from_matrix(rho_op, MINIMAL, level)
            assert not blocks.strict
            assert sorted(l.eigenvalue for l in blocks.lines) == sorted(
                l.eigenvalue for l in strict.lines
            )

    # t3 d/dt1 + 2 t1 d/dt3 swaps t1 and t3: the grade-1 block has the
    # characteristic polynomial x^2 (x^2 - 2), whose x^2 - 2 has no rational root
    SWAP_MESSAGE = r"^the grade 1 block's characteristic factor \[1, 0, -2\] has no rational root$"

    @staticmethod
    def swap_op():
        t1, t3 = MPoly.variable("t", 0), MPoly.variable("t", 1)
        return SecondOrderOp("t", {}, {1: t3, 3: 2 * t1})

    def test_a_block_without_rational_roots_raises(self):
        with pytest.raises(F4SolvError, match=self.SWAP_MESSAGE):
            spectrum_from_matrix(self.swap_op(), (1, 1, 1, 1), 1)

    def test_eigenfunctions_raise_on_a_block_without_rational_roots(self):
        with pytest.raises(F4SolvError, match=self.SWAP_MESSAGE):
            eigenfunctions(self.swap_op(), (1, 1, 1, 1), 1)

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
    # P_6 holds every level up to 6
    op = rational_op if model == "rational" else trig_op
    level = 6
    fwd, inv = flag_shear(op.frame, *coeffs)
    moved = op.change_variables(fwd, inv)
    before = spectrum_from_matrix(op, MINIMAL, level)
    after = spectrum_from_matrix(moved, MINIMAL, level)
    assert len(after.lines) == flag_dimension(MINIMAL, level)
    assert Counter(l.eigenvalue for l in after.lines) == Counter(
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


def integer_block(block):
    """(d, sparse int rows over d) of a Fraction block, d the lcm of its
    denominators: the form in which ``_block_spectrum`` passes a diagonal block."""
    d = lcm(*(c.denominator for row in block for c in row))
    return d, [{j: int(c * d) for j, c in enumerate(row) if c} for row in block]


class TestBlockSolver:
    def test_rational_roots_of_small_block(self):
        roots, leftover = _rational_eigenvalues(*integer_block([[F(2), F(1)], [F(0), F(3)]]))
        assert leftover is None
        assert sorted(roots) == [(F(2), 1), (F(3), 1)]

    def test_coupled_block_with_rational_spectrum(self):
        # eigenvalues 1 and 4
        roots, leftover = _rational_eigenvalues(*integer_block([[F(2), F(1)], [F(2), F(3)]]))
        assert leftover is None
        assert sorted(roots) == [(F(1), 1), (F(4), 1)]

    def test_large_constant_term_is_solved_exactly(self):
        # trial division of the 61-bit constant term would not finish
        block = [[F(2**61 - 1), F(1)], [F(0), F(3)]]
        roots, leftover = _rational_eigenvalues(*integer_block(block))
        assert leftover is None
        assert sorted(roots) == [(F(3), 1), (F(2**61 - 1), 1)]

    def test_roots_near_the_modulus_are_read_in_the_symmetric_range(self):
        # row-sum bound 2^61 - 2: the modulus must exceed twice it, so not 2^61 - 1
        roots = [(F(2 - 2**61), 1)]
        assert _rational_eigenvalues(*integer_block([[F(2 - 2**61)]])) == (roots, None)

    def test_repeated_and_fractional_roots(self):
        jordan = [[F(3), F(1), F(0)], [F(0), F(3), F(1)], [F(0), F(0), F(3)]]
        assert _rational_eigenvalues(*integer_block(jordan)) == ([(F(3), 3)], None)
        block = [[F(1, 3), F(1)], [F(0), F(-7, 5)]]
        roots, leftover = _rational_eigenvalues(*integer_block(block))
        assert leftover is None
        assert sorted(roots) == [(F(-7, 5), 1), (F(1, 3), 1)]

    def test_an_eigenvalue_past_every_entry_is_found(self):
        # eigenvalues 0 and 10, past the largest entry 5: the row-sum bound 10
        # gives the modulus 23; a bound of 5 would give 11, where 10 reads as -1
        roots = [(F(0), 1), (F(10), 1)]
        assert _rational_eigenvalues(*integer_block([[F(5), F(5)], [F(5), F(5)]])) == (roots, None)

    def test_zero_block(self):
        # row-sum bound 0: the modulus is 3
        zero = [[F(0)] * 3 for _ in range(3)]
        assert _rational_eigenvalues(*integer_block(zero)) == ([(F(0), 3)], None)

    def test_irrational_block_reported_not_approximated(self):
        roots, leftover = _rational_eigenvalues(*integer_block([[F(0), F(1)], [F(2), F(0)]]))
        assert roots == []
        assert leftover is not None  # x^2 - 2 has no rational roots

    def test_far_off_cluster_is_solved_exactly(self):
        # four close roots near 7.6e14 and one near -1.2e15; a numerical
        # root isolation left all five in an unfactored quintic
        c = 755153512521398
        block = [
            [c + 1, 8, 4, 3, -4],
            [0, c, 4, 1, 2],
            [0, -2, c - 3, -1, 0],
            [0, -4000000000000000, -8, c - 2000000000000002, -2],
            [0, 0, 0, 0, c],
        ]
        block = [[F(v) for v in row] for row in block]
        roots, leftover = _rational_eigenvalues(*integer_block(block))
        assert leftover is None
        assert roots == [(F(k), 1) for k in (c - 2000000000000000, c - 3, c - 2, c, c + 1)]

    def test_eigenvalue_bound_past_the_largest_modulus_raises(self):
        # the moduli end at 2^4423 - 1, which must exceed twice the row-sum bound
        with pytest.raises(F4SolvError, match="bound of 4424 bits"):
            _rational_eigenvalues(*integer_block([[F(2**4423), F(0)], [F(0), F(1)]]))

    def test_the_block_is_put_in_lowest_terms_first(self):
        # 3 * 2^4430 / 2^4430 is 3: unreduced, the row-sum bound would exceed every modulus
        assert _rational_eigenvalues(2**4430, [{0: 3 * 2**4430}]) == ([(F(3), 1)], None)


def fraction_char_poly(block):
    """Reference: Faddeev-LeVerrier over Fraction, the former implementation."""
    n = len(block)
    coeffs = [F(1)]
    m = [row[:] for row in block]
    for k in range(1, n + 1):
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            m[i][i] += ck
        m = [[sum(block[i][r] * m[r][j] for r in range(n)) for j in range(n)] for i in range(n)]
    return coeffs


@st.composite
def coupled_blocks(draw, max_dim=6, denominators=tuple(range(1, 13))):
    """Square blocks with fractional entries and a nonzero entry below the diagonal."""
    n = draw(st.integers(min_value=2, max_value=max_dim))
    entry = st.builds(F, st.integers(-9, 9), st.sampled_from(denominators))
    block = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(any(block[i][j] for i in range(n) for j in range(i)))
    return block


@settings(max_examples=80)
@given(block=coupled_blocks())
def test_integer_char_poly_matches_the_fraction_reference(block):
    d, ints = integer_block(block)
    assert [F(c, d**k) for k, c in enumerate(_char_poly(ints))] == fraction_char_poly(block)


@st.composite
def conjugated_triangular_blocks(draw, max_dim=6):
    """(E T E^-1, diagonal of T): T upper triangular, its rational diagonal
    a tight cluster at 10^k, outliers offset by 10^j and repeats; E a
    product of integer shears."""
    small = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    centre = draw(st.integers(-1, 1)) * 10 ** draw(st.integers(0, 16))
    offset = draw(st.integers(-2, 2)) * 10 ** draw(st.integers(0, 16))
    cluster = draw(st.lists(small, min_size=1, max_size=5, unique=True))
    values = [centre + v for v in cluster]
    values += [centre + offset + v for v in draw(st.lists(small, max_size=2))]
    repeats = draw(st.lists(st.sampled_from(values), max_size=2))
    diagonal = draw(st.permutations(values + repeats))[:max_dim]
    n = len(diagonal)
    block = [[diagonal[i] if i == j else draw(small) if i < j else F(0) for j in range(n)]
             for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        # E = I + c e_ij: row i gains c row j, then column j loses c column i
        block[i] = [u + c * v for u, v in zip(block[i], block[j])]
        for row in block:
            row[j] -= c * row[i]
    return block, diagonal


@settings(max_examples=60, deadline=None)
@given(case=conjugated_triangular_blocks())
def test_block_roots_are_the_triangular_diagonal(case):
    block, diagonal = case
    roots, leftover = _rational_eigenvalues(*integer_block(block))
    assert leftover is None
    assert sorted(lam for lam, mult in roots for _ in range(mult)) == sorted(diagonal)


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@settings(max_examples=80, deadline=None)
@given(block=coupled_blocks(max_dim=5, denominators=(1, 2, 3, 4)))
def test_roots_times_leftover_is_the_char_poly(block):
    roots, leftover = _rational_eigenvalues(*integer_block(block))
    product = leftover or [F(1)]
    for lam, mult in roots:
        for _ in range(mult):
            product = poly_mul(product, [F(1), -lam])
    assert product == fraction_char_poly(block)
    if leftover:
        # no integer root k of d^i leftover_i, the polynomial of d * block,
        # lies within the row-sum bound of d * block
        d, ints = integer_block(block)
        bound = max(sum(map(abs, row.values())) for row in ints)
        scaled = [c * d**i for i, c in enumerate(leftover)]
        assert all(c.denominator == 1 for c in scaled)
        scaled = [int(c) for c in scaled]
        for k in range(-bound, bound + 1):
            assert reduce(lambda acc, c: acc * k + c, scaled) != 0


def is_prime(n):
    """Lucas-Lehmer for Mersenne numbers, deterministic Miller-Rabin (the
    first 12 prime bases, proven below 3.3e24) otherwise."""
    if n < 2:
        return False
    e = (n + 1).bit_length() - 1
    if n == 2**e - 1 and e > 2:
        if any(e % k == 0 for k in range(2, e)):
            return False
        s = 4
        for _ in range(e - 2):
            s = (s * s - 2) % n
        return s == 0
    assert n < 3 * 10**24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: bounds at the edges: the zero block, 1, and both sides of the 2^32 switch
EDGE_BOUNDS = (0, 1, 2, 3, 2**31 - 1, 2**31, 2**61, 2**4422 - 1)


@pytest.mark.parametrize("bound", EDGE_BOUNDS + tuple(range(4, 200, 7)) + (28772, 10**6))
def test_modulus_is_the_first_prime_above_twice_the_bound(bound):
    p = _modulus(bound)
    assert is_prime(p) and p > 2 * bound
    if 2 * bound < 2**32:
        assert not any(is_prime(k) for k in range(max(2 * bound, 2) + 1, p))
    else:
        assert p.bit_length() in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


#: irreducible over Q of degree 2 or 3: no integer roots
IRREDUCIBLE = ([1, 0, 1], [1, 0, -2], [1, 1, 1], [1, 0, 0, -2], [1, -3, 0, 5])


def horner(q, k):
    return reduce(lambda acc, c: acc * k + c, q)


@st.composite
def split_times_irreducible(draw):
    """(q, bound, roots): q monic, the product of x - r over the roots, each
    |r| <= bound (repeats and the ends included), times an irreducible factor."""
    bound = draw(st.one_of(st.integers(0, 60), st.sampled_from(EDGE_BOUNDS[:6])))
    root = st.one_of(st.sampled_from([-bound, bound, 0]), st.integers(-bound, bound))
    roots = draw(st.lists(root, max_size=6))
    q = draw(st.sampled_from(IRREDUCIBLE))
    for r in roots:
        q = [u - r * v for u, v in zip(q + [0], [0] + q)]
    return q, bound, roots


@settings(max_examples=150, deadline=None)
@given(case=split_times_irreducible())
def test_roots_mod_p_are_the_brute_force_roots(case):
    q, bound, roots = case
    p = _modulus(bound)
    found = _roots_mod_p(q, bound)
    assert found == sorted(set(found)) and all(-p < 2 * k < p for k in found)
    if p < 10**4:  # every residue: the roots of q modulo p, exactly
        assert found == [k for k in range(-(p // 2), p // 2 + 1) if horner(q, k) % p == 0]
        assert [k for k in range(-bound, bound + 1) if horner(q, k) == 0] == sorted(set(roots))
    # the integer roots in [-bound, bound] are the linear factors' roots
    assert [k for k in found if horner(q, k) == 0] == sorted(set(roots))


@st.composite
def planted_block_spectra(draw):
    """(basis, matrix, g, eigenvalues, irreducible): a grade-0 block [r0] and, at
    grade g, the companion block of the product of x - r over planted integer
    roots (repeats allowed), optionally times an ``IRREDUCIBLE`` factor, all
    over a denominator d, with the rows of the first block coupled to the second."""
    roots = draw(st.lists(st.integers(-40, 40), max_size=6))
    q = draw(st.one_of(st.just([1]), st.sampled_from(IRREDUCIBLE)))
    for r in roots:
        q = [u - r * v for u, v in zip(q + [0], [0] + q)]
    r0, d, g = draw(st.integers(-40, 40)), draw(st.integers(1, 12)), draw(st.integers(2, 4))
    n = len(q) - 1
    assume(n > 0)
    # companion matrix: ones below the diagonal, last column -q reversed
    companion = [[F(int(i == j + 1)) for j in range(n - 1)] + [F(-q[n - i])] for i in range(n)]
    coupling = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    data = [[F(r0)] + [F(c) for c in coupling]] + [[F(0)] + row for row in companion]
    matrix = RatMatrix([[v / d for v in row] for row in data])
    grade_g = [m for m in product(range(g + 1), repeat=4) if sum(m) == g][:n]
    basis = GradedBasis((1, 1, 1, 1), ((0, 0, 0, 0), *grade_g))
    planted = sorted(F(r, d) for r in [r0] + roots)
    return basis, matrix, g, planted, len(q) - 1 > len(roots)


@settings(max_examples=100, deadline=None)
@given(case=planted_block_spectra())
def test_block_spectrum_recovers_planted_roots_or_names_the_grade(case):
    basis, matrix, g, planted, irreducible = case
    if irreducible:
        with pytest.raises(F4SolvError, match=f"^the grade {g} block's characteristic factor"):
            spectral._block_spectrum(basis, matrix)
    else:
        spectrum = spectral._block_spectrum(basis, matrix)
        assert not spectrum.strict
        assert [line.eigenvalue for line in spectrum.lines] == planted


def test_the_block_path_reads_only_the_sparse_int_rows(trig_op, monkeypatch):
    # native-frame blocks go from integer_form() to the characteristic
    # polynomial: no matrix entry becomes a Fraction on the way
    want = spectrum_from_matrix(trig_op, MINIMAL, 6).lines

    def refuse(*args):
        raise AssertionError("a dense RatMatrix accessor was read")

    monkeypatch.setattr(RatMatrix, "__getitem__", refuse)
    monkeypatch.setattr(RatMatrix, "data", property(refuse))
    spectrum = spectrum_from_matrix(trig_op, MINIMAL, 6)
    assert not spectrum.strict and spectrum.lines == want
    assert len(want) == flag_dimension(MINIMAL, 6)


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
