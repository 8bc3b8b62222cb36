from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from f4solv import linalg, spectral
from f4solv.errors import ClosureError
from f4solv.flags import flag_dimension
from f4solv.linalg import RatMatrix
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
    _eigenspace,
    _rational_eigenvalues,
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


class TestDegeneracy:
    @pytest.mark.parametrize("n,count", [(0, 1), (3, 2), (6, 5)])
    def test_reference_counts(self, n, count):
        assert degeneracy_count(n) == count

    @pytest.mark.parametrize("n", range(12))
    def test_against_brute_force(self, n):
        assert degeneracy_count(n) == brute_force_degeneracy(n)


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
        for level in (4, 5, 6):
            blocks = spectrum_from_matrix(trig_op, MINIMAL, level)
            strict = spectrum_from_matrix(rho_op, MINIMAL, level)
            assert not blocks.strict
            assert sorted(l.eigenvalue for l in blocks.lines) == sorted(
                l.eigenvalue for l in strict.lines
            )
            assert blocks.irreducible_blocks == ()

    def test_unpreserved_flag_raises_closure_error(self, rational_op):
        with pytest.raises(ClosureError):
            spectrum_from_matrix(rational_op, (1, 1, 1, 1), 4)


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


class TestBlockSolver:
    def test_rational_roots_of_small_block(self):
        roots, leftover = _rational_eigenvalues([[F(2), F(1)], [F(0), F(3)]])
        assert leftover is None
        assert sorted(roots) == [(F(2), 1), (F(3), 1)]

    def test_coupled_block_with_rational_spectrum(self):
        # eigenvalues 1 and 4
        roots, leftover = _rational_eigenvalues([[F(2), F(1)], [F(2), F(3)]])
        assert leftover is None
        assert sorted(roots) == [(F(1), 1), (F(4), 1)]

    def test_large_constant_term_is_solved_exactly(self):
        # trial division of the 61-bit constant term would not finish
        roots, leftover = _rational_eigenvalues([[F(2**61 - 1), F(1)], [F(0), F(3)]])
        assert leftover is None
        assert sorted(roots) == [(F(3), 1), (F(2**61 - 1), 1)]

    def test_repeated_and_fractional_roots(self):
        jordan = [[F(3), F(1), F(0)], [F(0), F(3), F(1)], [F(0), F(0), F(3)]]
        assert _rational_eigenvalues(jordan) == ([(F(3), 3)], None)
        roots, leftover = _rational_eigenvalues([[F(1, 3), F(1)], [F(0), F(-7, 5)]])
        assert leftover is None
        assert sorted(roots) == [(F(-7, 5), 1), (F(1, 3), 1)]

    def test_irrational_block_reported_not_approximated(self):
        roots, leftover = _rational_eigenvalues([[F(0), F(1)], [F(2), F(0)]])
        assert roots == []
        assert leftover is not None  # x^2 - 2 has no rational roots


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
    assert not fit.exact
    assert fit.mismatches
