"""Spectra and eigenfunctions from the triangularized operators.

Both model operators are triangular in invariant variables, so every
eigenvalue is a diagonal entry of the operator's matrix on a flag member.
In a strictly triangular frame the entries are labelled by the quantum
numbers of their basis monomials.  A matrix whose off-diagonal nonzeros
form an acyclic graph (Kahn's test), as the rational operator's on its
non-minimal flags, is triangular in another order of the basis: its
diagonal is the spectrum, unlabelled.  A cyclic diagonal block raises
``F4SolvError``; the trigonometric operator's tau frame has one from
level 2 on, so the CLI reads its spectrum in the rho frame, whose shear
maps each P_n of the flags it keeps onto itself, while the public
``spectrum_from_matrix`` and ``eigenfunctions`` refuse it.  Eigenfunctions
come from exact nullspaces, found by
back-substitution in a strictly triangular frame and by elimination
otherwise.  Every returned pair is re-verified to have an identically
zero residual.  The kernels and the residuals run over ``int``;
``Fraction`` appears only in results.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import ClosureError, F4SolvError
from .flags import GradedBasis, flag_matrix, grade_counts
from .linalg import RatMatrix, nullspace
from .models import RATIONAL, ModelParams, build_rho_map
from .operators import SecondOrderOp
from .poly import DEGREE_WEIGHTS, Exp, MPoly, format_fraction, weighted_grade

QuantumNumbers = Exp


def weighted_level(p: Sequence[int]) -> int:
    """The degeneracy-counting level p1 + 3 p3 + 4 p4 + 6 p6."""
    return weighted_grade(p, DEGREE_WEIGHTS)


def closed_form_energy_rational(p: Sequence[int], params: ModelParams) -> Fraction:
    """Equidistant rational-model spectrum, linear in the level."""
    omega = params.require_omega()
    return 2 * omega * (weighted_level(p) + 2 + 12 * (params.mu + params.nu))


def closed_form_energy_trig(p: Sequence[int], params: ModelParams) -> Fraction:
    """Quadratic trigonometric-model spectrum."""
    beta2 = params.require_beta2()
    nu, mu = params.nu, params.mu
    p1, p3, p4, p6 = p
    # the p-dependent forms over int; each coupling multiplies once
    quad = p1 * (p1 + 2 * p3 + 3 * p4 + 4 * p6) + 2 * p3 * (p3 + 2 * p4 + 3 * p6)
    quad += p4 * (3 * p4 + 8 * p6) + 6 * p6 * p6
    lin_nu = 5 * p1 + 6 * p3 + 9 * p4 + 12 * p6
    lin_mu = 2 * (3 * p1 + 5 * p3 + 6 * p4 + 9 * p6)
    return 4 * beta2 * (quad + nu * (lin_nu + 7 * nu + 18 * mu) + mu * (lin_mu + 14 * mu))


def degeneracy_count(n: int) -> int:
    """Number of quantum-number quadruples at weighted level n."""
    if n < 0:
        raise ValueError("level must be non-negative")
    return grade_counts(DEGREE_WEIGHTS, n)[n]


class SpectralLine(NamedTuple):
    """One eigenvalue with its label and optional closed-form value and vector."""

    quantum_numbers: Optional[QuantumNumbers]
    eigenvalue: Fraction
    closed_form_energy: Optional[Fraction] = None
    eigenfunction: Optional[MPoly] = None

    @property
    def level(self) -> Optional[int]:
        if self.quantum_numbers is None:
            return None
        return weighted_level(self.quantum_numbers)


class SpectrumResult(NamedTuple):
    lines: tuple[SpectralLine, ...]
    strict: bool
    basis: GradedBasis
    matrix: RatMatrix


def spectrum_from_matrix(op: SecondOrderOp, f: Sequence[int], n: int) -> SpectrumResult:
    """Exact spectrum of the operator restricted to the flag member P_n: the
    diagonal of its matrix, which some order of the basis must make
    triangular; a cyclic diagonal block raises ``F4SolvError``."""
    return _spectrum(op, f, n)


def _spectrum(
    op: SecondOrderOp, f: Sequence[int], n: int, params: Optional[ModelParams] = None
) -> SpectrumResult:
    """The spectrum of ``op`` on P_n, labelled when its matrix is upper triangular.

    Otherwise the eigenvalues are the diagonal of the matrix.  Given the
    trig ``params`` (beta2 != 0), the tau frame's are read off the diagonal
    of its matrix in the rho variables instead, where the rho shear maps
    P_n onto itself: the same operator on the same space.  A tau frame's
    cyclic block is reported with the reason the shear was not used.
    """
    basis, mat = _flag_matrix(op, f, n)
    if mat.is_upper_triangular():
        lines = tuple(SpectralLine(m, mat[j, j]) for j, m in enumerate(basis.monomials))
        return SpectrumResult(lines, True, basis, mat)
    moved, hint = (basis, mat), ""
    if op.frame == "tau":
        beta2 = None if params is None else params.beta2
        fwd, inv = build_rho_map(beta2 or 1)  # its images have the same terms at every beta2 != 0
        # each image of f-grade at most its variable's: the shear maps P_n into, so onto, P_n
        if not all(weighted_grade(e, f) <= w for w, phi in zip(f, fwd.images) for e in phi.terms):
            hint = f"; the rho shear does not keep the flag {tuple(f)}"
        elif beta2:
            moved = _flag_matrix(op.change_variables(fwd, inv), f, n)
        elif beta2 is None:
            hint = "; the trig operator is triangular in the rho frame"
    lines = tuple(SpectralLine(None, lam) for lam in sorted(_diagonal(*moved, hint)))
    return SpectrumResult(lines, False, basis, mat)


def _read(op: SecondOrderOp, f: Sequence[int], n: int, params: ModelParams, pairs: bool = False):
    """The CLI's spectrum of ``op`` on P_n or, with ``pairs``, its certified eigenpairs.

    A tau-frame operator is read by ``_spectrum`` with the couplings, which
    give it the rho shear.  Any other goes through the public
    ``spectrum_from_matrix`` and ``eigenfunctions``, the functions the
    bench's tracer times (``perfbench/test_perfbench.py`` asserts the
    eigenfunctions span of a rho-frame command).
    """
    if op.frame != "tau":
        return (eigenfunctions if pairs else spectrum_from_matrix)(op, f, n)
    spectrum = _spectrum(op, f, n, params)
    return _eigenpairs(op, spectrum) if pairs else spectrum


def _flag_matrix(op: SecondOrderOp, f: Sequence[int], n: int) -> tuple[GradedBasis, RatMatrix]:
    f = tuple(int(c) for c in f)
    verdict, basis, mat = flag_matrix(op, f, n)
    if not verdict:
        raise ClosureError(f"flag {f} is not preserved: witness {verdict.witness}")
    return basis, mat


def _diagonal(basis: GradedBasis, mat: RatMatrix, hint: str = "") -> list[Fraction]:
    """The diagonal of a block triangular matrix whose off-diagonal nonzeros
    form an acyclic graph, so that some order of the basis makes it triangular:
    its eigenvalues, with multiplicity.

    Kahn's test: index j leaves once no index left holds an off-diagonal
    entry in column j.  An index that never leaves lies on a cycle or is
    reached from one at an equal or higher grade, so the lowest grade among
    them holds a cycle, and ``F4SolvError`` names it, followed by ``hint``.
    """
    ints = mat.integer_form()[1]
    entering = [0] * len(ints)  # off-diagonal entries in each column, from rows not yet left
    for i, row in enumerate(ints):
        for j in row:
            entering[j] += j != i
    left = [j for j, k in enumerate(entering) if not k]
    for i in left:  # grows while it is read
        for j in ints[i]:
            if j != i:
                entering[j] -= 1
                if not entering[j]:
                    left.append(j)
    if len(left) < len(ints):
        g = min(g for g, k in zip(basis.grades(), entering) if k)
        raise F4SolvError(f"the grade {g} diagonal block is cyclic, so its eigenvalues are not "
                          f"on the diagonal{hint}")
    return [mat[j, j] for j in range(len(ints))]


class EigenReport(NamedTuple):
    lines: tuple[SpectralLine, ...]
    defective_blocks: tuple[dict, ...]

    @property
    def defective(self) -> bool:
        return bool(self.defective_blocks)


def eigenfunctions(op: SecondOrderOp, f: Sequence[int], n: int) -> EigenReport:
    """Exact eigenpairs of the operator on P_n.

    Every eigenvalue's full eigenspace is returned (degenerate spaces as
    whole nullspaces, no preferred basis).  In a strictly triangular
    frame ``nullspace`` finds each space by back-substitution; any other
    matrix is eliminated.  Residuals are exact and in column form: each
    support monomial m goes once through ``apply`` of ``d * op`` (not the
    shift table that built the matrix), and sum_m c_m (d op)(t^m) - d lam
    psi is summed over int; a nonzero entry is a library bug and raises.
    Defective eigenvalues (geometric < algebraic multiplicity) are
    reported per value, not fatal.
    """
    return _eigenpairs(op, spectrum_from_matrix(op, f, n))


def _eigenpairs(op: SecondOrderOp, spectrum: SpectrumResult) -> EigenReport:
    """The certified eigenpairs of ``op`` on the basis of its ``spectrum``."""
    basis, mat = spectrum.basis, spectrum.matrix
    algebraic = Counter(line.eigenvalue for line in spectrum.lines)

    # the matrix is over the operator's d, so every d * lam is an integer
    scale, scaled_op = op.scaled_to_integers()
    columns: dict[Exp, dict[Exp, int]] = {}  # monomial -> its image under d * op
    out: list[SpectralLine] = []
    defects = []
    for lam in sorted(algebraic):
        scaled_lam = (lam * scale).numerator
        kernel, defect = _eigenspace(mat, lam, algebraic[lam])
        if defect:
            defects.append(defect)
        for vec in kernel:
            psi = MPoly._trusted(op.frame, {m: c for m, c in zip(basis.monomials, vec) if c})
            residual: dict[Exp, int] = {}
            for m, c in psi.terms.items():
                c = c.numerator  # nullspace vectors are coprime ints
                if m not in columns:
                    columns[m] = scaled_op.apply(MPoly._trusted(op.frame, {m: 1})).terms
                for e, v in columns[m].items():
                    residual[e] = residual.get(e, 0) + c * v
                residual[m] = residual.get(m, 0) - scaled_lam * c
            if any(residual.values()):
                raise F4SolvError(f"nonzero residual for eigenvalue {format_fraction(lam)}")
            out.append(SpectralLine(_leading_label(vec, basis), lam, eigenfunction=psi))
    return EigenReport(tuple(out), tuple(defects))


def _eigenspace(
    mat: RatMatrix, lam: Fraction, multiplicity: int
) -> tuple[list[list[Fraction]], Optional[dict]]:
    """Kernel basis of ``mat - lam I`` and, if it is short, a defect record."""
    kernel = nullspace(mat.minus_scalar_identity(lam))
    if len(kernel) < multiplicity:
        return kernel, {
            "eigenvalue": format_fraction(lam),
            "algebraic_multiplicity": multiplicity,
            "geometric_multiplicity": len(kernel),
        }
    return kernel, None


def _leading_label(vec, basis: GradedBasis) -> Optional[Exp]:
    # triangular structure puts each eigenvector's top coordinate at its label
    lead = max((i for i, c in enumerate(vec) if c), default=None)
    return None if lead is None else basis.monomials[lead]


def closed_form_energy(model: str, p: Sequence[int], params: ModelParams) -> Fraction:
    """The closed-form energy of the quantum numbers ``p`` in either model."""
    if model == RATIONAL:
        return closed_form_energy_rational(p, params)
    return closed_form_energy_trig(p, params)


def attach_closed_form(
    lines: Sequence[SpectralLine], model: str, params: ModelParams
) -> list[SpectralLine]:
    """Pair each labeled line with its closed-form energy."""
    return [
        line._replace(
            closed_form_energy=None
            if line.quantum_numbers is None
            else closed_form_energy(model, line.quantum_numbers, params),
        )
        for line in lines
    ]


def compare_closed_form(
    spectrum: SpectrumResult, model: str, params: ModelParams
) -> tuple[list[SpectralLine], "AffineFit"]:
    """The spectrum's lines with their closed-form energies, and the one
    affine relation between the two: fitted on labeled lines in a strictly
    triangular frame, matched as multisets in a block frame (no labels)."""
    lines = attach_closed_form(spectrum.lines, model, params)
    if spectrum.strict:
        return lines, fit_energy_affine(lines)
    energies = [closed_form_energy(model, m, params) for m in spectrum.basis.monomials]
    return lines, match_energy_multisets([l.eigenvalue for l in lines], energies)


class AffineFit(NamedTuple):
    scale: Fraction
    offset: Fraction
    exact: bool


def _affine_fit(pairs: Sequence[tuple[Fraction, Fraction]]) -> AffineFit:
    """energy = scale * eigenvalue + offset through the first pair and the
    first pair with another eigenvalue (scale 1 if none), checked on every pair."""
    g0, p0 = pairs[0]
    other = next(((g, p) for g, p in pairs if g != g0), None)
    scale = Fraction(1) if other is None else (other[1] - p0) / (other[0] - g0)
    offset = p0 - scale * g0
    return AffineFit(scale, offset, all(scale * g + offset == p for g, p in pairs))


def match_energy_multisets(
    eigenvalues: Sequence[Fraction], energies: Sequence[Fraction]
) -> AffineFit:
    """Match two spectra as multisets under one affine relation.

    Used when eigenvalues carry no labels (block-triangular frames):
    sorted eigenvalues must map onto sorted closed-form energies under
    energy = scale * eigenvalue + offset, in either orientation (the
    scale may be negative).
    """
    if len(eigenvalues) != len(energies):
        raise ValueError("spectra have different sizes")
    got, ascending = sorted(eigenvalues), sorted(energies)
    fit = _affine_fit(list(zip(got, ascending)))
    return fit if fit.exact else _affine_fit(list(zip(got, ascending[::-1])))


def fit_energy_affine(lines: Sequence[SpectralLine]) -> AffineFit:
    """Fit closed_form = scale * eigenvalue + offset on two lines, verify the rest."""
    labeled = [l for l in lines if l.closed_form_energy is not None]
    if not labeled:
        raise ValueError("no labeled lines to fit")
    return _affine_fit([(l.eigenvalue, l.closed_form_energy) for l in labeled])
