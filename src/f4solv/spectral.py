"""Spectra and eigenfunctions from the triangularized operators.

In a strictly triangular frame the eigenvalues sit on the matrix
diagonal, labeled by the quantum numbers of their basis monomials.
Block-triangular matrices (grade-non-increasing, with coupling inside a
grade) are handled per diagonal block: rational eigenvalues are
extracted exactly from the block's characteristic polynomial and any
irrational remainder is returned as data, never approximated.
Eigenfunctions come from exact nullspaces, which in a strictly
triangular frame are found by back-substitution, one vector per
diagonal entry.  Every returned pair is re-verified to have an
identically zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import mpmath

from .errors import ClosureError, F4SolvError
from .flags import GradedBasis, enumerate_basis, preserves_flag
from .invariants import DEGREE_WEIGHTS
from .linalg import RatMatrix, nullspace
from .models import ModelParams
from .operators import SecondOrderOp, op_matrix
from .poly import Exp, MPoly, weighted_grade

QuantumNumbers = Exp


def weighted_level(p: Sequence[int]) -> int:
    """The degeneracy-counting level p1 + 3 p3 + 4 p4 + 6 p6."""
    return weighted_grade(p, DEGREE_WEIGHTS)


def closed_form_energy_rational(p: Sequence[int], params: ModelParams) -> Fraction:
    """Equidistant rational-model spectrum, linear in the level."""
    omega = params.require_omega()
    return 2 * (weighted_level(p) + 2 + 12 * params.mu + 12 * params.nu) * omega


def closed_form_energy_trig(p: Sequence[int], params: ModelParams) -> Fraction:
    """Quadratic trigonometric-model spectrum."""
    beta2 = params.require_beta2()
    nu, mu = params.nu, params.mu
    p1, p3, p4, p6 = (Fraction(v) for v in p)
    quad = (
        p1 * (p1 + 2 * p3 + 3 * p4 + 4 * p6)
        + 2 * p3 * (p3 + 2 * p4 + 3 * p6)
        + p4 * (3 * p4 + 8 * p6)
        + 6 * p6 * p6
        + nu * (5 * p1 + 6 * p3 + 9 * p4 + 12 * p6)
        + 2 * mu * (3 * p1 + 5 * p3 + 6 * p4 + 9 * p6)
    )
    return 4 * quad * beta2 + 4 * beta2 * (7 * nu**2 + 14 * mu**2 + 18 * nu * mu)


def degeneracy_count(n: int) -> int:
    """Number of quantum-number quadruples at weighted level n."""
    if n < 0:
        raise ValueError("level must be non-negative")
    count = 0
    _, w3, w4, w6 = DEGREE_WEIGHTS
    for p6 in range(n // w6 + 1):
        for p4 in range((n - w6 * p6) // w4 + 1):
            rem = n - w6 * p6 - w4 * p4
            count += rem // w3 + 1
    return count


@dataclass(frozen=True)
class SpectralLine:
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


@dataclass(frozen=True)
class SpectrumResult:
    lines: tuple[SpectralLine, ...]
    strict: bool
    basis: GradedBasis
    matrix: RatMatrix
    irreducible_blocks: tuple[dict, ...] = ()


def spectrum_from_matrix(op: SecondOrderOp, f: Sequence[int], n: int) -> SpectrumResult:
    """Exact spectrum of the operator restricted to the flag member P_n."""
    f = tuple(int(c) for c in f)
    verdict = preserves_flag(op, f, n)
    if not verdict:
        raise ClosureError(f"flag {f} is not preserved: witness {verdict.witness}")
    basis = enumerate_basis(f, n, op.frame)
    result = op_matrix(op, basis)
    mat = result.matrix
    if mat.is_upper_triangular():
        lines = tuple(
            SpectralLine(m, mat.data[j][j]) for j, m in enumerate(basis.monomials)
        )
        return SpectrumResult(lines, True, basis, mat)
    return _block_spectrum(basis, mat)


def _block_spectrum(basis: GradedBasis, mat: RatMatrix) -> SpectrumResult:
    grades = basis.grades()
    # block triangularity: no entry may cross from a lower to a higher grade
    for j in range(len(basis)):
        for i in range(len(basis)):
            if mat.data[i][j] and grades[i] > grades[j]:
                raise ClosureError(
                    "matrix is not even block triangular in the graded order"
                )
    lines: list[SpectralLine] = []
    irreducible = []
    start = 0
    while start < len(basis):
        g = grades[start]
        stop = start
        while stop < len(basis) and grades[stop] == g:
            stop += 1
        block = [
            [mat.data[i][j] for j in range(start, stop)] for i in range(start, stop)
        ]
        roots, leftover = _rational_eigenvalues(block)
        for lam, mult in roots:
            lines.extend(SpectralLine(None, lam) for _ in range(mult))
        if leftover:
            irreducible.append(
                {
                    "grade": g,
                    "monomials": [list(m) for m in basis.monomials[start:stop]],
                    "matrix": [[str(v) for v in row] for row in block],
                    "unfactored_characteristic": [str(c) for c in leftover],
                }
            )
        start = stop
    lines.sort(key=lambda line: line.eigenvalue)
    return SpectrumResult(tuple(lines), False, basis, mat, tuple(irreducible))


def _char_poly(block: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial, leading coefficient first (Faddeev-LeVerrier)."""
    n = len(block)
    coeffs = [Fraction(1)]
    m = [row[:] for row in block]
    for k in range(1, n + 1):
        trace = sum(m[i][i] for i in range(n))
        ck = -trace / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            m[i][i] += ck
        m = [
            [
                sum(block[i][r] * m[r][j] for r in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
    return coeffs


def _rational_eigenvalues(
    block: list[list[Fraction]],
) -> tuple[list[tuple[Fraction, int]], Optional[list[Fraction]]]:
    """Rational roots (with multiplicity) of the block's characteristic polynomial.

    Returns (roots, leftover) where leftover is the unfactored remainder
    polynomial when some eigenvalues are irrational, else None.
    """
    if len(block) == 1:
        return [(block[0][0], 1)], None
    coeffs = _char_poly(block)
    roots: list[tuple[Fraction, int]] = []
    poly = coeffs
    for lam in _rational_root_candidates(coeffs):
        mult = 0
        while len(poly) > 1:
            quot, rem = _poly_divmod(poly, [Fraction(1), -lam])  # Horner
            if rem:
                break
            poly = quot
            mult += 1
        if mult:
            roots.append((lam, mult))
        if len(poly) == 1:
            break
    leftover = poly if len(poly) > 1 else None
    return roots, leftover


def _poly_divmod(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a / b, leading coefficients first."""
    quot, rem = [], list(a)
    while len(rem) >= len(b):
        f = rem[0] / b[0]
        quot.append(f)
        rem = [r - f * c for r, c in zip(rem[1:], b[1:])] + rem[len(b):]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def _rational_root_candidates(coeffs: list[Fraction]) -> list[Fraction]:
    """Candidates that include every rational root of the monic polynomial.

    With D the lcm of the denominators, D^n p(y / D) is a monic integer
    polynomial, so each rational root is k / D for an integer root k.
    The roots of the square-free part are isolated numerically and
    rounded to k; the caller accepts a candidate only on exact
    evaluation.  If the isolation does not converge there are no
    candidates, and the caller reports the polynomial as unfactored.
    """
    n = len(coeffs) - 1
    denom = lcm(*(c.denominator for c in coeffs))
    a, b = coeffs, [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    while b:  # Euclid: a ends as gcd(p, p')
        a, b = b, _poly_divmod(a, b)[1]
    squarefree = _poly_divmod(coeffs, a)[0]
    m = len(squarefree) - 1
    # integer coefficients: symmetric functions of the algebraic integers D x
    q = [int(c / squarefree[0] * denom**i) for i, c in enumerate(squarefree)]
    # Durand-Kerner from mpmath's fixed start points stalls on the tight,
    # far-off root clusters of these blocks: centre the roots on their
    # mean (exact Taylor shift) and scale them into the unit disc
    centre = -q[1] // m
    for i in range(m):
        for j in range(1, m + 1 - i):
            q[j] += centre * q[j - 1]
    exp2 = 1 + max(
        (-(-abs(c).bit_length() // i) for i, c in enumerate(q) if i and c), default=0
    )
    ctx = mpmath.mp.clone()
    ctx.prec = exp2 + 64
    try:
        roots = ctx.polyroots(
            [ctx.ldexp(c, -exp2 * i) for i, c in enumerate(q)],
            maxsteps=400,
            extraprec=ctx.prec,
        )
    except ctx.NoConvergence:
        return []
    ks = {int(ctx.nint(ctx.ldexp(ctx.re(z), exp2))) + centre for z in roots}
    return [Fraction(k, denom) for k in sorted(ks)]


@dataclass(frozen=True)
class EigenReport:
    lines: tuple[SpectralLine, ...]
    defective_blocks: tuple[dict, ...]
    basis: GradedBasis

    @property
    def defective(self) -> bool:
        return bool(self.defective_blocks)


def eigenfunctions(op: SecondOrderOp, f: Sequence[int], n: int) -> EigenReport:
    """Exact eigenpairs of the operator on P_n.

    Every eigenvalue's full eigenspace is returned (degenerate spaces as
    whole nullspaces, no preferred basis).  In a strictly triangular
    frame ``nullspace`` finds each space by back-substitution; the
    block path eliminates.  Residuals are re-checked symbolically; a
    nonzero residual is a library bug and raises.  Defective eigenvalues
    (geometric < algebraic multiplicity) are reported per value, not
    fatal.
    """
    spectrum = spectrum_from_matrix(op, f, n)
    basis = spectrum.basis
    mat = spectrum.matrix
    algebraic: dict[Fraction, int] = {}
    for line in spectrum.lines:
        algebraic[line.eigenvalue] = algebraic.get(line.eigenvalue, 0) + 1

    out: list[SpectralLine] = []
    defects = []
    for lam in sorted(algebraic):
        kernel, defect = _eigenspace(mat, lam, algebraic[lam])
        if defect:
            defects.append(defect)
        for vec in kernel:
            psi = MPoly(
                op.frame,
                {m: c for m, c in zip(basis.monomials, vec) if c},
            )
            residual = op.apply(psi) - psi * lam
            if not residual.is_zero():  # pragma: no cover - defensive
                raise F4SolvError(f"nonzero residual for eigenvalue {lam}")
            label = _leading_label(vec, basis)
            out.append(SpectralLine(label, lam, eigenfunction=psi))
    return EigenReport(tuple(out), tuple(defects), basis)


def _eigenspace(
    mat: RatMatrix, lam: Fraction, multiplicity: int
) -> tuple[list[list[Fraction]], Optional[dict]]:
    """Kernel basis of ``mat - lam I`` and, if it is short, a defect record."""
    kernel = nullspace(mat.minus_scalar_identity(lam))
    if len(kernel) < multiplicity:
        return kernel, {
            "eigenvalue": str(lam),
            "algebraic_multiplicity": multiplicity,
            "geometric_multiplicity": len(kernel),
        }
    return kernel, None


def _leading_label(vec, basis: GradedBasis) -> Optional[Exp]:
    # triangular structure puts each eigenvector's top coordinate at its label
    lead = max((i for i, c in enumerate(vec) if c), default=None)
    if lead is None:
        return None
    return basis.monomials[lead]


def attach_closed_form(
    lines: Sequence[SpectralLine], model: str, params: ModelParams
) -> list[SpectralLine]:
    """Pair each labeled line with its closed-form energy."""
    from .models import RATIONAL

    out = []
    for line in lines:
        if line.quantum_numbers is None:
            energy = None
        elif model == RATIONAL:
            energy = closed_form_energy_rational(line.quantum_numbers, params)
        else:
            energy = closed_form_energy_trig(line.quantum_numbers, params)
        out.append(
            SpectralLine(
                line.quantum_numbers, line.eigenvalue, energy, line.eigenfunction
            )
        )
    return out


def match_energy_multisets(
    eigenvalues: Sequence[Fraction], energies: Sequence[Fraction]
) -> "AffineFit":
    """Match two spectra as multisets under one affine relation.

    Used when eigenvalues carry no labels (block-triangular frames):
    sorted eigenvalues must map onto sorted closed-form energies under
    energy = scale * eigenvalue + offset, in either orientation (the
    scale may be negative).
    """
    if len(eigenvalues) != len(energies):
        raise ValueError("spectra have different sizes")
    got = sorted(eigenvalues)
    ascending = sorted(energies)
    last = (Fraction(1), Fraction(0))
    for predicted in (ascending, ascending[::-1]):
        pairs = list(zip(got, predicted))
        g0, p0 = pairs[0]
        other = next(((g, p) for g, p in pairs if g != g0), None)
        if other is None:
            scale, offset = Fraction(1), p0 - g0
        else:
            scale = (other[1] - p0) / (other[0] - g0)
            offset = p0 - scale * g0
        if all(scale * g + offset == p for g, p in pairs):
            return AffineFit(scale, offset, True)
        last = (scale, offset)
    return AffineFit(last[0], last[1], False)


@dataclass(frozen=True)
class AffineFit:
    scale: Fraction
    offset: Fraction
    exact: bool
    mismatches: tuple[dict, ...] = ()


def fit_energy_affine(lines: Sequence[SpectralLine]) -> AffineFit:
    """Fit closed_form = scale * eigenvalue + offset on two lines, verify the rest."""
    labeled = [l for l in lines if l.closed_form_energy is not None]
    if not labeled:
        raise ValueError("no labeled lines to fit")
    base = labeled[0]
    other = next(
        (l for l in labeled if l.eigenvalue != base.eigenvalue), None
    )
    if other is None:
        scale = Fraction(1)
    else:
        scale = (other.closed_form_energy - base.closed_form_energy) / (
            other.eigenvalue - base.eigenvalue
        )
    offset = base.closed_form_energy - scale * base.eigenvalue
    mismatches = []
    for l in labeled:
        predicted = scale * l.eigenvalue + offset
        if predicted != l.closed_form_energy:
            mismatches.append(
                {
                    "quantum_numbers": list(l.quantum_numbers),
                    "eigenvalue": str(l.eigenvalue),
                    "closed_form": str(l.closed_form_energy),
                    "predicted": str(predicted),
                }
            )
    return AffineFit(scale, offset, not mismatches, tuple(mismatches))
