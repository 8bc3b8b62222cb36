"""Spectra and eigenfunctions from the triangularized operators.

In a strictly triangular frame the eigenvalues sit on the matrix diagonal,
labeled by the quantum numbers of their basis monomials.  Block-triangular
matrices (grade-non-increasing, with coupling inside a grade) are handled
per diagonal block, taken as sparse int rows over d: each rational
eigenvalue is k / d for an integer root k of the block's characteristic
polynomial (its products run along the rows), found modulo a prime and
kept only on exact division.  The models are exactly solvable, so a block
with an irrational eigenvalue raises ``F4SolvError``: a spectrum is whole
or an error.  Eigenfunctions come from exact nullspaces, found by
back-substitution in a strictly triangular frame.  Every returned pair is
re-verified to have an identically zero residual.  The characteristic
polynomials, the root search, the kernels and the residuals run over
``int``; ``Fraction`` appears only in results.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, groupby
from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .errors import ClosureError, F4SolvError
from .flags import GradedBasis, flag_matrix, grade_counts
from .linalg import RatMatrix, _dense, nullspace
from .models import RATIONAL, ModelParams
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
    """Exact spectrum of the operator restricted to the flag member P_n."""
    f = tuple(int(c) for c in f)
    verdict, basis, mat = flag_matrix(op, f, n)
    if not verdict:
        raise ClosureError(f"flag {f} is not preserved: witness {verdict.witness}")
    if mat.is_upper_triangular():
        lines = tuple(SpectralLine(m, mat[j, j]) for j, m in enumerate(basis.monomials))
        return SpectrumResult(lines, True, basis, mat)
    return _block_spectrum(basis, mat)


def _block_spectrum(basis: GradedBasis, mat: RatMatrix) -> SpectrumResult:
    # the preserved flag makes the matrix block triangular: read each diagonal block's int rows
    d, ints = mat.integer_form()
    lines: list[SpectralLine] = []
    stop = 0
    for g, run in groupby(basis.grades()):
        start, stop = stop, stop + len(list(run))
        rows = [{j - start: v for j, v in r.items() if start <= j < stop} for r in ints[start:stop]]
        roots, leftover = _rational_eigenvalues(d, rows)
        if leftover:
            factor = ", ".join(map(format_fraction, leftover))
            raise F4SolvError(f"the grade {g} block's characteristic factor [{factor}] "
                              "has no rational root")
        for lam, mult in roots:
            lines.extend(SpectralLine(None, lam) for _ in range(mult))
    lines.sort(key=lambda line: line.eigenvalue)
    return SpectrumResult(tuple(lines), False, basis, mat)


def _char_poly(a: list[dict[int, int]]) -> list[int]:
    """Characteristic polynomial of a square int matrix on sparse rows, leading
    coefficient first (Faddeev-LeVerrier along the rows: its traces divide by k)."""
    n = len(a)
    coeffs = [1]
    m = [_dense(row, n) for row in a]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:  # integer Faddeev-LeVerrier divides exactly; anything else is a bug
            raise ArithmeticError("characteristic polynomial lost exactness")
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            m[i][i] += ck
        cols = list(zip(*m))
        m = [[sum([v * col[j] for j, v in row.items()]) for col in cols] for row in a]
    return coeffs


def _rational_eigenvalues(
    d: int, block: list[dict[int, int]]
) -> tuple[list[tuple[Fraction, int]], Optional[list[Fraction]]]:
    """Rational roots (with multiplicity) of the characteristic polynomial of
    ``block / d``, its sparse int rows over d put in lowest terms first.

    The int rows a then have a monic integer characteristic polynomial q;
    each rational eigenvalue is k / d for a root k of q with |k| at most the
    row-sum bound of a (Gershgorin), and roots of q modulo a prime are kept
    only on exact division.  Returns (roots, leftover), leftover the monic
    factor with no rational root (leading coefficient first), or None.
    """
    g = gcd(d, *(v for row in block for v in row.values()))
    d, a = d // g, [{j: v // g for j, v in row.items()} for row in block]
    poly = _char_poly(a)
    roots: list[tuple[Fraction, int]] = []
    for k in _roots_mod_p(poly, max(sum(map(abs, row.values())) for row in a)):
        mult = 0
        while len(poly) > 1:
            *quot, rem = accumulate(poly, lambda acc, c: acc * k + c)  # Horner
            if rem:
                break
            poly, mult = quot, mult + 1
        if mult:
            roots.append((Fraction(k, d), mult))
    leftover = [Fraction(c, d**i) for i, c in enumerate(poly)] if len(poly) > 1 else None
    return roots, leftover


#: exponents e of the Mersenne primes 2^e - 1 that serve as moduli past 2^32
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _modulus(bound: int) -> int:
    """The first prime above max(2 * bound, 2), certified by trial division,
    if 2 * bound < 2^32; else the first listed Mersenne prime above 2 * bound."""
    if 2 * bound < 2**32:
        p = max(2 * bound, 2) + 1
        while not all(p % k for k in range(2, isqrt(p) + 1)):
            p += 1
        return p
    p = next((2**e - 1 for e in _MERSENNE_EXPONENTS if 2**e - 1 > 2 * bound), None)
    if p is None:
        raise F4SolvError(f"eigenvalue bound of {bound.bit_length()} bits exceeds every modulus")
    return p


def _roots_mod_p(q: list[int], bound: int) -> list[int]:
    """Sorted roots in (-p/2, p/2) of the monic q modulo the prime p =
    ``_modulus(bound)``: gcd(q, x^p - x) over GF(p), split by Cantor-Zassenhaus
    with a fixed seed.  Every integer root k with |k| <= bound is among them."""
    p = _modulus(bound)
    xp = [0, 0] + _pow_mod(0, p, q, p)
    xp[-2] -= 1
    rng, found, pending = random.Random(0), [], [_gcd_mod(q, xp, p)]
    while pending:
        g = pending.pop()
        if len(g) == 2:
            found.append((p // 2 - g[1]) % p - p // 2)
        elif len(g) > 2:
            h = _pow_mod(rng.randrange(p), p // 2, g, p)
            h[-1] -= 1
            f = _gcd_mod(g, h, p)
            pending += [f, _divmod_mod(g, f, p)[0]] if 1 < len(f) < len(g) else [g]
    return sorted(found)


def _divmod_mod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic m over GF(p), leading
    coefficients first; the remainder keeps any leading zeros."""
    a = list(a)
    for i in range(len(a) - len(m) + 1):
        a[i] %= p
        for j in range(1, len(m)):
            a[i + j] -= a[i] * m[j]
    split = max(len(a) - len(m) + 1, 0)
    return a[:split], [c % p for c in a[split:]]


def _pow_mod(c: int, e: int, m: list[int], p: int) -> list[int]:
    """(x + c)^e modulo the monic m over GF(p), by left-to-right squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        prod = [0] * (2 * len(out) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(out):
                prod[i + j] += u * v
        if bit == "1":  # times x + c
            prod = [u + c * v for u, v in zip(prod + [0], [0] + prod)]
        out = _divmod_mod(prod, m, p)[1]
    return out


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of the monic a and of b over GF(p)."""
    while any(c % p for c in b):
        b = [c % p for c in b[next(i for i, c in enumerate(b) if c % p):]]
        inv = pow(b[0], -1, p)
        a, b = [c * inv % p for c in b], a
        b = _divmod_mod(b, a, p)[1]
    return a


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
    frame ``nullspace`` finds each space by back-substitution; the
    block path eliminates.  Residuals are exact and in column form: each
    support monomial m goes once through ``apply`` of ``d * op`` (not the
    shift table that built the matrix), and sum_m c_m (d op)(t^m) - d lam
    psi is summed over int; a nonzero entry is a library bug and raises.
    Defective eigenvalues (geometric < algebraic multiplicity) are
    reported per value, not fatal.
    """
    spectrum = spectrum_from_matrix(op, f, n)
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
