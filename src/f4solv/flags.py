"""Graded monomial flags, preservation verdicts, and characteristic-vector scans.

A characteristic vector f = (1, a3, a4, a6) grades monomials by
p1 + a3 p3 + a4 p4 + a6 p6; the flag member at level n is spanned by
the monomials of grade at most n.  The canonical basis order is grade
ascending and lexicographic descending inside a grade, which is the
order in which the model operators are literally triangular.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .linalg import RatMatrix
from .models import ambiguity_map
from .operators import SecondOrderOp, op_matrix
from .poly import MINIMAL_CHARVEC, Exp, Frozen, format_fraction, term_order_key, weighted_grade

CharVector = tuple[int, int, int, int]

#: characteristic vectors known to arise for redefined invariant variables
KNOWN_CHARACTERISTIC_VECTORS: tuple[CharVector, ...] = (
    (1, 2, 2, 3),
    (1, 2, 3, 4),
    (1, 2, 3, 5),
    (1, 3, 3, 5),
    (1, 4, 4, 6),
    (1, 4, 4, 7),
    (1, 5, 5, 8),
    (1, 5, 5, 9),
    (1, 5, 7, 9),
    (1, 6, 6, 9),
    (1, 6, 6, 10),
    (1, 6, 6, 11),
    (1, 6, 7, 10),
    (1, 7, 7, 11),
)


def validate_charvec(f: Sequence[int]) -> None:
    if len(f) != 4 or f[0] != 1 or any(int(c) < 1 for c in f):
        raise ValueError(f"characteristic vector must be (1, a3, a4, a6) >= 1: {f}")


def parse_charvec(text: str) -> CharVector:
    """The validated vector (1, a3, a4, a6) written "a3,a4,a6" (``--charvec``)."""
    parts = text.split(",")
    if len(parts) != 3 or not all(p.strip() for p in parts):
        raise ValueError("--charvec expects three comma-separated integers a3,a4,a6")
    try:
        f = (1, *(int(p) for p in parts))
    except ValueError as exc:
        raise ValueError(f"bad --charvec: {exc}") from None
    validate_charvec(f)
    return f


class GradedBasis(Frozen):
    """Ordered monomial basis of a flag member; ``len`` is its dimension."""

    __slots__ = ("f", "monomials")

    def __init__(self, f: CharVector, monomials: tuple[Exp, ...]) -> None:
        self._init(f, monomials)

    __init__.__annotations__["return"] = None  # signature shows "-> None", not a postponed string

    def index(self) -> dict[Exp, int]:
        return {m: i for i, m in enumerate(self.monomials)}

    def grades(self) -> list[int]:
        return [weighted_grade(m, self.f) for m in self.monomials]

    def __len__(self) -> int:
        return len(self.monomials)


def enumerate_basis(f: Sequence[int], n: int, frame: str = "t") -> GradedBasis:
    """All monomials of f-grade at most n, in the frame's canonical order."""
    validate_charvec(f)
    if n < 0:
        raise ValueError("level must be non-negative")
    f = tuple(int(c) for c in f)
    monos = []
    for p6 in range(n // f[3] + 1):
        r6 = n - f[3] * p6
        for p4 in range(r6 // f[2] + 1):
            r4 = r6 - f[2] * p4
            for p3 in range(r4 // f[1] + 1):
                for p1 in range(r4 - f[1] * p3 + 1):
                    monos.append((p1, p3, p4, p6))
    monos.sort(key=lambda e: term_order_key(e, f, frame))
    return GradedBasis(f, tuple(monos))


def grade_counts(f: Sequence[int], n: int) -> list[int]:
    """Number of monomials of each f-grade 0..n (weighted-partition counting)."""
    validate_charvec(f)
    counts = [0] * (n + 1)
    counts[0] = 1
    for w in tuple(f):
        for g in range(w, n + 1):
            counts[g] += counts[g - w]
    return counts


def flag_dimension(f: Sequence[int], n: int) -> int:
    """dim P_n by weighted-partition counting (no enumeration)."""
    return sum(grade_counts(f, n))


class FlagVerdict(NamedTuple):
    preserved: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.preserved


def preserves_flag(op: SecondOrderOp, f: Sequence[int], n: int) -> FlagVerdict:
    """Check that op maps every flag member P_k (k <= n) into itself.

    The witness on failure is the lowest-grade basis monomial whose
    image escapes its grade, together with the escaping term.
    """
    f = tuple(int(c) for c in f)
    escape = _first_escape(op, enumerate_basis(f, n).monomials, f)
    if escape is None:
        return FlagVerdict(True)
    witness, grade, term_grade = escape
    return FlagVerdict(False, {**witness, "grade": grade, "term_grade": term_grade})


def _first_escape(
    op: SecondOrderOp, monomials: Iterable[Exp], f: CharVector
) -> Optional[tuple[dict, int, int]]:
    """The first image term, in monomial order and then in sorted term order,
    whose f-grade exceeds its monomial's: (witness, grade, term grade)."""
    for m in monomials:
        g = weighted_grade(m, f)
        for exp, coeff in op.image(m):
            term_grade = weighted_grade(exp, f)
            if term_grade > g:
                coeff = Fraction(coeff, op._shift_table()[0])  # image terms are ints over d
                witness = {
                    "monomial": list(m),
                    "offending_term": {"exponents": list(exp), "coeff": format_fraction(coeff)},
                }
                return witness, g, term_grade
    return None


class TriangularVerdict(NamedTuple):
    strict: bool
    preserved: bool  # the flag; the matrix is then block triangular
    violation: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.strict


def flag_matrix(
    op: SecondOrderOp, f: Sequence[int], n: int
) -> tuple[FlagVerdict, Optional[GradedBasis], Optional[RatMatrix]]:
    """The closure verdict, then the frame basis of P_n and the operator's
    matrix on it (both None when the flag is not preserved)."""
    flag = preserves_flag(op, f, n)
    if not flag:
        return flag, None, None
    basis = enumerate_basis(f, n, op.frame)
    return flag, basis, op_matrix(op, basis).matrix


def is_triangular(op: SecondOrderOp, f: Sequence[int], n: int) -> TriangularVerdict:
    """Strict upper-triangularity of the operator matrix in canonical order.

    Requires flag preservation first; without it the verdict is
    vacuously false and the violation carries the closure witness.  A
    preserved flag never lets an entry raise the grade, so the matrix is
    then block triangular.
    """
    flag, basis, mat = flag_matrix(op, f, n)
    if not flag:
        return TriangularVerdict(False, False, flag.witness)
    below = mat.first_below_diagonal()
    violation = below and {
        "row_monomial": list(basis.monomials[below[0]]),
        "col_monomial": list(basis.monomials[below[1]]),
        "value": format_fraction(mat[below]),
    }
    return TriangularVerdict(violation is None, True, violation)


class ScanResult(NamedTuple):
    preserved: tuple[CharVector, ...]
    minimal: tuple[CharVector, ...]
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "preserved": [list(f) for f in self.preserved],
            "minimal": [list(f) for f in self.minimal],
            "witnesses": {
                ",".join(map(str, f)): w for f, w in sorted(self.witnesses.items())
            },
        }


def scan_characteristic_vectors(
    op: SecondOrderOp, bound: int, n: int
) -> ScanResult:
    """All vectors with components <= bound whose flag the operator preserves.

    Every candidate's basis is a subset of the unit-weight basis at the
    same level, and the operator's memoized images serve every candidate.
    """
    _check_scan_range(bound, n)
    union = enumerate_basis((1, 1, 1, 1), n).monomials
    preserved = []
    witnesses = {}
    for a3 in range(1, bound + 1):
        for a4 in range(1, bound + 1):
            for a6 in range(1, bound + 1):
                f = (1, a3, a4, a6)
                in_flag = (m for m in union if weighted_grade(m, f) <= n)
                escape = _first_escape(op, in_flag, f)
                if escape is None:
                    preserved.append(f)
                else:
                    witnesses[f] = escape[0]
    preserved.sort()
    minimal = _minimal_antichain(preserved)
    return ScanResult(tuple(preserved), tuple(minimal), witnesses)


def _check_scan_range(bound: int, n: int) -> None:
    if bound < 3:
        raise ValueError("bound must be at least 3")
    if n < 4:
        raise ValueError("scan level must be at least 4")


def _minimal_antichain(vectors: Iterable[CharVector]) -> list[CharVector]:
    vectors = sorted(vectors)
    minimal = []
    for f in vectors:
        if not any(
            g != f and all(gc <= fc for gc, fc in zip(g, f)) for g in vectors
        ):
            minimal.append(f)
    return minimal


# -- search over invariant redefinitions ---------------------------------------


#: the parameter heights of the grid: single shears, then parameter pairs
SINGLE_HEIGHT, PAIR_HEIGHT = 4, 2


def _grid_values(height: int) -> list[Fraction]:
    values = set()
    for num in range(1, height + 1):
        for den in range(1, height + 1):
            v = Fraction(num, den)  # in lowest terms, so of height at most height
            values.add(v)
            values.add(-v)
    return sorted(values, key=lambda v: (max(abs(v.numerator), v.denominator), v < 0, abs(v)))


def _redefinitions() -> Iterator[tuple[Fraction, ...]]:
    """The search grid: every single-parameter shear, then parameter pairs."""
    singles = _grid_values(SINGLE_HEIGHT)
    for slot in range(7):
        for v in singles:
            yield tuple(v if k == slot else Fraction(0) for k in range(7))
    pair_vals = _grid_values(PAIR_HEIGHT)
    for i, j in combinations(range(7), 2):
        for vi in pair_vals:
            for vj in pair_vals:
                yield tuple(vi if k == i else vj if k == j else Fraction(0) for k in range(7))


class AmbiguityFinding(NamedTuple):
    parameters: tuple[Fraction, ...]  # (a, b1, b2, c1, c2, c3, c4)
    vectors: tuple[CharVector, ...]  # known alternatives preserved by the redefinition

    def to_json(self) -> dict:
        names = ("a", "b1", "b2", "c1", "c2", "c3", "c4")
        return {
            "parameters": {k: format_fraction(v) for k, v in zip(names, self.parameters)},
            "vectors": [list(f) for f in self.vectors],
        }


def _alternative_flags(op: SecondOrderOp, bound: int, n: int) -> tuple[CharVector, ...]:
    """The known vectors other than the minimal one whose flag ``op`` preserves
    through level n, among those with components <= bound, sorted: what a scan
    at ``bound`` reports of them, without checking the other vectors."""
    known = set(KNOWN_CHARACTERISTIC_VECTORS) - {MINIMAL_CHARVEC}
    return tuple(f for f in sorted(known) if max(f) <= bound and preserves_flag(op, f, n))


def ambiguity_search(op: SecondOrderOp, bound: int = 6, n: int = 6) -> dict:
    """Search invariant redefinitions that move the operator onto another flag.

    Deterministic staged grid: every single-parameter shear with
    parameter height up to ``SINGLE_HEIGHT``, then parameter pairs up to
    ``PAIR_HEIGHT``; the search ends at the first hit.  A hit is a
    redefinition whose transformed operator preserves a known
    characteristic vector other than the minimal one with components at
    most ``bound``, as a scan at ``bound`` would report it; only those
    vectors are checked, and without one none is tried.  Whatever the
    grid yields is reported; exhaustion without a hit is a valid outcome.
    """
    if op.frame != "t":
        raise ValueError("the redefinition search is defined in the t frame")
    _check_scan_range(bound, n)
    grid = list(_redefinitions())
    searched, found = len(grid), []
    hopeless = all(max(f) > bound for f in KNOWN_CHARACTERISTIC_VECTORS if f != MINIMAL_CHARVEC)
    for tried, values in enumerate([] if hopeless else grid, 1):
        hits = _alternative_flags(op.change_variables(*ambiguity_map(*values)), bound, n)
        if hits:
            searched = tried
            found.append(AmbiguityFinding(values, hits).to_json())
            break
    return {
        "searched": searched,
        "single_height": SINGLE_HEIGHT,
        "pair_height": PAIR_HEIGHT,
        "found": found,
        "not_found": not found,
    }
