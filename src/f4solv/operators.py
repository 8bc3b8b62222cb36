"""Second-order differential operators with polynomial coefficients.

An operator is

    sum_{a,b} S_ab d^2/dv_a dv_b  +  sum_a B_a d/dv_a  +  C

over the four frame variables, with S symmetric.  The coefficient table
stores the upper triangle only; application expands the symmetric sum,
so a stored mixed entry acts twice.  All coefficients are ``MPoly`` in
the operator's frame and every computation is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, sub
from typing import Mapping, NamedTuple

from .errors import ClosureError, FrameError, MapError
from .linalg import RatMatrix
from .poly import SLOT, VAR_IDS, Exp, Frozen, MPoly, VarMap, is_inverse_pair, merge_terms

#: slot pairs (i, j), i <= j: a shift multiplier's products p_i p_j, the oracle's P_ij
PAIRS = tuple((i, j) for i in range(4) for j in range(i, 4))
#: upper-triangle index pairs in canonical order
A_PAIRS = tuple((VAR_IDS[i], VAR_IDS[j]) for i, j in PAIRS)


class SecondOrderOp(Frozen):
    """Immutable second-order operator with exact polynomial coefficients."""

    __slots__ = ("frame", "a", "b", "c", "_images", "_shifts")

    def __init__(
        self,
        frame: str,
        a: Mapping[tuple[int, int], MPoly],
        b: Mapping[int, MPoly],
        c: MPoly | None = None,
    ):
        c = MPoly.zero(frame) if c is None else c
        a_clean: dict[tuple[int, int], MPoly] = {}
        b_clean: dict[int, MPoly] = {}
        entries = chain(  # lazily, so entries are checked in order: A, then B, then C
            ((a_clean, (i, j), p) for (i, j), p in a.items()),
            ((b_clean, (i,), p) for i, p in b.items()),
            [(None, (), c)],
        )
        for table, labels, poly in entries:
            if any(v not in SLOT for v in labels):
                what = "pair ({}, {})" if table is a_clean else "index {}"
                raise ValueError("bad variable " + what.format(*labels))
            if poly.frame != frame:
                raise FrameError("coefficient frame mismatch")
            if table is not None and not poly.is_zero():  # A is keyed by (i, j), i <= j
                table[tuple(sorted(labels)) if table is a_clean else labels[0]] = poly
        # the image memo (monomial -> image terms), and the shift table _shift_table builds
        self._init(frame, a_clean, b_clean, c, {}, None)

    def __eq__(self, other) -> bool:  # the image memo and shift table are not compared
        return (
            isinstance(other, SecondOrderOp)
            and self.frame == other.frame
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def a_entry(self, i: int, j: int) -> MPoly:
        if i > j:
            i, j = j, i
        return self.a.get((i, j), MPoly.zero(self.frame))

    # -- application ------------------------------------------------------

    def apply(self, p: MPoly) -> MPoly:
        """Exact image of ``p`` under the operator.

        The coefficient products are merged into one term dict in table
        order: the term order of summing them as polynomials.
        """
        if p.frame != self.frame:
            raise FrameError(f"operator frame {self.frame!r}, polynomial {p.frame!r}")
        acc: dict[Exp, Fraction] = {}
        first = [p.derivative(s) for s in range(4)]
        for (i, j), coeff in self.a.items():
            d2 = first[SLOT[i]].derivative(SLOT[j])
            if d2.terms:  # a symmetric table entry acts on both derivative orders
                merge_terms(acc, ((coeff if i == j else coeff * 2) * d2).terms)
        for i, coeff in self.b.items():
            merge_terms(acc, (coeff * first[SLOT[i]]).terms)
        merge_terms(acc, (self.c * p).terms)
        return MPoly._trusted(self.frame, acc)

    def image(self, m: Exp) -> tuple[tuple[Exp, int], ...]:
        """Sorted ``(exponent, int)`` terms of the image of monomial ``m``
        times d, the operator's denominator ``_shift_table()[0]``: read off
        the shift table once per operator and shared."""
        m = tuple(m)
        terms = self._images.get(m)
        if terms is None:
            q = (1, *m, *[m[i] * m[j] for i, j in PAIRS])
            found = []
            for s, row in self._shift_table()[1]:
                acc = sum(map(mul, row, q))
                if acc:  # a target with a negative exponent always sums to 0
                    found.append((tuple(map(add, m, s)), acc))
            terms = self._images[m] = tuple(sorted(found))
        return terms

    def _shift_table(self) -> tuple[int, tuple[tuple[Exp, tuple[int, ...]], ...]]:
        """``(d, ((s, row), ...))``: a coefficient term c t^a of A_ij, B_i or C
        sends t^p to t^(p + s), s = a - e_i - e_j, a - e_i or a, times
        c p_i (p_j - [i = j]) (twice for a mixed entry), c p_i or c.  Summed
        over a shift this is row . (1, p, p_i p_j for i <= j) / d, the row of
        integers; rows that cancel are dropped.  Built once, from d * self.
        """
        if self._shifts is None:
            d, scaled = self.scaled_to_integers()
            parts = [(scaled.c, (), ((0, 1),))]  # (poly, slots differentiated, row weights)
            parts += [(p, (SLOT[i],), ((1 + SLOT[i], 1),)) for i, p in scaled.b.items()]
            for (i, j), p in scaled.a.items():
                i, j = SLOT[i], SLOT[j]
                q = 5 + PAIRS.index((i, j))
                parts.append((p, (i, j), ((q, 1), (1 + i, -1)) if i == j else ((q, 2),)))
            rows: dict[Exp, list[int]] = {}
            for poly, slots, weights in parts:
                drop = [slots.count(k) for k in range(4)]
                for exp, c in poly.terms.items():
                    row = rows.setdefault(tuple(map(sub, exp, drop)), [0] * 15)
                    for k, w in weights:
                        row[k] += w * c
            table = tuple((s, tuple(row)) for s, row in rows.items() if any(row))
            object.__setattr__(self, "_shifts", (d, table))
        return self._shifts

    def scaled_to_integers(self) -> tuple[int, "SecondOrderOp"]:
        """``(d, d * self)``, d the lcm of the coefficient denominators: the
        scaled operator maps ``int`` coefficients to ``int`` coefficients."""
        polys = (*self.a.values(), *self.b.values(), self.c)
        d = lcm(*(c.denominator for p in polys for c in p.terms.values()))
        a = {k: p._times_int(d) for k, p in self.a.items()}
        b = {k: p._times_int(d) for k, p in self.b.items()}
        return d, SecondOrderOp(self.frame, a, b, self.c._times_int(d))

    # -- change of variables -----------------------------------------------

    def change_variables(self, fwd: VarMap, inv: VarMap) -> "SecondOrderOp":
        """Rewrite the operator in the variables defined by ``fwd``.

        ``fwd`` sends each new variable to its expression phi_c in the
        current frame and ``inv`` is its exact inverse (checked).  The
        operator transports itself through ``apply``: with L0 the operator
        without its C term, the new first-order coefficients are L0(phi_c)
        and the new second-order ones the carre du champ
        (L0(phi_c phi_d) - phi_c L0(phi_d) - phi_d L0(phi_c)) / 2, in which
        the first-order parts cancel and a stored mixed entry acts twice,
        as in ``apply``.  Each is rewritten through ``inv``, as is C; the
        result stays polynomial for shear maps.
        """
        if fwd.target != self.frame:
            raise FrameError("forward map must land in the operator frame")
        if not is_inverse_pair(fwd, inv):
            raise MapError("substitution pair is not mutually inverse")
        l0 = SecondOrderOp(self.frame, self.a, self.b)
        phi = dict(zip(VAR_IDS, fwd.images))
        l0_phi = {i: l0.apply(p) for i, p in phi.items()}
        new_a = {}
        for i, j in A_PAIRS:
            gamma = l0.apply(phi[i] * phi[j]) - phi[i] * l0_phi[j] - phi[j] * l0_phi[i]
            new_a[(i, j)] = (gamma * Fraction(1, 2)).substitute(inv)
        new_b = {i: p.substitute(inv) for i, p in l0_phi.items()}
        return SecondOrderOp(fwd.source, new_a, new_b, self.c.substitute(inv))

    def __repr__(self) -> str:
        return f"SecondOrderOp(frame={self.frame!r}, terms={len(self.a) + len(self.b)})"


class MatrixResult(NamedTuple):
    """Matrix of an operator on a graded basis."""

    matrix: RatMatrix


def op_matrix(op: SecondOrderOp, basis) -> MatrixResult:
    """Matrix of ``op`` on ``basis``, filled from the images' int terms over
    the operator's denominator: column j holds the image of monomial j.
    The basis must be closed under ``op`` (``flags.preserves_flag`` decides
    that): an image term outside it raises ``ClosureError``, naming the
    monomial and the term's exponents.
    """
    index = basis.index()
    rows: list[dict[int, int]] = [{} for _ in index]
    for j, m in enumerate(basis.monomials):
        for exp, coeff in op.image(m):
            i = index.get(exp)
            if i is None:
                raise ClosureError(f"the image of monomial {list(m)} leaves the basis: {list(exp)}")
            rows[i][j] = coeff
    return MatrixResult(RatMatrix._sparse(len(index), op._shift_table()[0], rows))
