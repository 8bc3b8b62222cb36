"""Second-order differential operators with polynomial coefficients.

An operator is

    sum_{a,b} S_ab d^2/dv_a dv_b  +  sum_a B_a d/dv_a  +  C

over the four frame variables, with S symmetric.  The coefficient table
stores the upper triangle only; application expands the symmetric sum,
so a stored mixed entry acts twice.  All coefficients are ``MPoly`` in
the operator's frame and every computation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .errors import FrameError, MapError
from .linalg import RatMatrix
from .poly import SLOT, VAR_IDS, Exp, MPoly, VarMap, is_inverse_pair, merge_terms

#: upper-triangle index pairs in canonical order
A_PAIRS = tuple((a, b) for i, a in enumerate(VAR_IDS) for b in VAR_IDS[i:])


class SecondOrderOp:
    """Immutable second-order operator with exact polynomial coefficients."""

    __slots__ = ("frame", "a", "b", "c", "_images")

    def __init__(
        self,
        frame: str,
        a: Mapping[tuple[int, int], MPoly],
        b: Mapping[int, MPoly],
        c: MPoly | None = None,
    ):
        a_clean: dict[tuple[int, int], MPoly] = {}
        for (i, j), poly in a.items():
            if i not in SLOT or j not in SLOT:
                raise ValueError(f"bad variable pair ({i}, {j})")
            if i > j:
                i, j = j, i
            if poly.frame != frame:
                raise FrameError("coefficient frame mismatch")
            if not poly.is_zero():
                a_clean[(i, j)] = poly
        b_clean: dict[int, MPoly] = {}
        for i, poly in b.items():
            if i not in SLOT:
                raise ValueError(f"bad variable index {i}")
            if poly.frame != frame:
                raise FrameError("coefficient frame mismatch")
            if not poly.is_zero():
                b_clean[i] = poly
        if c is None:
            c = MPoly.zero(frame)
        if c.frame != frame:
            raise FrameError("coefficient frame mismatch")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "a", a_clean)
        object.__setattr__(self, "b", b_clean)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_images", {})  # monomial -> image terms

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SecondOrderOp is immutable")

    def __eq__(self, other) -> bool:  # the image memo is not compared
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

    def b_entry(self, i: int) -> MPoly:
        return self.b.get(i, MPoly.zero(self.frame))

    # -- application ------------------------------------------------------

    def apply(self, p: MPoly) -> MPoly:
        """Exact image of ``p`` under the operator.

        The coefficient products are merged into one term dict in table
        order: the term order of summing them as polynomials, which the
        trig oracle's floating-point sums follow.
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

    def image(self, m: Exp) -> tuple[tuple[Exp, Fraction], ...]:
        """Sorted ``(exponent, coefficient)`` terms of the image of monomial
        ``m``, computed through ``apply`` once per operator and shared."""
        m = tuple(m)
        terms = self._images.get(m)
        if terms is None:
            image = self.apply(MPoly.monomial(self.frame, m))
            terms = self._images[m] = tuple(sorted(image.terms.items()))
        return terms

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

        ``fwd`` sends each new variable to its expression in the current
        frame and ``inv`` is its exact inverse (checked).  The transported
        first-order coefficients pick up second-derivative terms of the
        forward map, so the result stays polynomial for shear maps.
        """
        if fwd.target != self.frame:
            raise FrameError("forward map must land in the operator frame")
        if not is_inverse_pair(fwd, inv):
            raise MapError("substitution pair is not mutually inverse")

        dphi = [[fwd.images[c].derivative(a) for a in range(4)] for c in range(4)]
        d2phi = [
            [[dphi[c][a].derivative(b) for b in range(4)] for a in range(4)]
            for c in range(4)
        ]

        def sym(a: int, b: int) -> MPoly:
            key = (VAR_IDS[a], VAR_IDS[b]) if a <= b else (VAR_IDS[b], VAR_IDS[a])
            return self.a.get(key, MPoly.zero(self.frame))

        new_a: dict[tuple[int, int], MPoly] = {}
        for ci in range(4):
            for di in range(ci, 4):
                acc = MPoly.zero(self.frame)
                for ai in range(4):
                    for bi in range(4):
                        coeff = sym(ai, bi)
                        if coeff.is_zero():
                            continue
                        part = dphi[ci][ai] * dphi[di][bi]
                        if not part.is_zero():
                            acc = acc + coeff * part
                if not acc.is_zero():
                    new_a[(VAR_IDS[ci], VAR_IDS[di])] = acc.substitute(inv)

        new_b: dict[int, MPoly] = {}
        for ci in range(4):
            acc = MPoly.zero(self.frame)
            for ai in range(4):
                for bi in range(4):
                    coeff = sym(ai, bi)
                    if coeff.is_zero():
                        continue
                    part = d2phi[ci][ai][bi]
                    if not part.is_zero():
                        acc = acc + coeff * part
            for ai in range(4):
                coeff = self.b.get(VAR_IDS[ai])
                if coeff is not None:
                    part = dphi[ci][ai]
                    if not part.is_zero():
                        acc = acc + coeff * part
            if not acc.is_zero():
                new_b[VAR_IDS[ci]] = acc.substitute(inv)

        new_c = self.c.substitute(inv)
        return SecondOrderOp(fwd.source, new_a, new_b, new_c)

    def __repr__(self) -> str:
        return f"SecondOrderOp(frame={self.frame!r}, terms={len(self.a) + len(self.b)})"


@dataclass(frozen=True)
class MatrixResult:
    """Matrix of an operator on a graded basis, plus closure information."""

    matrix: RatMatrix
    closed: bool
    witness: Optional[tuple[Exp, Exp, Fraction]]  # (source monomial, escaping term, coeff)


def op_matrix(op: SecondOrderOp, basis) -> MatrixResult:
    """Matrix of ``op`` on ``basis``; column j holds the image of monomial j.

    Non-closure is reported, never raised: the flag is false and the
    witness carries the lowest-grade basis monomial whose image escapes,
    along with the escaping term.
    """
    monos = basis.monomials
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    mat = RatMatrix.zero(n, n)
    closed = True
    witness = None
    for j, m in enumerate(monos):
        for exp, coeff in op.image(m):
            i = index.get(exp)
            if i is None:
                if closed:
                    closed = False
                    witness = (m, exp, coeff)
                continue
            mat.data[i][j] = coeff
    return MatrixResult(mat, closed, witness)
