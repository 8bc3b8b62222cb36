"""Sparse exact polynomials in four variables.

A polynomial is a mapping from exponent vectors to rational coefficients:

    terms = {(p1, p3, p4, p6): Fraction, ...}

Exponent vectors are 4-tuples of non-negative ints and every coefficient
is a ``fractions.Fraction`` (an ``int`` in the integer-scaled copies that
the residual certificates use), so arithmetic is exact and two polynomials
are equal exactly when their term maps are equal.  Zero coefficients are
never stored; the zero polynomial is the empty map.

Each polynomial carries a *frame* tag naming the variable set it lives
in.  Mixing frames silently is always a bug (the sheared frames grade
differently), so binary operations check tags and raise ``FrameError``.
Frames used by the library:

    "t"     t1, t3, t4, t6      invariant variables, harmonic model
    "tau"   tau1 ... tau6       periodic invariant variables
    "rho"   rho1 ... rho6       sheared periodic variables
    "x2"    u1 ... u4           squared Cartesian coordinates
    "sin2"  s1 ... s4           squared scaled sines of the coordinates

The invariant frames index their variables 1, 3, 4, 6 (by polynomial
degree in the underlying coordinates); the helper ``SLOT`` maps those
labels to tuple positions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence, Union

from .errors import FrameError, MapError

Exp = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

#: variable display names per frame
FRAME_VARS: dict[str, tuple[str, str, str, str]] = {
    "t": ("t1", "t3", "t4", "t6"),
    "tau": ("tau1", "tau3", "tau4", "tau6"),
    "rho": ("rho1", "rho3", "rho4", "rho6"),
    "x2": ("u1", "u2", "u3", "u4"),
    "sin2": ("s1", "s2", "s3", "s4"),
}

#: invariant-variable label -> tuple slot
VAR_IDS = (1, 3, 4, 6)
SLOT = {1: 0, 3: 1, 4: 2, 6: 3}

ZERO_EXP: Exp = (0, 0, 0, 0)

#: the minimal characteristic vector of the preserved flag, which also orders terms for display
MINIMAL_CHARVEC = (1, 2, 2, 3)
#: degree of each invariant variable in the squared coordinates
DEGREE_WEIGHTS = (1, 3, 4, 6)


def weighted_grade(exp: Sequence[int], weights: Sequence[int]) -> int:
    """Weighted degree of an exponent vector."""
    return (
        exp[0] * weights[0]
        + exp[1] * weights[1]
        + exp[2] * weights[2]
        + exp[3] * weights[3]
    )


def format_fraction(value: Fraction) -> str:
    """The value as "n" or "n/d", in full.

    Exact results can have more digits than Python's int-to-str limit
    (4300 by default), so the limit is lifted for them while they are
    formatted; parsing keeps it.
    """
    if type(value) not in (Fraction, int):  # str of either is already "n" or "n/d"
        value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def term_order_key(exp: Exp, weights: Sequence[int], frame: str):
    """Canonical ordering key: grade ascending, then lexicographic descending.

    The intra-grade direction is frame-dependent, chosen so that every
    grade-preserving transition of the model operators moves strictly
    earlier, which is what makes their matrices literally triangular.
    The harmonic-model frames order t1-rich monomials first; the sheared
    periodic frame pushes them last (its corrections reverse the mixing
    direction), reading the exponents in the order (p3, p6, p4, p1).
    """
    if frame == "rho":
        return (
            weighted_grade(exp, weights),
            (-exp[1], -exp[3], -exp[2], -exp[0]),
        )
    return (weighted_grade(exp, weights), tuple(-e for e in exp))


class Frozen:
    """Base of the immutable values: the fields are the subclass's
    ``__slots__``, set once by ``_init``; equality and hash go by field."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class MPoly(Frozen):
    """Immutable sparse polynomial in four tagged variables."""

    __slots__ = ("frame", "terms")

    def __init__(self, frame: str, terms: Mapping[Exp, Scalar] | None = None):
        if frame not in FRAME_VARS:
            raise FrameError(f"unknown frame {frame!r}")
        clean: dict[Exp, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != 4 or any(e < 0 or not isinstance(e, int) for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r}")
                c = Fraction(coeff)
                if c:
                    clean[exp] = c
        self._init(frame, clean)

    @classmethod
    def _trusted(cls, frame: str, terms: dict[Exp, Fraction]) -> "MPoly":
        """Arithmetic results only: ``terms`` is clean and owned, so no checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "frame", frame)
        object.__setattr__(out, "terms", terms)
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, frame: str) -> "MPoly":
        return cls(frame)

    @classmethod
    def constant(cls, frame: str, value: Scalar) -> "MPoly":
        return cls(frame, {ZERO_EXP: Fraction(value)})

    @classmethod
    def one(cls, frame: str) -> "MPoly":
        return cls.constant(frame, 1)

    @classmethod
    def variable(cls, frame: str, slot: int) -> "MPoly":
        exp = [0, 0, 0, 0]
        exp[slot] = 1
        return cls(frame, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, frame: str, exp: Sequence[int]) -> "MPoly":
        return cls(frame, {tuple(exp): Fraction(1)})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {ZERO_EXP}

    def constant_value(self) -> Fraction:
        return self.terms.get(ZERO_EXP, Fraction(0))

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def sorted_terms(self):
        """The terms in the frame's canonical order under ``MINIMAL_CHARVEC``."""
        return sorted(
            self.terms.items(),
            key=lambda kv: term_order_key(kv[0], MINIMAL_CHARVEC, self.frame),
        )

    # -- arithmetic -------------------------------------------------------

    def _check_frame(self, other: "MPoly") -> None:
        if self.frame != other.frame:
            raise FrameError(f"frame mismatch: {self.frame!r} vs {other.frame!r}")

    def __add__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.frame, other)
        self._check_frame(other)
        out = dict(self.terms)
        merge_terms(out, other.terms)
        return MPoly._trusted(self.frame, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.frame, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.frame, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MPoly":
        return MPoly.constant(self.frame, other) - self

    def __mul__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            c = other if type(other) is int else Fraction(other)  # int stays int
            if not c:
                return MPoly.zero(self.frame)
            return MPoly._trusted(self.frame, {e: k * c for e, k in self.terms.items()})
        self._check_frame(other)
        out: dict[Exp, Fraction] = {}
        for ea, ca in self.terms.items():  # one row's exponents are distinct
            row = {
                (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3]): ca * cb
                for eb, cb in other.terms.items()
            }
            merge_terms(out, row)
        return MPoly._trusted(self.frame, out)

    __rmul__ = __mul__

    def _times_int(self, d: int) -> "MPoly":
        """``d * self`` with ``int`` coefficients; d clears every denominator."""
        return MPoly._trusted(
            self.frame, {e: c.numerator * (d // c.denominator) for e, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.one(self.frame)
        for _ in range(k):  # by repeated multiplication, the term order substitution keeps
            result = result * self
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self, slot: int) -> "MPoly":
        """Exact partial derivative with respect to the variable in ``slot``."""
        out: dict[Exp, Fraction] = {}
        for exp, coeff in self.terms.items():
            e = exp[slot]
            if not e:
                continue
            new = list(exp)
            new[slot] = e - 1
            out[tuple(new)] = coeff * e
        return MPoly._trusted(self.frame, out)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, varmap: "VarMap") -> "MPoly":
        """Exact composition ``self(varmap)``: the plan evaluated at a table of
        the images, which takes the generic loop.  The result lives in the
        target frame."""
        if self.frame != varmap.source:
            raise FrameError(
                f"substitution expects frame {varmap.source!r}, got {self.frame!r}"
            )
        value = EvalPlan(self)(PowerTable(varmap.images))
        return value if isinstance(value, MPoly) else MPoly.constant(varmap.target, value)

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point, as a ``Fraction``."""
        return EvalPlan(self)(PowerTable(Fraction(v) for v in point))

    def eval_float(self, point: Sequence) -> object:
        """Value at a point of arbitrary numeric type (floats, mpf, ...):
        the term-by-term sum in the numbers' own arithmetic."""
        return EvalPlan(self)(PowerTable(point))

    # -- equality, hashing, display -----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.frame == other.frame and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.frame, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = FRAME_VARS[self.frame]
        chunks = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = format_fraction(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            elif coeff == -1:
                body = "-" + "*".join(factors)
            else:
                body = format_fraction(coeff) + "*" + "*".join(factors)
            chunks.append(body)
        out = chunks[0]
        for c in chunks[1:]:
            out += " - " + c[1:] if c.startswith("-") else " + " + c
        return out

    def __repr__(self) -> str:
        return f"MPoly({self.frame!r}, {self})"


def merge_terms(acc: dict[Exp, Fraction], terms: Mapping[Exp, Fraction]) -> None:
    """Add clean ``terms`` into ``acc`` in place and in order: a new exponent
    goes to the end, one whose sum is zero is removed."""
    for exp, coeff in terms.items():
        old = acc.get(exp)
        if old is None:
            acc[exp] = coeff
        else:
            coeff = old + coeff
            if coeff:
                acc[exp] = coeff
            else:
                del acc[exp]


class PowerTable:
    """Powers of one point's coordinates, each computed once, and the
    monomials built from them.

    Both fill on demand, so one table serves every polynomial evaluated
    at the point in the form the coordinates' number type decides: ints
    and Fractions become integer numerators (``values``) over one common
    ``denominator``, so exact plans never build a Fraction; anything else
    (floats, mpmath numbers, mixed types, the images of a substitution)
    stays as given.
    """

    __slots__ = ("point", "values", "denominator", "powers", "monomials")

    def __init__(self, point: Sequence):
        self.point = self.values = point = tuple(point)
        self.denominator = None
        self.powers: dict[tuple[int, int], object] = {}  # (slot, exponent) -> power
        self.monomials: dict[Exp, object] = {}
        if all(type(v) is int or type(v) is Fraction for v in point):
            d = self.denominator = lcm(*(v.denominator for v in point))
            self.values = tuple(v.numerator * (d // v.denominator) for v in point)


class EvalPlan:
    """A polynomial's terms laid out for evaluation at many power tables.

    The table picks one of two loops:

    * exact, at a table with a ``denominator`` (ints and Fractions).  The
      coefficients are integer numerators c_e over one denominator C,
      grouped by total degree d up to the top degree m.  With the
      table's numerators a over D the value is
      ``sum_d D^(m-d) sum_{|e|=d} c_e a^e / (C D^m)``, summed exactly by
      Horner's rule in D and returned as a ``Fraction`` (``Fraction(0)``
      for the empty plan), one reduction per value.
    * generic, at every other table: each term's monomial, the product
      of its powers ``v**e`` in slot order, times the coefficient, with
      the terms summed in dict order.  That is the operation order of
      evaluating term by term, so floating-point results are
      bit-identical to it, and at a table of polynomials it is
      ``MPoly.substitute``.
    """

    __slots__ = ("terms", "denominator", "by_degree")

    def __init__(self, poly: MPoly):
        self.terms = terms = tuple(poly.terms.items())
        d = self.denominator = lcm(*(c.denominator for _, c in terms))
        by_degree: list[list] = [[] for _ in range(max(map(sum, poly.terms), default=0) + 1)]
        for exp, c in terms:
            by_degree[sum(exp)].append((exp, c.numerator * (d // c.denominator)))
        self.by_degree = tuple(map(tuple, by_degree))

    def __call__(self, table: PowerTable):
        return self._generic(table) if table.denominator is None else self._exact(table)

    def _exact(self, table: PowerTable) -> Fraction:
        top = len(self.by_degree) - 1
        return Fraction(self.numerator(table, top), self.denominator * table.denominator**top)

    def numerator(self, table: PowerTable, degree: int) -> int:
        """The value at an exact table times ``denominator * table.denominator
        ** degree``, an int for every degree from the plan's top degree up."""
        values, powers, monomials, d = table.values, table.powers, table.monomials, table.denominator
        acc = 0
        for group in self.by_degree:
            acc *= d
            for exp, c in group:
                prod = monomials.get(exp)
                if prod is None:
                    prod = 1
                    for s, e in enumerate(exp):
                        if e:
                            p = powers.get((s, e))
                            if p is None:
                                p = powers[s, e] = values[s] ** e
                            prod *= p
                    monomials[exp] = prod
                acc += c * prod
        return acc * d ** (degree + 1 - len(self.by_degree))

    def _generic(self, table: PowerTable):
        values, powers, monomials = table.values, table.powers, table.monomials
        acc = None
        for exp, coeff in self.terms:
            prod = monomials.get(exp)
            if prod is None:
                for s, e in enumerate(exp):
                    if e:
                        p = powers.get((s, e))
                        if p is None:
                            p = powers[s, e] = values[s] ** e
                        prod = p if prod is None else prod * p
                monomials[exp] = prod
            val = coeff if prod is None else prod * coeff
            acc = val if acc is None else acc + val
        return 0 if acc is None else acc


class VarMap(Frozen):
    """A substitution sending each source-frame variable to a target-frame polynomial."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: str, target: str, images: Sequence[MPoly]):
        if source not in FRAME_VARS or target not in FRAME_VARS:
            raise FrameError("unknown frame in substitution")
        images = tuple(images)
        if len(images) != 4:
            raise MapError("substitution must supply an image for every variable")
        for img in images:
            if img.frame != target:
                raise MapError(
                    f"image frame {img.frame!r} does not match target {target!r}"
                )
        self._init(source, target, images)

    def __repr__(self) -> str:
        return f"VarMap({self.source!r} -> {self.target!r})"


def is_inverse_pair(fwd: VarMap, inv: VarMap) -> bool:
    """Check exactly that ``fwd`` and ``inv`` compose to the identity both ways."""
    if fwd.source != inv.target or fwd.target != inv.source:
        return False
    for slot in range(4):
        if fwd.images[slot].substitute(inv) != MPoly.variable(inv.target, slot):
            return False
        if inv.images[slot].substitute(fwd) != MPoly.variable(fwd.target, slot):
            return False
    return True


def build_triangular_map(
    new_frame: str, old_frame: str, corrections: Mapping[int, MPoly]
) -> tuple[VarMap, VarMap]:
    """Build a shear substitution and its exact inverse.

    The new variable in ``slot`` equals the old one plus ``corrections[slot]``,
    a polynomial in old variables of strictly earlier slots only.  That
    triangular structure is what makes the map invertible by
    back-substitution; it is validated here.

    Returns ``(fwd, inv)`` where ``fwd`` rewrites new-frame polynomials in
    old-frame variables and ``inv`` does the reverse;
    ``SecondOrderOp.change_variables`` checks the pair it transports.
    """
    corr: dict[int, MPoly] = {}
    for slot, c in corrections.items():
        if c.frame != old_frame:
            raise MapError("correction must live in the old frame")
        if any(exp[j] for exp in c.terms for j in range(slot, 4)):
            raise MapError(
                f"correction for slot {slot} may only use earlier variables"
            )
        if not c.is_zero():
            corr[slot] = c

    fwd_images = []
    for slot in range(4):
        img = MPoly.variable(old_frame, slot)
        if slot in corr:
            img = img + corr[slot]
        fwd_images.append(img)
    fwd = VarMap(new_frame, old_frame, fwd_images)

    # Back-substitution: each correction only references slots already inverted.
    inv_images: list[MPoly] = [MPoly.variable(new_frame, s) for s in range(4)]
    for slot in range(4):
        if slot in corr:
            partial = VarMap(old_frame, new_frame, inv_images)
            inv_images[slot] = MPoly.variable(new_frame, slot) - corr[slot].substitute(
                partial
            )
    return fwd, VarMap(old_frame, new_frame, inv_images)
