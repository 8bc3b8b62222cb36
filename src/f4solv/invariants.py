"""Reflection-invariant variable maps for both models.

Both models become algebraic in four invariants of the coordinate
reflection group, indexed 1, 3, 4, 6 by their degree in the squared
coordinates.  The harmonic-model variables are fixed polynomial
combinations of the elementary symmetric functions of x_i^2; the
periodic-model variables apply the same combinations (plus explicit
correction terms in beta^2) to the elementary symmetric functions of
sin^2(beta x_i)/beta^2; at beta^2 = 0 the two polynomial sets are equal
(``verify --suite limit`` checks it exactly).

The combination formulas are written once, generically, so they serve
the exact symbolic path (``MPoly`` arguments), exact points and the
public floating-point ``variables_trig`` (float or ``mpf`` arguments).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import add, mul
from typing import Sequence

from .poly import MPoly, PowerTable, VarMap


def elem_sym_values(vals: Sequence) -> list:
    """The four elementary symmetric functions of four values: the products
    of k of them in ``combinations`` order, summed left to right (no 0 or 1
    to start from, so floats, signed zeros included, and mpfs keep their bits)."""
    return [reduce(add, (reduce(mul, c) for c in combinations(vals, k))) for k in range(1, 5)]


def t_from_sigma(sig: Sequence):
    """Invariant variables of the harmonic model from symmetric functions."""
    s1, s2, s3, s4 = sig
    t1 = s1
    t3 = s3 - Fraction(1, 6) * s1 * s2
    t4 = s4 - Fraction(1, 4) * s1 * s3 + Fraction(1, 12) * s2 * s2
    t6 = (
        s4 * s2
        - Fraction(1, 36) * s2 * s2 * s2
        - Fraction(3, 8) * s3 * s3
        + Fraction(1, 8) * s1 * s2 * s3
        - Fraction(3, 8) * s1 * s1 * s4
    )
    return [t1, t3, t4, t6]


def tau_from_sigma(sig: Sequence, beta2):
    """Invariant variables of the periodic model from symmetric functions:
    ``t_from_sigma`` plus the explicit beta^2 terms of tau1 and tau3."""
    s1, s2, s3, s4 = sig
    t1, t3, t4, t6 = t_from_sigma(sig)
    return [
        t1 - Fraction(2, 3) * beta2 * s2,
        t3 - 2 * beta2 * (s4 - Fraction(1, 36) * s2 * s2),
        t4,
        t6,
    ]


@lru_cache(maxsize=None)
def sigma_polys(frame: str) -> tuple[MPoly, MPoly, MPoly, MPoly]:
    """Elementary symmetric polynomials of the four frame variables."""
    return tuple(elem_sym_values([MPoly.variable(frame, s) for s in range(4)]))


@lru_cache(maxsize=None)
def t_polys() -> tuple[MPoly, MPoly, MPoly, MPoly]:
    """The harmonic-model invariants as exact polynomials in u_i = x_i^2."""
    return tuple(t_from_sigma(sigma_polys("x2")))


@lru_cache(maxsize=None)
def tau_polys(beta2: Fraction) -> tuple[MPoly, MPoly, MPoly, MPoly]:
    """The periodic-model invariants as exact polynomials in s_i = sin^2(beta x_i)/beta^2."""
    return tuple(tau_from_sigma(sigma_polys("sin2"), Fraction(beta2)))


def t_varmap() -> VarMap:
    """Substitution rewriting a t-frame polynomial in squared coordinates."""
    return VarMap("t", "x2", t_polys())


def tau_varmap(beta2: Fraction) -> VarMap:
    """Substitution rewriting a tau-frame polynomial in squared scaled sines."""
    return VarMap("tau", "sin2", tau_polys(Fraction(beta2)))


def variables_rational(x: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact invariant values at a rational point."""
    u = [Fraction(v) ** 2 for v in x]
    return tuple(t_from_sigma(elem_sym_values(u)))


def variables_trig(x: Sequence, beta) -> tuple:
    """Invariant values of the periodic model at a numeric point.

    ``x`` entries and ``beta`` may be floats or mpmath numbers; the squared
    scaled sines sin^2(beta x_i) / beta^2 use ``math.sin`` for floats and
    the sine of the operands' own mpmath context otherwise, so the
    computation follows the operand precision.
    """
    sines = []
    for v in x:
        arg = beta * v
        sines.append((getattr(arg, "context", math).sin(arg) / beta) ** 2)
    return tuple(tau_from_sigma(elem_sym_values(sines), beta * beta))


# -- singular set and reflection helpers -------------------------------------

#: sign patterns of the eight half-sum forms x1 +- x2 +- x3 +- x4
HALF_SUM_SIGNS = tuple((1,) + signs for signs in product((1, -1), repeat=3))


def _root(coupling: str, alpha: tuple) -> tuple[str, tuple, str]:
    name = "".join(("+" if a > 0 else "-") + f"x{k + 1}" for k, a in enumerate(alpha) if a)
    return coupling, alpha, name.lstrip("+")


#: the 24 positive roots of the ground-state product as (coupling, alpha,
#: factor name): e_i +- e_j weighted by nu, 2 e_k and the eight half-sums
#: weighted by mu.  Component k of a gradient sums its roots in table
#: order: partners x_k +- x_i by i (+ before -), its short root, then the
#: half-sums in ``HALF_SUM_SIGNS`` order.
POSITIVE_ROOTS = (
    tuple(
        _root("nu", tuple(1 if m == i else s if m == j else 0 for m in range(4)))
        for i, j in combinations(range(4), 2)
        for s in (1, -1)
    )
    + tuple(_root("mu", tuple(2 * (m == k) for m in range(4))) for k in range(4))
    + tuple(_root("mu", signs) for signs in HALF_SUM_SIGNS)
)


def singular_factors(x: Sequence) -> list[tuple[str, object]]:
    """(factor name, alpha . x) for every positive root, in table order."""
    return [
        (name, sum(a * x[k] for k, a in enumerate(alpha) if a))
        for _, alpha, name in POSITIVE_ROOTS
    ]


def circle_points(x: Sequence, beta2: Fraction) -> list[tuple[int, int, int]]:
    """(a, b, d) per coordinate, with (cos, sin) of theta_k = beta x_k equal to
    (a, b) / d, at exact parameters instead of coordinates.

    For beta2 > 0 the parameter is t_k = tan(theta_k / 2) (the Weierstrass
    substitution: (1 - t^2, 2t) / (1 + t^2)).  For beta2 < 0 it is
    r_k = e^phi_k > 0, phi_k = |beta| x_k, and (a, b) / d is (cosh, sinh)
    phi_k = (r + 1/r, r - 1/r) / 2.  Either way d > 0 and a^2 + eps b^2 = d^2,
    eps the sign of beta2.
    """
    out = []
    for v in x:
        if type(v) not in (int, Fraction) or (beta2 < 0 and v <= 0):
            raise ValueError(
                "the periodic model takes exact parameters t_k = tan(beta x_k / 2) "
                f"(beta2 > 0) or r_k = exp(|beta| x_k) > 0 (beta2 < 0), not {v!r}"
            )
        p, q = v.numerator, v.denominator
        if beta2 > 0:
            out.append((q * q - p * p, 2 * p * q, q * q + p * p))
        else:
            out.append((p * p + q * q, p * p - q * q, 2 * p * q))
    return out


def periodic_factors(x: Sequence, beta2: Fraction) -> list[tuple[str, tuple[int, int]]]:
    """(factor name, (c, s)) for every positive root, in table order, with
    (c, s) a positive multiple of (cos, sin) of alpha . theta (cosh and sinh
    for beta2 < 0) at the parameters of ``circle_points``.

    alpha . theta is an integer combination of the theta_k, so (c, s) is a
    product of the points (a_k, b_k) by angle addition, (a, -b) standing for
    -theta_k: exact integers, and c / s is the root's cotangent.
    """
    eps = 1 if beta2 > 0 else -1
    points = [(a, b) for a, b, _ in circle_points(x, beta2)]
    out = []
    for _, alpha, name in POSITIVE_ROOTS:
        c, s = 1, 0
        for (a, b), k in zip(points, alpha):
            b = b if k > 0 else -b
            for _ in range(abs(k)):
                c, s = c * a - eps * s * b, c * b + s * a
        out.append((name, (c, s)))
    return out


def is_singular_point(x: Sequence, beta2=None) -> bool:
    """Whether a ground-state factor vanishes: at a rational point (read
    over int, as its numerators over one denominator), or at the periodic
    parameters of ``circle_points`` when beta2 is given."""
    if beta2 is None:
        return any(value == 0 for _, value in singular_factors(PowerTable(x).values))
    return any(s == 0 for _, (_, s) in periodic_factors(x, beta2))
