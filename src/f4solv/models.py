"""The two F4 model operators in their algebraic form.

``build_rational_operator`` and ``build_trig_operator`` return the
gauge-rotated Hamiltonians as second-order operators with polynomial
coefficients in the invariant frames ("t" and "tau").  Both coefficient
tables are complete and hard-coded.  The diagonal t6 entry of the
rational model, which the printed table leaves out, is tabulated as
A[6,6] = -6 t3 t4^2 - 3 t1 t4 t6; ``oracle.derive_missing_a66``
re-derives it by two independent routes as a check, never on the build
path.

Couplings follow the model conventions

    rational:  g = nu (nu - 1),      g1 = mu (mu - 1) / 2
    periodic:  g = nu (nu - 1) / 2,  g1 = mu (mu - 1)

and the physical windows g > -1/4, g1 > -1/8 are reported as warnings
only; the algebraic operators are well defined beyond them.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Optional

from .errors import SingularMapError
from .operators import SecondOrderOp
from .poly import Frozen, MPoly, VarMap, build_triangular_map, format_fraction

RATIONAL = "rational"
TRIG = "trig"
MODELS = (RATIONAL, TRIG)

F = Fraction


class ModelParams(Frozen):
    """Exact model parameters as ``Fraction``; omega is rational-model only, beta2 trig only."""

    __slots__ = ("nu", "mu", "omega", "beta2")

    def __init__(self, nu: Fraction, mu: Fraction, omega: Optional[Fraction] = None,
                 beta2: Optional[Fraction] = None) -> None:
        self._init(Fraction(nu), Fraction(mu),
                   *(None if v is None else Fraction(v) for v in (omega, beta2)))

    __init__.__annotations__["return"] = None  # signature shows "-> None", not a postponed string

    def couplings(self, model: str) -> tuple[Fraction, Fraction]:
        if model == RATIONAL:
            return self.nu * (self.nu - 1), self.mu * (self.mu - 1) / 2
        if model == TRIG:
            return self.nu * (self.nu - 1) / 2, self.mu * (self.mu - 1)
        raise ValueError(f"unknown model {model!r}")

    def require_omega(self) -> Fraction:
        if self.omega is None:
            raise ValueError("rational model needs omega")
        return self.omega

    def with_omega(self) -> "ModelParams":
        """These couplings for a rational-model check: omega defaults to 1."""
        return self if self.omega is not None else ModelParams(self.nu, self.mu, 1, self.beta2)

    def require_beta2(self) -> Fraction:
        if self.beta2 is None:
            raise ValueError("trigonometric model needs beta2")
        return self.beta2


def _warn_windows(model: str, params: ModelParams) -> None:
    for name, value, bound in zip(("g", "g1"), params.couplings(model), (F(-1, 4), F(-1, 8))):
        if value <= bound:
            warnings.warn(
                f"{model} coupling {name} = {format_fraction(value)} outside the physical window "
                f"{name} > {bound}",
                RuntimeWarning,
                stacklevel=3,
            )


def _t(terms) -> MPoly:
    return MPoly("t", terms)


def _tau(terms) -> MPoly:
    return MPoly("tau", terms)


def rational_a_table() -> dict[tuple[int, int], MPoly]:
    """Second-order coefficients of the rational operator (complete).

    The (6,6) entry is absent from the printed table; its value here is
    the one ``oracle.derive_missing_a66`` reconstructs.
    """
    return {
        (1, 1): _t({(1, 0, 0, 0): 2}),
        (1, 3): _t({(0, 1, 0, 0): 6}),
        (1, 4): _t({(0, 0, 1, 0): 8}),
        (1, 6): _t({(0, 0, 0, 1): 12}),
        (3, 3): _t({(2, 1, 0, 0): F(-1, 3), (1, 0, 1, 0): F(10, 3)}),
        (3, 4): _t({(2, 0, 1, 0): F(-2, 3), (0, 0, 0, 1): 4}),
        (3, 6): _t({(0, 0, 2, 0): 8, (2, 0, 0, 1): -1}),
        (4, 4): _t({(0, 1, 1, 0): -2, (1, 0, 0, 1): -1}),
        (4, 6): _t({(1, 0, 2, 0): -2, (0, 1, 0, 1): -3}),
        (6, 6): _t({(0, 1, 2, 0): -6, (1, 0, 1, 1): -3}),
    }


def rational_b_table(params: ModelParams) -> dict[int, MPoly]:
    nu, mu, w = params.nu, params.mu, params.require_omega()
    return {
        1: _t({(1, 0, 0, 0): 2 * w, (0, 0, 0, 0): 24 * (nu + mu + F(1, 6))}),
        3: _t({(0, 1, 0, 0): 6 * w, (2, 0, 0, 0): -2 * (nu + mu / 2 + F(1, 4))}),
        4: _t({(0, 0, 1, 0): 8 * w, (0, 1, 0, 0): -6 * (nu + F(1, 3))}),
        6: _t({(0, 0, 0, 1): 12 * w, (1, 0, 1, 0): -6 * (nu + F(2, 3))}),
    }


def build_rational_operator(params: ModelParams) -> SecondOrderOp:
    """The rational-model operator in the t frame."""
    _warn_windows(RATIONAL, params)
    return SecondOrderOp("t", rational_a_table(), rational_b_table(params))


def trig_a_table(beta2: Fraction) -> dict[tuple[int, int], MPoly]:
    """Second-order coefficients of the trigonometric operator (complete)."""
    b2 = Fraction(beta2)
    b4 = b2 * b2
    b6 = b4 * b2
    return {
        (1, 1): _tau(
            {
                (1, 0, 0, 0): 4,
                (2, 0, 0, 0): -4 * b2,
                (0, 1, 0, 0): F(-32, 3) * b4,
                (0, 0, 1, 0): F(-128, 9) * b6,
            }
        ),
        (1, 3): _tau(
            {
                (0, 1, 0, 0): 12,
                (1, 1, 0, 0): F(-32, 3) * b2,
                (0, 0, 1, 0): F(-8, 3) * b2,
                (1, 0, 1, 0): F(-32, 9) * b4,
            }
        ),
        (1, 4): _tau(
            {
                (0, 0, 1, 0): 16,
                (1, 0, 1, 0): F(-40, 3) * b2,
                (0, 0, 0, 1): F(-16, 3) * b4,
            }
        ),
        (1, 6): _tau(
            {
                (0, 0, 0, 1): 24,
                (1, 0, 0, 1): -20 * b2,
                (0, 0, 2, 0): F(-32, 3) * b4,
            }
        ),
        (3, 3): _tau(
            {
                (2, 1, 0, 0): F(-2, 3),
                (1, 0, 1, 0): F(20, 3),
                (0, 2, 0, 0): -16 * b2,
                (2, 0, 1, 0): F(-8, 9) * b2,
                (0, 0, 0, 1): F(-32, 3) * b2,
            }
        ),
        (3, 4): _tau(
            {
                (2, 0, 1, 0): F(-4, 3),
                (0, 0, 0, 1): 8,
                (1, 0, 0, 1): F(-4, 3) * b2,
                (0, 1, 1, 0): -16 * b2,
            }
        ),
        (3, 6): _tau(
            {
                (0, 0, 2, 0): 16,
                (2, 0, 0, 1): -2,
                (0, 1, 0, 1): -24 * b2,
                (1, 0, 2, 0): F(-8, 3) * b2,
            }
        ),
        (4, 4): _tau(
            {
                (0, 1, 1, 0): -4,
                (1, 0, 0, 1): -2,
                (0, 0, 2, 0): -24 * b2,
            }
        ),
        (4, 6): _tau(
            {
                (1, 0, 2, 0): -4,
                (0, 1, 0, 1): -6,
                (0, 0, 1, 1): -36 * b2,
            }
        ),
        (6, 6): _tau(
            {
                (0, 1, 2, 0): -12,
                (1, 0, 1, 1): -6,
                (0, 0, 0, 2): -48 * b2,
                (0, 0, 3, 0): -8 * b2,
            }
        ),
    }


def trig_b_table(params: ModelParams) -> dict[int, MPoly]:
    """First-order coefficients of the trigonometric operator.

    Each entry is the sum of the coupling-free and coupling-proportional
    first-order parts.
    """
    nu, mu = params.nu, params.mu
    b2 = params.require_beta2()
    b4 = b2 * b2
    return {
        1: _tau(
            {
                (0, 0, 0, 0): 8 + 48 * (nu + mu),
                (1, 0, 0, 0): -8 * b2 - 8 * b2 * (5 * nu + 6 * mu),
            }
        ),
        3: _tau(
            {
                (2, 0, 0, 0): -1 - 2 * (2 * nu + mu),
                (0, 1, 0, 0): F(-56, 3) * b2 - 16 * b2 * (3 * nu + 5 * mu),
                (0, 0, 1, 0): F(-32, 9) * b4,
            }
        ),
        4: _tau(
            {
                (0, 1, 0, 0): -4 - 12 * nu,
                (0, 0, 1, 0): F(-88, 3) * b2 - 24 * b2 * (3 * nu + 4 * mu),
            }
        ),
        6: _tau(
            {
                (1, 0, 1, 0): -8 - 12 * nu,
                (0, 0, 0, 1): -56 * b2 - 48 * b2 * (2 * nu + 3 * mu),
            }
        ),
    }


def build_trig_operator(params: ModelParams) -> SecondOrderOp:
    """The trigonometric-model operator in the tau frame."""
    _warn_windows(TRIG, params)
    return SecondOrderOp("tau", trig_a_table(params.require_beta2()), trig_b_table(params))


def build_rho_map(beta2: Fraction) -> tuple[VarMap, VarMap]:
    """The flag-preserving shear that triangularizes the trigonometric operator.

    Singular in beta: every correction carries an inverse power of
    beta^2, so ``beta2 = 0`` has no such map.
    """
    b2 = Fraction(beta2)
    if b2 == 0:
        raise SingularMapError("the triangularizing shear is singular at beta2 = 0")
    inv2 = 1 / b2
    inv4 = inv2 * inv2
    inv6 = inv4 * inv2
    corrections = {
        1: _tau({(2, 0, 0, 0): F(-1, 8) * inv2}),
        2: _tau({(2, 0, 0, 0): F(-3, 16) * inv4}),
        3: _tau({(1, 0, 1, 0): F(-3, 4) * inv2, (3, 0, 0, 0): F(3, 64) * inv6}),
    }
    return build_triangular_map("rho", "tau", corrections)


def build_operator(model: str, frame: str, params: ModelParams) -> SecondOrderOp:
    """The model's operator in the frame "native" (t or tau) or "rho" (trig)."""
    if model == RATIONAL:
        return build_rational_operator(params)
    op = build_trig_operator(params)
    if frame == "rho":
        op = op.change_variables(*build_rho_map(params.require_beta2()))
    return op


def ambiguity_map(
    a: Fraction = 0,
    b1: Fraction = 0,
    b2: Fraction = 0,
    c1: Fraction = 0,
    c2: Fraction = 0,
    c3: Fraction = 0,
    c4: Fraction = 0,
) -> tuple[VarMap, VarMap]:
    """Redefinition of the invariants by lower-degree invariants of equal degree.

        t1 -> t1
        t3 -> t3 + a t1^3
        t4 -> t4 + b1 t1^4 + b2 t1 t3
        t6 -> t6 + c1 t1^6 + c2 t1^3 t3 + c3 t1^2 t4 + c4 t3^2

    Returns the substitution pair (forward, exact inverse).
    """
    corrections = {
        1: _t({(3, 0, 0, 0): a}),
        2: _t({(4, 0, 0, 0): b1, (1, 1, 0, 0): b2}),
        3: _t(
            {
                (6, 0, 0, 0): c1,
                (3, 1, 0, 0): c2,
                (2, 0, 1, 0): c3,
                (0, 2, 0, 0): c4,
            }
        ),
    }
    return build_triangular_map("t", "t", corrections)
