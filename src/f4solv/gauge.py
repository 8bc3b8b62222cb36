"""Logarithmic gradients of the ground states.

Only the gradient of log Psi0 enters the gauge-rotated operators, so the
ground states themselves are never evaluated at non-rational powers.
Both ground states are products over the 24 positive roots of F4
(``invariants.POSITIVE_ROOTS``), so component k of either gradient is

    sum over the roots alpha of  g_alpha alpha_k pole(alpha . x)

with one pole per root and point: 1/y for the rational model (exact,
plus the Gaussian drift -omega x_k) and beta cot(beta y) for the
periodic model.  The periodic gradient is exact too at the unit-circle
parameters of ``invariants.circle_points``, where every cotangent is
rational; at real mpmath points (the public ``grad_log_ground_state_trig``)
it is evaluated at 200 bits, each term ((g alpha_k) beta) cot(beta (alpha . x))
in that order of association and each component summed in root-table order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Sequence

from .errors import PoleError
from .invariants import POSITIVE_ROOTS, periodic_factors, singular_factors
from .models import ModelParams
from .poly import PowerTable

if TYPE_CHECKING:
    import mpmath


def mp_context() -> mpmath.MPContext:
    """A fresh mpmath context at 200 bits.  mpmath is loaded here, so only
    callers of the public floating-point gradient pay for it."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = 200
    return ctx


def _pole_sum(params: ModelParams, poles: Sequence, beta, zero, convert=Fraction) -> list:
    """Component k: the sum over the positive roots of ((g alpha_k) beta) pole,
    with one pole per root in table order (beta = 1 for the exact gradients)
    and each coupling g taken through ``convert`` once."""
    g = {name: convert(getattr(params, name)) for name in ("nu", "mu")}
    grad = []
    for k in range(4):
        acc = zero
        for (coupling, alpha, _), pole in zip(POSITIVE_ROOTS, poles):
            if alpha[k]:
                acc += g[coupling] * alpha[k] * beta * pole
        grad.append(acc)
    return grad


def _exact_pole_sum(params: ModelParams, factors: Sequence, x: Sequence) -> list:
    """``_pole_sum`` over int at the exact poles n / d of the named factors
    (``PoleError`` names the first with d = 0 at the point x): the poles are
    put over their common denominator and the couplings over theirs, and
    each component is reduced to a ``Fraction`` once."""
    for name, (_, d) in factors:
        if not d:
            raise PoleError(name, tuple(x))
    den = lcm(*(d for _, (_, d) in factors))
    g_den = lcm(*(Fraction(getattr(params, name)).denominator for name in ("nu", "mu")))
    poles = [n * (den // d) for _, (n, d) in factors]
    grad = _pole_sum(params, poles, 1, 0, lambda g: (Fraction(g) * g_den).numerator)
    return [Fraction(v, den * g_den) for v in grad]


def grad_log_ground_state_rational(
    params: ModelParams, x: Sequence[Fraction]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact gradient of log Psi0 for the rational model.

    Component k collects the simple poles g alpha_k / (alpha . x) of the
    positive roots, minus the Gaussian term omega x_k.  With x = X / q over
    int, each pole is q / (alpha . X); ``PoleError`` names a vanishing factor.
    """
    x = [Fraction(v) for v in x]
    table = PowerTable(x)  # X and q
    factors = [(name, (table.denominator, v)) for name, v in singular_factors(table.values)]
    omega = params.require_omega()
    return tuple(g - omega * v for g, v in zip(_exact_pole_sum(params, factors, x), x))


def grad_log_ground_state_circle(params: ModelParams, x: Sequence) -> list:
    """Exact gradient of log Psi0 for the periodic model, divided by |beta|.

    ``x`` holds the parameters of ``invariants.circle_points`` (t_k, or
    r_k when beta2 < 0).  Component k collects g alpha_k cot(alpha . theta)
    over the positive roots (coth at beta2 < 0), each the c / s of
    ``invariants.periodic_factors``; a zero s raises ``PoleError`` naming it.
    """
    return _exact_pole_sum(params, periodic_factors(x, params.require_beta2()), x)


def grad_log_ground_state_trig(params: ModelParams, x: Sequence, beta, ctx=None) -> list:
    """Gradient of log Psi0 for the periodic model, as mpmath numbers.

    Component k collects g alpha_k beta cot(beta alpha . x) over the
    positive roots; each root's cotangent is evaluated once.  The values
    belong to ``ctx`` (by default a fresh 200-bit context).  Each exact
    input (the couplings, a ``Fraction`` beta or coordinate) is rounded
    once to nearest: mpmath's own conversion of a ``Fraction`` truncates.
    """
    from mpmath.libmp import from_rational

    ctx = ctx or mp_context()

    def convert(v):
        if isinstance(v, (int, Fraction)):
            return ctx.make_mpf(from_rational(*Fraction(v).as_integer_ratio(), ctx.prec, "n"))
        return ctx.convert(v)

    beta = convert(beta)
    xs = [convert(v) for v in x]
    tiny = ctx.mpf(2) ** (-(ctx.prec // 2))
    cots = []
    for name, value in singular_factors(xs):
        arg = beta * value
        s = ctx.sin(arg)
        if abs(s) < tiny:
            raise PoleError(name, tuple(float(v) for v in xs))
        cots.append(ctx.cos(arg) / s)
    return _pole_sum(params, cots, beta, ctx.mpf(0), convert)

