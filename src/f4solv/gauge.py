"""Logarithmic gradients of the ground states.

Only the gradient of log Psi0 enters the gauge-rotated operators, so the
ground states themselves are never evaluated at non-rational powers.
The rational-model gradient is a sum of simple poles plus the Gaussian
drift and is computed exactly; the periodic-model gradient is a sum of
cotangents evaluated in high-precision floating point (mpmath).
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Sequence

import mpmath

from .errors import PoleError
from .invariants import HALF_SUM_SIGNS, singular_factors
from .models import ModelParams

DEFAULT_PRECISION_BITS = 200


def precision_bits() -> int:
    """Working precision for the floating-point paths, in bits."""
    raw = os.environ.get("F4SOLV_PRECISION", "")
    try:
        bits = int(raw)
    except ValueError:
        bits = 0
    return bits if bits >= 53 else DEFAULT_PRECISION_BITS


def mp_context() -> mpmath.MPContext:
    ctx = mpmath.mp.clone()
    ctx.prec = precision_bits()
    return ctx


def check_nonsingular(x: Sequence[Fraction]) -> None:
    for name, value in singular_factors(x):
        if value == 0:
            raise PoleError(name, tuple(x))


def grad_log_ground_state_rational(
    params: ModelParams, x: Sequence[Fraction]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact gradient of log Psi0 for the rational model.

    Component k collects nu-weighted poles on x_k +- x_i, mu-weighted
    poles on x_k and on the eight half-sum hyperplanes, minus the
    Gaussian term omega x_k.
    """
    x = [Fraction(v) for v in x]
    check_nonsingular(x)
    nu, mu, omega = params.nu, params.mu, params.require_omega()
    half_sums = [sum(s * v for s, v in zip(signs, x)) for signs in HALF_SUM_SIGNS]
    grad = []
    for k in range(4):
        acc = Fraction(0)
        for i in range(4):
            if i != k:
                acc += nu * (1 / (x[k] + x[i]) + 1 / (x[k] - x[i]))
        acc += mu / x[k]
        for signs, h in zip(HALF_SUM_SIGNS, half_sums):
            acc += mu * signs[k] / h
        acc -= omega * x[k]
        grad.append(acc)
    return tuple(grad)


def grad_log_ground_state_trig(params: ModelParams, x: Sequence, beta, ctx=None) -> list:
    """Gradient of log Psi0 for the periodic model, as mpmath numbers.

    Component k collects nu beta cot(beta (x_k +- x_i)), 2 mu beta
    cot(2 beta x_k), and mu beta cot of the eight half-sum arguments.
    The values belong to ``ctx`` (by default a fresh working-precision
    context).
    """
    ctx = ctx or mp_context()
    beta = ctx.convert(beta)
    xs = [ctx.convert(v) for v in x]
    nu, mu = params.nu, params.mu
    tiny = ctx.mpf(2) ** (-(ctx.prec // 2))

    def cot(arg, factor_name):
        s = ctx.sin(arg)
        if abs(s) < tiny:
            raise PoleError(factor_name, tuple(float(v) for v in xs))
        return ctx.cos(arg) / s

    half_args = [
        beta * sum(s * v for s, v in zip(signs, xs)) for signs in HALF_SUM_SIGNS
    ]
    grad = []
    for k in range(4):
        acc = ctx.mpf(0)
        for i in range(4):
            if i != k:
                acc += nu * beta * cot(beta * (xs[k] + xs[i]), f"x{k + 1}+x{i + 1}")
                acc += nu * beta * cot(beta * (xs[k] - xs[i]), f"x{k + 1}-x{i + 1}")
        acc += 2 * mu * beta * cot(2 * beta * xs[k], f"x{k + 1}")
        for signs, arg in zip(HALF_SUM_SIGNS, half_args):
            acc += mu * signs[k] * beta * cot(arg, "half-sum")
        grad.append(acc)
    return grad


def log_abs_ground_state_rational(params: ModelParams, x: Sequence, ctx=None):
    """log |Psi0| for the rational model, for finite-difference checks."""
    ctx = ctx or mp_context()
    nu, mu, omega = params.nu, params.mu, params.require_omega()
    xs = [ctx.mpf(str(v)) if isinstance(v, float) else ctx.mpf(v) for v in x]
    acc = ctx.mpf(0)
    for i in range(4):
        for j in range(i + 1, 4):
            acc += nu * ctx.log(abs(xs[j] + xs[i]))
            acc += nu * ctx.log(abs(xs[j] - xs[i]))
    for v in xs:
        acc += mu * ctx.log(abs(v))
    for signs in HALF_SUM_SIGNS:
        acc += mu * ctx.log(abs(sum(s * v for s, v in zip(signs, xs))))
    acc -= omega * sum(v * v for v in xs) / 2
    return acc


def log_abs_ground_state_trig(params: ModelParams, x: Sequence, beta, ctx=None):
    """log |Psi0| for the periodic model, for finite-difference checks."""
    ctx = ctx or mp_context()
    nu, mu = params.nu, params.mu
    beta = ctx.mpf(beta)
    xs = [ctx.mpf(str(v)) if isinstance(v, float) else ctx.mpf(v) for v in x]
    acc = ctx.mpf(0)
    for i in range(4):
        for j in range(i + 1, 4):
            acc += nu * ctx.log(abs(ctx.sin(beta * (xs[j] + xs[i]))))
            acc += nu * ctx.log(abs(ctx.sin(beta * (xs[j] - xs[i]))))
    for v in xs:
        acc += mu * ctx.log(abs(ctx.sin(2 * beta * v)))
    for signs in HALF_SUM_SIGNS:
        arg = beta * sum(s * v for s, v in zip(signs, xs))
        acc += mu * ctx.log(abs(ctx.sin(arg)))
    return acc
