"""Cartesian-coordinate cross-validation of the algebraic operators.

Applying the gauge identity directly in Cartesian coordinates gives an
independent way to evaluate what the algebraic operators compute:

    raw(P, x) = Lap(P o map)(x) + 2 grad(log Psi0) . grad(P o map)(x)

The printed coefficient tables are proportional to this up to an
affine normalization that the sources leave ambiguous, so the relation

    algebraic value = scale * raw + offset * P

is *calibrated*, never assumed: the scale must land in a small
candidate set and must then hold at every subsequent test point.  For
the rational model the calibration also has to decide the orientation
of the Gaussian drift term (the tables correspond to a drift +omega x,
the sign-flipped companion of the normalizable ground state; fitting
with the decaying orientation fails for every candidate scale).

The same machinery re-derives the one coefficient the printed rational
table leaves out, the diagonal t6 entry, along two independent routes.
``models.rational_a_table`` tabulates that entry; the derivation is a
check on it (``f4solv verify --suite a66``), not part of the build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import CalibrationError, DerivationError, ReductionError
from .gauge import grad_log_ground_state_trig, mp_context
from .invariants import (
    DEGREE_WEIGHTS,
    HALF_SUM_SIGNS,
    elem_sym_values,
    t_polys,
    t_varmap,
    tau_from_sigma,
    tau_varmap,
    variables_rational,
)
from .linalg import RatMatrix, solve_with_rank
from .models import (
    RATIONAL,
    TRIG,
    ModelParams,
    rational_a_table,
    rational_b_table,
    trig_a_table,
)
from .operators import SecondOrderOp
from .poly import MPoly, term_order_key
from .sampling import SeededSampler, alcove_points

SCALE_CANDIDATES = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
)


@dataclass(frozen=True)
class Calibration:
    """Empirically determined relation between an operator and its oracle."""

    model: str
    scale: Fraction
    offset: Fraction
    drift_sign: int  # +1: drift -omega x (decaying gauge); -1: drift +omega x


def _pole_gradient(params: ModelParams, x: Sequence[Fraction]) -> list[Fraction]:
    """The coupling poles of grad log Psi0, without the Gaussian term."""
    nu, mu = params.nu, params.mu
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
        grad.append(acc)
    return grad


def raw_oracle_rational(
    params: ModelParams,
    composed: MPoly,
    x: Sequence[Fraction],
    drift_sign: int = 1,
) -> Fraction:
    """Exact gauge-identity value for a polynomial already composed into x2 frame."""
    omega = params.require_omega()
    x = [Fraction(v) for v in x]
    u = [v * v for v in x]
    poles = _pole_gradient(params, x)
    first = [composed.derivative(k) for k in range(4)]
    acc = Fraction(0)
    for k in range(4):
        qk = first[k].eval_exact(u)
        qkk = first[k].derivative(k).eval_exact(u)
        acc += 2 * qk + 4 * u[k] * qkk  # Laplacian through u_k = x_k^2
        grad_k = poles[k] - drift_sign * omega * x[k]
        acc += 2 * grad_k * 2 * x[k] * qk
    return acc


class TrigOracleEvaluator:
    """Prepared oracle for one polynomial of the periodic model.

    Composition into the sine frame and the derivative polynomials are
    computed once; evaluation at a point is then pure arithmetic.
    """

    def __init__(
        self,
        params: ModelParams,
        p: Optional[MPoly],
        calibration: Optional["Calibration"] = None,
        ctx=None,
        composed: Optional[MPoly] = None,
    ):
        self.ctx = ctx or mp_context()
        self.params = params
        beta2 = params.require_beta2()
        self.beta = self.ctx.sqrt(self.ctx.mpf(beta2.numerator) / beta2.denominator)
        self.p = p
        if composed is None:
            composed = p.substitute(tau_varmap(beta2))
        self.composed = composed
        self.first = [composed.derivative(k) for k in range(4)]
        self.second = [self.first[k].derivative(k) for k in range(4)]
        self.calibration = calibration

    def tau_values(self, x: Sequence) -> tuple:
        ctx, beta = self.ctx, self.beta
        s_vals = [(ctx.sin(beta * v) / beta) ** 2 for v in x]
        return tuple(tau_from_sigma(elem_sym_values(s_vals), beta * beta))

    def raw(self, x: Sequence):
        ctx, beta = self.ctx, self.beta
        xs = [ctx.mpf(v) if not hasattr(v, "_mpf_") else v for v in x]
        s_vals = [(ctx.sin(beta * v) / beta) ** 2 for v in xs]
        s1 = [ctx.sin(2 * beta * v) / beta for v in xs]
        s2 = [2 * ctx.cos(2 * beta * v) for v in xs]
        grad = grad_log_ground_state_trig(self.params, xs, beta)
        acc = ctx.mpf(0)
        for k in range(4):
            qk = self.first[k].eval_float(s_vals)
            qkk = self.second[k].eval_float(s_vals)
            acc += qkk * s1[k] ** 2 + qk * s2[k]
            acc += 2 * grad[k] * qk * s1[k]
        return acc

    def value(self, x: Sequence):
        if self.calibration is None:
            raise ValueError("evaluator built without a calibration")
        raw = self.raw(x)
        return self.calibration.scale * raw + self.calibration.offset * self.p.eval_float(
            self.tau_values(x)
        )


def raw_oracle_trig(params: ModelParams, composed: MPoly, x: Sequence, ctx=None):
    """Gauge-identity value for the periodic model, in working precision."""
    return TrigOracleEvaluator(params, None, ctx=ctx, composed=composed).raw(x)


def calibrate_normalization(
    model: str, params: ModelParams, seed: int = 0
) -> Calibration:
    """Fit (scale, offset) on P = 1 and the first invariant at three points.

    The scale must land in {+-1, +-2, +-1/2}; the fit is then re-verified
    on extra points and fails loudly otherwise.
    """
    if model == RATIONAL:
        return _calibrate_rational(params, seed)
    if model == TRIG:
        return _calibrate_trig(params, seed)
    raise ValueError(f"unknown model {model!r}")


def _calibrate_rational(params: ModelParams, seed: int) -> Calibration:
    # built directly: build_rational_operator would repeat its window warning
    op = SecondOrderOp("t", rational_a_table(), rational_b_table(params))
    sampler = SeededSampler(seed, height=4)
    points = [sampler.point() for _ in range(8)]
    one = MPoly.one("t")
    p1 = MPoly.variable("t", 0)
    comp_one = one.substitute(t_varmap())
    comp_p1 = p1.substitute(t_varmap())

    offsets = {op.apply(one).eval_exact(variables_rational(x)) for x in points}
    if len(offsets) != 1:
        raise CalibrationError(f"offset is not constant across points: {offsets}")
    offset = offsets.pop()

    alg = [op.apply(p1).eval_exact(variables_rational(x)) for x in points]
    tvals = [p1.eval_exact(variables_rational(x)) for x in points]
    for drift_sign in (1, -1):
        raws = [raw_oracle_rational(params, comp_p1, x, drift_sign) for x in points]
        for s in SCALE_CANDIDATES:
            if all(
                s * raw + offset * tv == val
                for raw, tv, val in zip(raws, tvals, alg)
            ):
                # P = 1 consistency: raw vanishes on constants
                assert all(
                    raw_oracle_rational(params, comp_one, x, drift_sign) == 0
                    for x in points[:3]
                )
                return Calibration(RATIONAL, s, offset, drift_sign)
    raise CalibrationError(
        "no admissible scale matches the rational operator; "
        f"first point diagnostics: alg={alg[0]}, raw(+)={raw_oracle_rational(params, comp_p1, points[0], 1)}, "
        f"raw(-)={raw_oracle_rational(params, comp_p1, points[0], -1)}"
    )


def _calibrate_trig(params: ModelParams, seed: int) -> Calibration:
    from .models import build_trig_operator

    ctx = mp_context()
    beta2 = params.require_beta2()
    beta = ctx.sqrt(ctx.mpf(beta2.numerator) / beta2.denominator)
    op = build_trig_operator(params)
    points = alcove_points(seed, 10, beta, ctx)
    one = MPoly.one("tau")
    p1 = MPoly.variable("tau", 0)
    vm = tau_varmap(beta2)
    comp_p1 = p1.substitute(vm)

    def tau_values(x):
        s_vals = [(ctx.sin(beta * v) / beta) ** 2 for v in x]
        return tuple(tau_from_sigma(elem_sym_values(s_vals), beta * beta))

    offset_poly = op.apply(one)
    if not offset_poly.is_constant():
        raise CalibrationError("operator image of 1 is not constant")
    offset = offset_poly.constant_value()

    tol = ctx.mpf(10) ** (-int(ctx.dps * 0.6))
    alg = [op.apply(p1).eval_float(tau_values(x)) for x in points]
    raws = [raw_oracle_trig(params, comp_p1, x, ctx) for x in points]
    tvals = [tau_values(x)[0] for x in points]
    for s in SCALE_CANDIDATES:
        ok = True
        for raw, tv, val in zip(raws, tvals, alg):
            predicted = s * raw + offset * tv
            scale_ref = max(abs(val), abs(predicted), ctx.mpf(1))
            if abs(predicted - val) > tol * scale_ref:
                ok = False
                break
        if ok:
            return Calibration(TRIG, s, offset, 1)
    raise CalibrationError(
        "no admissible scale matches the trigonometric operator; "
        f"ratio at first point: {alg[0] / raws[0]}"
    )


def cartesian_oracle(
    model: str,
    params: ModelParams,
    p: MPoly,
    x: Sequence,
    calibration: Optional[Calibration] = None,
):
    """Evaluate the calibrated gauge identity on P at a point.

    Exact rational for the rational model (rational x), working-precision
    float for the periodic model.
    """
    if calibration is None:
        calibration = calibrate_normalization(model, params)
    if model == RATIONAL:
        composed = p.substitute(t_varmap())
        raw = raw_oracle_rational(params, composed, x, calibration.drift_sign)
        return calibration.scale * raw + calibration.offset * p.eval_exact(
            variables_rational(x)
        )
    if model == TRIG:
        ctx = mp_context()
        beta2 = params.require_beta2()
        composed = p.substitute(tau_varmap(beta2))
        raw = raw_oracle_trig(params, composed, x, ctx)
        beta = ctx.sqrt(ctx.mpf(beta2.numerator) / beta2.denominator)
        s_vals = [(ctx.sin(beta * ctx.mpf(v)) / beta) ** 2 for v in x]
        tau_vals = tau_from_sigma(elem_sym_values(s_vals), beta * beta)
        return calibration.scale * raw + calibration.offset * p.eval_float(tau_vals)
    raise ValueError(f"unknown model {model!r}")


# -- expressing invariants in the t frame -------------------------------------


def candidate_monomials(degree_bound: int) -> list[tuple[int, int, int, int]]:
    """t-frame monomials of squared-coordinate degree at most the bound."""
    out = []
    _, w3, w4, w6 = DEGREE_WEIGHTS
    for p6 in range(degree_bound // w6 + 1):
        for p4 in range((degree_bound - w6 * p6) // w4 + 1):
            for p3 in range((degree_bound - w6 * p6 - w4 * p4) // w3 + 1):
                for p1 in range(degree_bound - w6 * p6 - w4 * p4 - w3 * p3 + 1):
                    out.append((p1, p3, p4, p6))
    out.sort(key=lambda e: term_order_key(e, DEGREE_WEIGHTS))
    return out


def invariant_reduce(
    evaluator: Callable[[Sequence[Fraction]], Fraction],
    degree_bound: int,
    seed: int = 0,
    holdout: int = 10,
) -> MPoly:
    """Express a reflection-invariant function of x as a t-frame polynomial.

    Fits coefficients over all candidate monomials of squared-coordinate
    degree <= bound by exact linear solve on twice as many sample points
    as candidates, then verifies on a disjoint holdout set.  Any
    inconsistency (including a non-invariant input) surfaces as
    ``ReductionError``.
    """
    candidates = candidate_monomials(degree_bound)
    sampler = SeededSampler(seed)
    n_fit = 2 * len(candidates)
    # integer points, deduplicated by invariant values: the reflection
    # group identifies many points, and repeated rows cost rank
    points: list[tuple[Fraction, ...]] = []
    seen_t: set = set()
    while len(points) < n_fit + holdout:
        x = sampler.integer_point()
        tv = variables_rational(x)
        if tv in seen_t:
            continue
        seen_t.add(tv)
        points.append(x)

    def row(x):
        tv = variables_rational(x)
        return [
            MPoly.monomial("t", exp).eval_exact(tv) for exp in candidates
        ]

    matrix = RatMatrix([row(x) for x in points[:n_fit]])
    rhs = [evaluator(x) for x in points[:n_fit]]
    coeffs, matrix_rank = solve_with_rank(matrix, rhs)
    if coeffs is None:
        raise ReductionError("no polynomial in the invariants matches the function")
    if matrix_rank < len(candidates):
        raise ReductionError("sample points do not separate the candidate monomials")
    result = MPoly("t", dict(zip(candidates, coeffs)))
    for x in points[n_fit:]:
        if result.eval_exact(variables_rational(x)) != evaluator(x):
            raise ReductionError("holdout point mismatch after fitting")
    return result


# -- the diagonal coefficient missing from the printed table --------------------


def derive_missing_a66(params: ModelParams, seed: int = 0) -> MPoly:
    """Reconstruct the rational-model (6,6) coefficient by two routes.

    Route one reduces the calibrated pullback of the t6 direction
    against itself, scale * sum_k (d t6 / d x_k)^2, to the t frame.
    Route two takes the beta^2 -> 0 limit of the complete trigonometric
    table and rescales it by the (exact) table-to-table ratio.  The two
    results must be identical or the whole correctness story fails.
    Neither route reads the tabulated (6,6) entry, so the result can be
    checked against it.
    """
    rat_params = params if params.omega is not None else replace(params, omega=Fraction(1))
    cal = calibrate_normalization(RATIONAL, rat_params, seed)

    t6_u = t_polys()[3]
    grads = [t6_u.derivative(k) for k in range(4)]

    def evaluator(x):
        u = [Fraction(v) ** 2 for v in x]
        return cal.scale * sum(
            4 * u[k] * grads[k].eval_exact(u) ** 2 for k in range(4)
        )

    route_reduce = invariant_reduce(evaluator, 11, seed=seed)

    ratio = _rational_to_trig_ratio()
    limit_table = trig_a_table(Fraction(0))[(6, 6)]
    route_limit = MPoly("t", limit_table.terms) * ratio

    if route_reduce != route_limit:
        raise DerivationError(
            "the pullback route and the trigonometric limit disagree: "
            f"{route_reduce} vs {route_limit}"
        )
    return route_reduce


def _rational_to_trig_ratio() -> Fraction:
    """The constant relating the rational table to the beta^2 = 0 trig table."""
    rat = rational_a_table()
    del rat[(6, 6)]  # the entry under test must not vouch for itself
    limit = trig_a_table(Fraction(0))
    ratio = None
    for key, rpoly in sorted(rat.items()):
        lpoly = MPoly("t", limit[key].terms)
        exp = next(iter(rpoly.terms))
        r = rpoly.terms[exp] / lpoly.coefficient(exp)
        if ratio is None:
            ratio = r
        if lpoly * ratio != rpoly:
            raise DerivationError(
                f"tables are not proportional at entry {key}: ratio {r} vs {ratio}"
            )
    return ratio


# -- oracle sweeps -------------------------------------------------------------


def oracle_sweep_rational(
    params: ModelParams,
    n_points: int = 20,
    n_polys: int = 5,
    seed: int = 0,
    level: int = 4,
    extra_polys: Sequence[MPoly] = (),
) -> dict:
    """Exact oracle-versus-operator comparison on random polynomials.

    Returns a JSON-ready report; ``passed`` is true only if every single
    comparison is an exact equality.
    """
    from .flags import enumerate_basis
    from .models import build_rational_operator

    op = build_rational_operator(params)
    cal = calibrate_normalization(RATIONAL, params, seed)
    basis = enumerate_basis((1, 2, 2, 3), level)
    sampler = SeededSampler(seed, height=4)
    polys = [
        sampler.polynomial("t", basis.monomials) for _ in range(n_polys)
    ] + list(extra_polys)
    points = [sampler.point() for _ in range(n_points)]
    failures = []
    for pi, p in enumerate(polys):
        image = op.apply(p)
        for x in points:
            tv = variables_rational(x)
            lhs = image.eval_exact(tv)
            rhs = cartesian_oracle(RATIONAL, params, p, x, cal)
            if lhs != rhs:
                failures.append(
                    {
                        "poly_index": pi,
                        "point": [str(v) for v in x],
                        "algebraic": str(lhs),
                        "oracle": str(rhs),
                    }
                )
    return {
        "model": RATIONAL,
        "scale": str(cal.scale),
        "offset": str(cal.offset),
        "drift_sign": cal.drift_sign,
        "points": n_points,
        "polynomials": len(polys),
        "exact": True,
        "failures": failures,
        "passed": not failures,
    }


def oracle_sweep_trig(
    params: ModelParams,
    n_points: int = 20,
    n_polys: int = 5,
    seed: int = 0,
    level: int = 4,
    rel_tol: float = 1e-9,
) -> dict:
    """Oracle-versus-operator comparison for the periodic model.

    Relative error must stay below ``rel_tol`` at every point.
    """
    from .flags import enumerate_basis
    from .models import build_trig_operator

    ctx = mp_context()
    beta2 = params.require_beta2()
    beta = ctx.sqrt(ctx.mpf(beta2.numerator) / beta2.denominator)
    op = build_trig_operator(params)
    cal = calibrate_normalization(TRIG, params, seed)
    basis = enumerate_basis((1, 2, 2, 3), level)
    sampler = SeededSampler(seed, height=4)
    polys = [sampler.polynomial("tau", basis.monomials) for _ in range(n_polys)]
    points = alcove_points(seed + 1, n_points, beta, ctx)
    tol = ctx.mpf(rel_tol)
    worst = ctx.mpf(0)
    failures = []
    for pi, p in enumerate(polys):
        image = op.apply(p)
        evaluator = TrigOracleEvaluator(params, p, cal, ctx)
        for x in points:
            lhs = image.eval_float(evaluator.tau_values(x))
            rhs = evaluator.value(x)
            scale_ref = max(abs(lhs), abs(rhs), ctx.mpf(1))
            rel = abs(lhs - rhs) / scale_ref
            worst = max(worst, rel)
            if rel > tol:
                failures.append(
                    {
                        "poly_index": pi,
                        "point": [ctx.nstr(v, 20) for v in x],
                        "rel_error": ctx.nstr(rel, 8),
                    }
                )
    return {
        "model": TRIG,
        "scale": str(cal.scale),
        "offset": str(cal.offset),
        "points": n_points,
        "polynomials": len(polys),
        "rel_tol": rel_tol,
        "worst_rel_error": ctx.nstr(worst, 8),
        "failures": failures,
        "passed": not failures,
    }
