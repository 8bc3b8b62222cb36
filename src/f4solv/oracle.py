"""Cartesian-coordinate cross-validation of the algebraic operators.

Applying the gauge identity directly in Cartesian coordinates gives an
independent way to evaluate what the algebraic operators compute:

    raw(P, x) = Lap(P o map)(x) + 2 grad(log Psi0) . grad(P o map)(x)

The printed coefficient tables are proportional to this up to an
affine normalization that the sources leave ambiguous, so the relation

    algebraic value = scale * raw + offset * P

is *calibrated*, never assumed: the scale must land in a small
candidate set at eight points, a sweep's first eight, and the sweep then
checks the relation at every one of its points.  For
the rational model the calibration also has to decide the orientation
of the Gaussian drift term (the tables correspond to a drift +omega x,
the sign-flipped companion of the normalizable ground state; fitting
with the decaying orientation fails for every candidate scale).

``PreparedOracle`` evaluates raw by the chain rule.  Along axis k the
Cartesian frame variable is s_k(x_k) (x_k^2, or sin^2(beta x_k)/beta^2)
and the invariants are y = map(s), so with a = (s')^2, b = s'', c = s',
G = grad log Psi0 and the map's 2-jet J_ck = d y_c / d s_k and
H_ck = d^2 y_c / d s_k^2,

    raw = sum_{c<=d} m_cd P_cd(y) + sum_c n_c P_c(y),
    m_cd = (2 - delta_cd) sum_k a_k J_ck J_dk,
    n_c = sum_k a_k H_ck + (b_k + 2 G_k c_k) J_ck.

That is exactly the derivative of P o map in s, from the map and the
gradient alone, with no polynomial composed into the Cartesian frame:
the jet is built once per oracle, m and n once per point and P's
derivatives once per polynomial, and every sum runs over int, reduced
once to a ``Fraction``.  Periodically G_k c_k = sum g alpha_k
cot(alpha . theta) sin 2 theta_k, so the factors of beta cancel, and
points are chosen where every cos and sin is rational: both models
compare exact rational values, and one calibration loop and one sweep
serve both, with no tolerance.  Calibration, ``cartesian_oracle`` and
the sweeps share one oracle; each sweep also checks every table entry
of its operator against the weights m and n at its points.

The one coefficient the printed rational table leaves out, the diagonal
t6 entry, is re-derived along two independent routes: the calibrated
pullback of t6, matched coefficient by coefficient in u = x^2, and the
beta^2 -> 0 limit of the periodic table.  ``models.rational_a_table``
tabulates that entry; the derivation checks it (``verify --suite a66``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import CalibrationError, DerivationError, ReductionError
from .flags import enumerate_basis
from .gauge import grad_log_ground_state_circle, grad_log_ground_state_rational
from .invariants import circle_points, t_polys, t_varmap, tau_varmap
from .linalg import RatMatrix, solve
from .models import (
    RATIONAL,
    TRIG,
    ModelParams,
    build_rational_operator,
    build_trig_operator,
    rational_a_table,
    rational_b_table,
    trig_a_table,
    trig_b_table,
)
from .operators import PAIRS, SecondOrderOp
from .poly import (DEGREE_WEIGHTS, MINIMAL_CHARVEC, VAR_IDS, EvalPlan, MPoly, PowerTable,
                   format_fraction)
from .sampling import SeededSampler

SCALE_CANDIDATES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                    Fraction(1, 2), Fraction(-1, 2))


class Calibration(NamedTuple):
    """Empirically determined relation between an operator and its oracle."""

    scale: Fraction
    offset: Fraction
    drift_sign: int  # +1: drift -omega x (decaying gauge); -1: drift +omega x


class OraclePoly(NamedTuple):
    """P, and its 10 second and 4 first derivatives in P's own frame (P_cd
    in ``PAIRS`` order, then P_c), as plans of ``denominator * P`` over int."""

    p: EvalPlan
    derivatives: list
    degree: int  # the top degree of P, at least that of each derivative


class OraclePoint(NamedTuple):
    """One point's invariants y and weights, computed once: per drift sign
    the m_cd (``PAIRS`` order), then the n_c, as ints over one denominator."""

    table: PowerTable  # the powers of y, where P and its image are evaluated
    weights: dict  # drift sign -> the 14 weight numerators
    denominator: int


class PreparedOracle:
    """The chain-rule gauge identity of one model, over int.

    Once: the s-derivatives J and H of the four map images (``t_varmap``
    or ``tau_varmap``), times the lcm L of their denominators.  ``point``
    evaluates the squares or unit-circle values, the gradient and the
    jet, and folds them into the weights m and n over int.  ``poly``
    differentiates P in its own frame; ``raw`` is one int sum of weights
    times derivatives at the point's invariant table, reduced once to a
    ``Fraction``.  Periodic points are given by their parameters, t_k or
    r_k (``invariants.circle_points``), so both models are exact.
    """

    def __init__(self, model: str, params: ModelParams):
        self.model, self.params = model, params
        if model == RATIONAL:
            self.omega = params.require_omega()
            varmap, self.beta2 = t_varmap(), None
        elif model == TRIG:
            self.beta2 = beta2 = params.require_beta2()
            if beta2 == 0:  # the harmonic limit has no period to sample
                raise ValueError("the periodic oracle needs beta2 != 0")
            varmap = tau_varmap(beta2)
        else:
            raise ValueError(f"unknown model {model!r}")
        self.images = [EvalPlan(f) for f in varmap.images]
        self.scale = lcm(*(plan.denominator for plan in self.images))
        first = [[(f * self.scale).derivative(k) for k in range(4)] for f in varmap.images]
        self.jets = [[(EvalPlan(f), EvalPlan(f.derivative(k))) for k, f in enumerate(row)]
                     for row in first]
        self.degree = max(len(j.by_degree) for row in self.jets for j, _ in row) - 1

    def poly(self, p: MPoly) -> OraclePoly:
        plan = EvalPlan(p)
        first = [(p * plan.denominator).derivative(c) for c in range(4)]
        derivatives = [first[c].derivative(d) for c, d in PAIRS] + first
        return OraclePoly(plan, [EvalPlan(f) for f in derivatives], len(plan.by_degree) - 1)

    def point(self, x: Sequence) -> OraclePoint:
        if self.model == RATIONAL:
            x = [Fraction(v) for v in x]
            cart = [v * v for v in x]
            gc = [2 * g * v for g, v in zip(grad_log_ground_state_rational(self.params, x), x)]
            # drift sign -1 flips the Gaussian term -omega x of the gradient
            gcs = {1: gc, -1: [w + 4 * self.omega * u for w, u in zip(gc, cart)]}
            a, b = [4 * u for u in cart], [2] * 4
        else:
            beta2, eps = self.beta2, (1 if self.beta2 > 0 else -1)
            cs = [(Fraction(a, d), Fraction(b, d)) for a, b, d in circle_points(x, beta2)]
            s2 = [2 * c * s for c, s in cs]  # sin 2 theta_k = |beta| s_k'
            grad = grad_log_ground_state_circle(self.params, x)  # G_k / |beta|
            cart, a = [s * s / abs(beta2) for _, s in cs], [v * v / abs(beta2) for v in s2]
            b = [2 * (c * c - eps * s * s) for c, s in cs]  # 2 cos 2 theta_k
            gcs = {1: [g * v for g, v in zip(grad, s2)]}
        drifts = {sign: [bk + 2 * v for bk, v in zip(b, gc)] for sign, gc in gcs.items()}
        cart_table = PowerTable(cart)  # s = S / D: J = jn / (L D^M), H = hn / (L D^M)
        jn = [[j.numerator(cart_table, self.degree) for j, _ in row] for row in self.jets]
        hn = [[h.numerator(cart_table, self.degree) for _, h in row] for row in self.jets]
        # a and the drift terms over A: every weight is over A (L D^M)^2
        den = lcm(*(v.denominator for v in chain(a, *drifts.values())))
        an = [v.numerator * (den // v.denominator) for v in a]
        jet_den = self.scale * cart_table.denominator**self.degree
        m = [(2 - (c == d)) * sum(ak * jc * jd for ak, jc, jd in zip(an, jn[c], jn[d]))
             for c, d in PAIRS]
        weights = {}
        for sign, e in drifts.items():
            en = [v.numerator * (den // v.denominator) for v in e]
            weights[sign] = m + [jet_den * sum(ak * h + ek * j for ak, h, ek, j
                                               in zip(an, hn[c], en, jn[c])) for c in range(4)]
        y = PowerTable(plan(cart_table) for plan in self.images)
        return OraclePoint(y, weights, den * jet_den**2)

    def raw(self, poly: OraclePoly, point: OraclePoint, drift_sign: int = 1) -> Fraction:
        """Lap(P o map) + 2 grad(log Psi0) . grad(P o map) at the point."""
        table, degree = point.table, poly.degree
        acc = sum(w * f.numerator(table, degree)
                  for w, f in zip(point.weights[drift_sign], poly.derivatives))
        return Fraction(acc, point.denominator * poly.p.denominator * table.denominator**degree)

    def value(self, poly: OraclePoly, point: OraclePoint, cal: Calibration) -> Fraction:
        raw = self.raw(poly, point, cal.drift_sign)
        return cal.scale * raw + cal.offset * poly.p(point.table)


def calibrate_normalization(model: str, params: ModelParams, seed: int = 0) -> Calibration:
    """Fit (scale, offset) on P = 1 and the first invariant at seeded points.

    The scale must land in {+-1, +-2, +-1/2} and hold exactly at eight
    points (for the rational model in either drift orientation).
    Otherwise the fit fails loudly.
    """
    oracle = PreparedOracle(model, params)
    return _calibrate(oracle, _draw(oracle, SeededSampler(seed), 8))


def _draw(oracle: PreparedOracle, sampler: SeededSampler, n: int) -> list:
    """n seeded points, each with its ``OraclePoint``, prepared once."""
    return [(x, oracle.point(x)) for x in (sampler.point(oracle.beta2) for _ in range(n))]


def _calibrate(oracle: PreparedOracle, points: Sequence[tuple]) -> Calibration:
    """``calibrate_normalization`` at eight (point, ``OraclePoint``) pairs: the
    images of 1 and t1, C and B_1 + C t1, against the weights."""
    model, params = oracle.model, oracle.params
    # built directly: the model builders would repeat their window warning
    if model == RATIONAL:
        op = SecondOrderOp("t", rational_a_table(), rational_b_table(params))
    else:
        op = SecondOrderOp("tau", trig_a_table(oracle.beta2), trig_b_table(params))
    points = [pt for _, pt in points]
    if not op.c.is_constant():  # the image of P = 1
        raise CalibrationError("operator image of 1 is not constant")
    offset = op.c.constant_value()
    # P = t1 has the one derivative P_1 = 1: its image is B_1 + C t1, raw is n_1 / D
    b1 = EvalPlan(op.b.get(VAR_IDS[0], MPoly.zero(op.frame)))
    alg = [b1(pt.table) for pt in points]
    raws = {sign: [Fraction(pt.weights[sign][len(PAIRS)], pt.denominator) for pt in points]
            for sign in points[0].weights}  # the model's drift orientations
    for drift_sign, raw in raws.items():
        for s in SCALE_CANDIDATES:
            if all(s * r == val for r, val in zip(raw, alg)):
                return Calibration(s, offset, drift_sign)
    diag = ", ".join(f"raw({d:+d})={format_fraction(raw[0])}" for d, raw in raws.items())
    image = alg[0] + offset * points[0].table.point[0]
    raise CalibrationError(
        f"no admissible scale matches the {model} operator; "
        f"first point diagnostics: alg={format_fraction(image)}, {diag}"
    )


def cartesian_oracle(
    model: str,
    params: ModelParams,
    p: MPoly,
    x: Sequence,
    calibration: Optional[Calibration] = None,
):
    """Evaluate the calibrated gauge identity on P at a point, exactly.

    For the rational model ``x`` is the rational point itself.  For the
    periodic model it holds the parameters of the point, not its
    coordinates: t_k = tan(beta x_k / 2) when beta2 > 0 and
    r_k = exp(|beta| x_k) > 0 when beta2 < 0, as ints or Fractions
    (``invariants.circle_points``); anything else raises ``ValueError``.
    """
    oracle = PreparedOracle(model, params)
    if calibration is None:
        calibration = _calibrate(oracle, _draw(oracle, SeededSampler(0), 8))
    return oracle.value(oracle.poly(p), oracle.point(x), calibration)


# -- expressing invariants in the t frame -------------------------------------


def invariant_reduce(target: MPoly) -> MPoly:
    """Express a polynomial in u = x^2 as a polynomial in t1, t3, t4, t6.

    The basic invariants are algebraically independent (Chevalley), so
    an invariant target has exactly one such expression.  Every
    t-monomial up to the target's degree is expanded in u, coefficients
    are matched on the non-increasing exponent vectors (one per orbit of
    the coordinate permutations), and the system is solved exactly.  The
    result stands only if it expands back to the target: that check
    proves the identity, and any other target (not symmetric, not
    invariant) raises ``ReductionError``.
    """
    degree = max(map(sum, target.terms), default=0)
    candidates = enumerate_basis(DEGREE_WEIGHTS, degree).monomials
    # each candidate's expansion is a lower one's times one image, grade by grade
    images, expanded = t_varmap().images, {}
    for exp in candidates:
        k = next((k for k, e in enumerate(exp) if e), None)
        lower = tuple(e - (j == k) for j, e in enumerate(exp))
        expanded[exp] = MPoly.one("x2") if k is None else expanded[lower] * images[k]
    expansions = list(expanded.values())
    rows = sorted(
        {e for p in (target, *expansions) for e in p.terms if list(e) == sorted(e, reverse=True)}
    )
    coeffs = solve(
        RatMatrix([[p.coefficient(e) for p in expansions] for e in rows]),
        [target.coefficient(e) for e in rows],
    )
    if coeffs is not None:
        result = MPoly("t", dict(zip(candidates, coeffs)))
        if result.substitute(t_varmap()) == target:
            return result
    raise ReductionError("no polynomial in the invariants expands to the target")


# -- the diagonal coefficient missing from the printed table --------------------


def derive_missing_a66(params: ModelParams, seed: int = 0) -> MPoly:
    """Reconstruct the rational-model (6,6) coefficient by two routes.

    Route one builds the calibrated pullback of the t6 direction against
    itself, scale * sum_k (d t6 / d x_k)^2 = scale * sum_k 4 u_k
    (d t6 / d u_k)^2, as a polynomial in u = x^2, and ``invariant_reduce``
    matches its coefficients exactly in the t frame.
    Route two takes the beta^2 -> 0 limit of the complete trigonometric
    table and rescales it by the (exact) table-to-table ratio.  The two
    results must be identical or the whole correctness story fails.
    Neither route reads the tabulated (6,6) entry, so the result can be
    checked against it.
    """
    return _derive_a66(calibrate_normalization(RATIONAL, params.with_omega(), seed).scale)


def _derive_a66(scale: Fraction) -> MPoly:
    """``derive_missing_a66`` at a calibrated scale."""
    t6 = t_polys()[3]
    target = scale * sum(4 * MPoly.variable("x2", k) * t6.derivative(k) ** 2 for k in range(4))
    route_reduce = invariant_reduce(target)

    route_limit = _limit_in_t(trig_a_table(Fraction(0)), _rational_to_trig_ratio())[(6, 6)]

    if route_reduce != route_limit:
        raise DerivationError(
            "the pullback route and the trigonometric limit disagree: "
            f"{route_reduce} vs {route_limit}"
        )
    return route_reduce


def _limit_in_t(table: dict, scale: Fraction = Fraction(1)) -> dict:
    """A beta^2 = 0 trig table (tau frame) read in the t frame, times scale:
    at beta^2 = 0 the periodic invariants are the harmonic ones."""
    return {key: MPoly("t", p.terms) * scale for key, p in table.items()}


def _rational_to_trig_ratio() -> Fraction:
    """The constant relating the rational table to the beta^2 = 0 trig table."""
    rat = rational_a_table()
    del rat[(6, 6)]  # the entry under test must not vouch for itself
    limit = _limit_in_t(trig_a_table(Fraction(0)))
    ratio = None
    for key, rpoly in sorted(rat.items()):
        lpoly = limit[key]
        exp = next(iter(rpoly.terms))
        r = rpoly.terms[exp] / lpoly.coefficient(exp)
        if ratio is None:
            ratio = r
        if lpoly * ratio != rpoly:
            raise DerivationError(
                f"tables are not proportional at entry {key}: "
                f"ratio {format_fraction(r)} vs {format_fraction(ratio)}"
            )
    return ratio


# -- oracle sweeps -------------------------------------------------------------


def _comparisons(
    oracle: PreparedOracle,
    op: SecondOrderOp,
    cal: Calibration,
    polys: Sequence[MPoly],
    points: Sequence[tuple],
) -> Iterator[tuple]:
    """(poly index, point, algebraic value, oracle value), polynomial by
    polynomial, at the (point, ``OraclePoint``) pairs."""
    for pi, p in enumerate(polys):
        image, prep = EvalPlan(op.apply(p)), oracle.poly(p)
        for x, pt in points:
            yield pi, x, image(pt.table), oracle.value(prep, pt, cal)
        del image, prep  # before the next polynomial's plans are built


#: the flag level of the swept polynomials; the entry check below covers
#: what they leave out
SWEEP_LEVEL = 4


def _entry_mismatches(op: SecondOrderOp, cal: Calibration, points: Sequence[tuple]) -> list:
    """The operator's table entries against the oracle's weights at each
    (point, ``OraclePoint``) pair: scale m_cd / denominator = (2 - delta_cd)
    A_cd(y), scale n_c / denominator = B_c(y) and offset = C(y).  This
    reaches every entry, also those no swept polynomial of a low flag level
    differentiates (A[3,6], A[4,6], A[6,6])."""
    names = [f"A[{VAR_IDS[c]},{VAR_IDS[d]}]" for c, d in PAIRS]
    names += [f"B[{v}]" for v in VAR_IDS] + ["C"]
    entries = [op.a_entry(VAR_IDS[c], VAR_IDS[d]) * (2 - (c == d)) for c, d in PAIRS]
    entries += [op.b.get(v, MPoly.zero(op.frame)) for v in VAR_IDS] + [op.c]
    plans, failures = [EvalPlan(p) for p in entries], []
    for x, pt in points:
        weights = [cal.scale * Fraction(w, pt.denominator) for w in pt.weights[cal.drift_sign]]
        for name, plan, weight in zip(names, plans, weights + [cal.offset]):
            if (value := plan(pt.table)) != weight:
                failures.append({"entry": name, "point": [format_fraction(v) for v in x],
                                 "algebraic": format_fraction(value),
                                 "oracle": format_fraction(weight)})
    return failures


def _sweep(
    model: str,
    params: ModelParams,
    n_points: int,
    n_polys: int,
    seed: int,
    extra_polys: Sequence[MPoly] = (),
) -> dict:
    """Both sweeps: random polynomials of the flag level at seeded points,
    compared exactly, then every table entry against the oracle's weights
    at the same points; returns a JSON-ready report.  The calibration fits
    at the first eight points, drawn past ``n_points`` if need be."""
    if n_points < 1:  # a sweep without points would pass vacuously
        raise ValueError(f"an oracle sweep needs at least one point, not {n_points}")
    op = build_rational_operator(params) if model == RATIONAL else build_trig_operator(params)
    oracle = PreparedOracle(model, params)
    basis = enumerate_basis(MINIMAL_CHARVEC, SWEEP_LEVEL)
    sampler = SeededSampler(seed)
    polys = [
        sampler.polynomial(op.frame, basis.monomials) for _ in range(n_polys)
    ] + list(extra_polys)
    points = _draw(oracle, sampler, max(n_points, 8))
    cal, points = _calibrate(oracle, points[:8]), points[:n_points]
    failures = []
    for pi, x, lhs, rhs in _comparisons(oracle, op, cal, polys, points):
        if lhs != rhs:
            failures.append(
                {
                    "poly_index": pi,
                    "point": [format_fraction(v) for v in x],
                    "algebraic": format_fraction(lhs),
                    "oracle": format_fraction(rhs),
                }
            )
    failures += _entry_mismatches(op, cal, points)
    return {
        "model": model,
        "scale": format_fraction(cal.scale),
        "offset": format_fraction(cal.offset),
        "drift_sign": cal.drift_sign,
        "points": n_points,
        "polynomials": len(polys),
        "exact": True,
        "failures": failures,
        "passed": not failures,
    }


def oracle_sweep_rational(
    params: ModelParams,
    n_points: int = 20,
    n_polys: int = 5,
    seed: int = 0,
    extra_polys: Sequence[MPoly] = (),
) -> dict:
    """Exact oracle-versus-operator comparison for the rational model, at
    rational points; ``passed`` is true only if every comparison is an
    exact equality."""
    return _sweep(RATIONAL, params, n_points, n_polys, seed, extra_polys)


def oracle_sweep_trig(
    params: ModelParams,
    n_points: int = 20,
    n_polys: int = 5,
    seed: int = 0,
) -> dict:
    """Exact oracle-versus-operator comparison for the periodic model, at
    points given by their unit-circle parameters
    (``invariants.circle_points``); ``passed`` is true only if every
    comparison is an exact equality."""
    return _sweep(TRIG, params, n_points, n_polys, seed)
