"""Named verification suites behind ``f4solv verify``.

Each suite checks the claims the library is built around and returns a
JSON-ready report with a top-level ``passed`` flag and per-check
witness data on failure.  A suite passes when the claims hold, which
for the tau-frame triangularity means passing on *finding* a violation.
Only the oracle, limit and a66 suites import ``oracle``, ``gauge``,
``sampling`` and ``invariants``.  Operators and flags come from ``models``
and ``flags``, not the CLI; bad input is a ``ValueError`` (CLI exit 64).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DerivationError
from .flags import (
    MINIMAL_CHARVEC,
    ambiguity_search,
    is_triangular,
    parse_charvec,
    preserves_flag,
    scan_characteristic_vectors,
)
from .models import (
    RATIONAL,
    ModelParams,
    build_operator,
    build_rational_operator,
    rational_a_table,
    rational_b_table,
    trig_a_table,
    trig_b_table,
)
from .operators import SecondOrderOp
from .poly import MPoly
from .serialize import mpoly_to_json, parse_fraction

#: each operator frame's name in a check
_OPERATOR = {"t": "rational operator", "tau": "trig operator (tau frame)",
             "rho": "sheared trig operator (rho frame)"}


def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), **details}


def _report(suite: str, checks: list[dict], **extra) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks, **extra}


def _flag_request(args, params: ModelParams) -> tuple:
    """The --charvec flag and the requested operator, in the requested frame."""
    return parse_charvec(args.charvec), build_operator(args.model, args.frame, params)


def verify_flag(args, params: ModelParams) -> dict:
    f, op = _flag_request(args, params)
    levels = max(args.level, 8 if args.model == RATIONAL else 6)
    verdict = preserves_flag(op, f, levels)
    check = _check(
        f"{_OPERATOR[op.frame]} preserves the {f} flag through level {levels}",
        verdict.preserved,
        witness=verdict.witness,
    )
    return _report("flag", [check], model=args.model)


def verify_triangular(args, params: ModelParams) -> dict:
    f, op = _flag_request(args, params)
    tau = op.frame == "tau"  # passes by finding the violation, at level 4 whatever --level
    n = 4 if tau else max(args.level, 6)
    verdict = is_triangular(op, f, n)
    if tau:
        check = _check("trig operator (tau frame) is NOT strictly triangular", not verdict.strict,
                       violating_entry=verdict.violation, block_triangular=verdict.preserved)
    else:
        check = _check(f"{_OPERATOR[op.frame]} is strictly triangular at level {n}",
                       verdict.strict, violation=verdict.violation)
    return _report("triangular", [check], model=args.model)


def verify_oracle(args, params: ModelParams) -> dict:
    from .oracle import oracle_sweep_rational, oracle_sweep_trig

    if args.model == RATIONAL:
        sweep = oracle_sweep_rational(params, n_points=args.points, seed=args.seed)
    else:
        sweep = oracle_sweep_trig(params, n_points=args.points, seed=args.seed)
    checks = [
        _check(
            f"{args.model} operator equals its gauge-identity oracle",
            sweep["passed"],
            failures=sweep["failures"],
        )
    ]
    return _report("oracle", checks, model=args.model, sweep=sweep)


def verify_limit(args, params: ModelParams) -> dict:
    """The beta^2 -> 0 limit as two exact identities, for every x and every
    coupling: the periodic invariants become the harmonic ones, and the trig
    tables, scaled, the rational tables at omega = 0.  No argument enters."""
    from .invariants import t_polys, tau_polys
    from .oracle import _limit_in_t, _rational_to_trig_ratio

    zero, ratio = Fraction(0), _rational_to_trig_ratio()
    limit_a, mismatches = _limit_in_t(trig_a_table(zero), ratio), []
    for nu, mu in ((0, 0), (1, 0), (0, 1)):  # B is affine in (nu, mu): these span all
        limit_b = _limit_in_t(trig_b_table(ModelParams(nu, mu, beta2=zero)), ratio)
        limit = SecondOrderOp("t", limit_a, limit_b)
        rational_b = rational_b_table(ModelParams(nu, mu, omega=zero))
        if limit != SecondOrderOp("t", rational_a_table(), rational_b):
            mismatches.append({"nu": nu, "mu": mu})
    checks = [
        _check(
            "periodic invariants at beta^2 = 0 are the harmonic invariants",
            tuple(MPoly("x2", p.terms) for p in tau_polys(zero)) == t_polys(),
        ),
        _check(
            "trig tables at beta^2 = 0, scaled, are the rational tables at omega = 0",
            not mismatches,
            mismatches=mismatches,
        ),
    ]
    return _report("limit", checks)


def verify_a66(args, params: ModelParams) -> dict:
    from .oracle import _derive_a66, oracle_sweep_rational

    rat_params = params.with_omega()
    table_entry = rational_a_table()[(6, 6)]
    # the completed operator must stand up to the oracle on inputs that
    # actually reach the tabulated (6,6) entry (second derivatives in t6);
    # the derivation runs at the scale this sweep calibrated
    heavy = [MPoly.monomial("t", e) for e in ((0, 0, 0, 2), (1, 0, 0, 2), (0, 1, 0, 2))]
    sweep = oracle_sweep_rational(
        rat_params, n_points=10, n_polys=2, seed=args.seed, extra_polys=heavy
    )
    agree = "pullback route and trigonometric limit agree exactly"
    try:
        derived = _derive_a66(parse_fraction(sweep["scale"]))
    except DerivationError as exc:
        checks = [_check(agree, False, error=str(exc))]
    else:
        checks = [
            _check(agree, True, coefficient=mpoly_to_json(derived)),
            _check("both routes equal the tabulated entry", derived == table_entry),
            _check(
                "completed operator passes the oracle on t6^2-dependent inputs",
                sweep["passed"],
                failures=sweep["failures"],
            ),
        ]
    return _report("a66", checks, table_entry=mpoly_to_json(table_entry))


def verify_scan(args, params: ModelParams) -> dict:
    op = build_rational_operator(params.with_omega())
    bound, n = 6, max(args.level, 6)
    scan = scan_characteristic_vectors(op, bound, n)
    checks = [
        _check(
            "canonical operator preserves the minimal flag",
            MINIMAL_CHARVEC in scan.preserved,
        ),
        _check(
            "no componentwise smaller vector is preserved",
            not [
                f
                for f in scan.preserved
                if f != MINIMAL_CHARVEC and all(a <= b for a, b in zip(f, MINIMAL_CHARVEC))
            ],
            preserved=[list(f) for f in scan.preserved],
        ),
    ]
    return _report("scan", checks, ambiguity_search=ambiguity_search(op, bound=bound, n=n))
