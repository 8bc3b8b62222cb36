"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is pinned here; the exact checks admit
no tolerance at all.
"""

import json
import time
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from f4solv.flags import (
    KNOWN_CHARACTERISTIC_VECTORS,
    ambiguity_search,
    is_triangular,
    preserves_flag,
    scan_characteristic_vectors,
)
from f4solv.models import (
    ModelParams,
    build_rational_operator,
    build_rho_map,
    build_trig_operator,
    rational_a_table,
)
from f4solv.oracle import (
    calibrate_normalization,
    derive_missing_a66,
    oracle_sweep_rational,
    oracle_sweep_trig,
)
from f4solv.poly import MPoly
from f4solv.spectral import (
    attach_closed_form,
    closed_form_energy_rational,
    closed_form_energy_trig,
    degeneracy_count,
    eigenfunctions,
    fit_energy_affine,
    spectrum_from_matrix,
    weighted_level,
)

MINIMAL = (1, 2, 2, 3)

RATIONAL_SETS = [
    ModelParams(nu=F(1, 3), mu=F(1, 5), omega=F(1)),
    ModelParams(nu=F(2), mu=F(3), omega=F(2)),
    ModelParams(nu=F(5, 2), mu=F(1, 7), omega=F(1, 2)),
]
TRIG_SETS = [
    ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(1, 4)),
    ModelParams(nu=F(2), mu=F(3), beta2=F(1)),
    ModelParams(nu=F(5, 2), mu=F(1), beta2=F(4)),
]
COUPLING_PAIRS = [(F(1, 3), F(1, 5)), (F(2), F(3)), (F(5, 2), F(1, 7))]


@pytest.fixture(scope="module")
def rational_op():
    return build_rational_operator(RATIONAL_SETS[0])


@pytest.fixture(scope="module")
def trig_op():
    return build_trig_operator(TRIG_SETS[0])


def report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_criterion_1_flag_preservation(rational_op, trig_op):
    start = time.monotonic()
    rational = preserves_flag(rational_op, MINIMAL, 8)
    assert rational.preserved and rational.witness is None
    trig = preserves_flag(trig_op, MINIMAL, 6)
    assert trig.preserved and trig.witness is None
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(
        1,
        f"rational operator preserves the {MINIMAL} flag to level 8 and the "
        f"trigonometric operator to level 6, zero witnesses ({elapsed:.1f}s)",
    )


def test_criterion_2_rational_triangularity_and_spectrum():
    start = time.monotonic()
    fits = set()
    for params in RATIONAL_SETS:
        op = build_rational_operator(params)
        verdict = is_triangular(op, MINIMAL, 6)
        assert verdict.strict
        spectrum = spectrum_from_matrix(op, MINIMAL, 6)
        w = params.omega
        for line in spectrum.lines:
            assert line.eigenvalue == 2 * w * weighted_level(line.quantum_numbers)
        fit = fit_energy_affine(attach_closed_form(spectrum.lines, "rational", params))
        assert fit.exact
        assert fit.offset == closed_form_energy_rational((0, 0, 0, 0), params)
        fits.add(fit.scale)
    assert fits == {F(1)}
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(
        2,
        "strict triangularity at level 6 with diagonal 2*omega*(p1+3p3+4p4+6p6), "
        f"matching the closed form at affine scale 1 for {len(RATIONAL_SETS)} "
        f"parameter sets ({elapsed:.1f}s)",
    )


def test_criterion_3_coupling_independence():
    gap_tables = set()
    for nu, mu in COUPLING_PAIRS:
        op = build_rational_operator(ModelParams(nu=nu, mu=mu, omega=F(1)))
        spectrum = spectrum_from_matrix(op, MINIMAL, 6)
        zero = next(
            l.eigenvalue for l in spectrum.lines if l.quantum_numbers == (0, 0, 0, 0)
        )
        gap_tables.add(
            tuple(sorted((l.quantum_numbers, l.eigenvalue - zero) for l in spectrum.lines))
        )
    assert len(gap_tables) == 1
    report(
        3,
        "eigenvalue gaps at every level <= 6 are identical across the three "
        "coupling pairs, exactly",
    )


def test_criterion_4_trig_triangularization():
    start = time.monotonic()
    witness = None
    for params in TRIG_SETS:
        op = build_trig_operator(params)
        tau_verdict = is_triangular(op, MINIMAL, 4)
        assert not tau_verdict.strict and tau_verdict.violation is not None
        witness = witness or tau_verdict.violation
        fwd, inv = build_rho_map(params.beta2)
        rho_op = op.change_variables(fwd, inv)
        rho_verdict = is_triangular(rho_op, MINIMAL, 6)
        assert rho_verdict.strict
        spectrum = spectrum_from_matrix(rho_op, MINIMAL, 4)
        fit = fit_energy_affine(attach_closed_form(spectrum.lines, "trig", params))
        assert fit.exact
        assert fit.scale == F(-1, 2)
        assert fit.offset == closed_form_energy_trig((0, 0, 0, 0), params)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(
        4,
        "tau frame violates strict triangularity (witness: monomial "
        f"{witness['col_monomial']} feeds {witness['row_monomial']} with entry "
        f"{witness['value']}), while the rho frame is strictly triangular at "
        "level 6 with diagonal matching the closed form under one calibration "
        f"for {len(TRIG_SETS)} parameter sets ({elapsed:.1f}s)",
    )


def test_criterion_5_cartesian_oracle():
    start = time.monotonic()
    rational = oracle_sweep_rational(
        RATIONAL_SETS[0], n_points=20, n_polys=5, seed=0
    )
    assert rational["passed"] and rational["exact"]
    trig = oracle_sweep_trig(TRIG_SETS[0], n_points=20, n_polys=5, seed=0)
    assert trig["passed"] and trig["exact"]
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(
        5,
        "rational oracle agrees exactly at 20 points x 5 polynomials "
        f"(scale {rational['scale']}, drift sign {rational['drift_sign']}); "
        f"trig oracle agrees exactly too (scale {trig['scale']}), at points on the "
        f"rational unit circle; one calibration per model holds at every point ({elapsed:.1f}s)",
    )


def test_criterion_6_missing_coefficient_recovery():
    expected = MPoly("t", {(0, 1, 2, 0): -6, (1, 0, 1, 1): -3})
    assert rational_a_table()[(6, 6)] == expected
    for params in RATIONAL_SETS:
        assert derive_missing_a66(params) == expected
    # the completed operator stands up to the oracle on inputs that
    # reach the reconstructed entry, and to criteria 1 and 2
    heavy = [MPoly.monomial("t", (0, 0, 0, 2)), MPoly.monomial("t", (0, 1, 0, 2))]
    sweep = oracle_sweep_rational(
        RATIONAL_SETS[0], n_points=10, n_polys=2, seed=1, extra_polys=heavy
    )
    assert sweep["passed"]
    op = build_rational_operator(RATIONAL_SETS[0])
    assert preserves_flag(op, MINIMAL, 8).preserved
    assert is_triangular(op, MINIMAL, 6).strict
    report(
        6,
        "pullback reduction and trigonometric limit both reproduce the "
        "tabulated t6-diagonal coefficient (-6 t3 t4^2 - 3 t1 t4 t6) for three "
        "parameter sets; the completed operator passes flag, triangularity, "
        "and oracle checks including t6^2 inputs",
    )


def test_criterion_7_eigenfunctions(rational_op, trig_op):
    rational_report = eigenfunctions(rational_op, MINIMAL, 6)
    assert not rational_report.defective
    for line in rational_report.lines:
        residual = rational_op.apply(line.eigenfunction) - line.eigenvalue * line.eigenfunction
        assert residual.is_zero()

    fwd, inv = build_rho_map(TRIG_SETS[0].beta2)
    rho_op = trig_op.change_variables(fwd, inv)
    trig_report = eigenfunctions(rho_op, MINIMAL, 4)
    assert not trig_report.defective
    for line in trig_report.lines:
        residual = rho_op.apply(line.eigenfunction) - line.eigenvalue * line.eigenfunction
        assert residual.is_zero()

    spectrum = spectrum_from_matrix(rational_op, MINIMAL, 8)
    mult = Counter(line.eigenvalue for line in spectrum.lines)
    w = RATIONAL_SETS[0].omega
    brute = [
        sum(
            1
            for p in product(range(9), repeat=4)
            if p[0] + 3 * p[1] + 4 * p[2] + 6 * p[3] == level
        )
        for level in range(9)
    ]
    for level in range(9):
        assert mult[2 * w * level] == degeneracy_count(level) == brute[level]
    report(
        7,
        f"all {len(rational_report.lines)} rational eigenpairs (level 6) and "
        f"{len(trig_report.lines)} rho-frame eigenpairs (level 4) have "
        "identically zero residuals; multiplicities through level 8 match "
        f"brute-force degeneracies {brute}",
    )


def test_criterion_8_flag_scan(rational_op):
    start = time.monotonic()
    scan = scan_characteristic_vectors(rational_op, 6, 6)
    assert MINIMAL in scan.preserved
    smaller = [
        f
        for f in scan.preserved
        if f != MINIMAL and all(a <= b for a, b in zip(f, MINIMAL))
    ]
    assert smaller == []
    search = ambiguity_search(rational_op, bound=6, n=6)
    rerun = ambiguity_search(rational_op, bound=6, n=6)
    assert search == rerun  # deterministic
    elapsed = time.monotonic() - start
    assert elapsed < 300
    if search["not_found"]:
        outcome = f"no alternative found over the grid ({search['searched']} shears searched)"
    else:
        finding = search["found"][0]
        vectors = {tuple(v) for v in finding["vectors"]}
        assert vectors & (set(KNOWN_CHARACTERISTIC_VECTORS) - {MINIMAL})
        outcome = (
            f"redefinition {finding['parameters']} exhibits alternative flags "
            f"{sorted(vectors)}"
        )
    report(
        8,
        f"scan over components <= 6 preserves {MINIMAL} with no smaller vector; "
        f"{outcome} ({elapsed:.1f}s)",
    )


#: the ten small points of the beta -> 0 comparison, each certified to keep
#: the beta^2 deviation of every invariant far inside the tolerance
LIMIT_POINTS = [
    (F(1, 1024), F(-1, 384), F(1, 512), F(1, 768)),
    (F(1, 256), F(1, 384), F(3, 512), F(1, 768)),
    (F(-1, 1536), F(-1, 512), F(-1, 256), F(3, 512)),
    (F(-3, 1024), F(-1, 256), F(-3, 2048), F(1, 384)),
    (F(-3, 1024), F(1, 1024), F(1, 2048), F(-1, 128)),
    (F(1, 256), F(1, 512), F(-1, 128), F(-1, 1024)),
    (F(-3, 1024), F(-1, 512), F(1, 2048), F(-1, 256)),
    (F(-1, 512), F(-1, 256), F(-1, 768), F(1, 384)),
    (F(1, 2048), F(-1, 256), F(3, 512), F(1, 512)),
    (F(1, 1024), F(-3, 512), F(-1, 1536), F(-1, 512)),
]


def test_criterion_9_trigonometric_limit(capsys):
    import mpmath

    from f4solv.cli import main
    from f4solv.invariants import variables_rational, variables_trig

    start = time.monotonic()
    # the exact suite: both identities hold for every x and every coupling
    assert main(["verify", "--suite", "limit"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    # the public floating-point path: 200-bit invariants at beta = 1e-4
    ctx = mpmath.mp.clone()
    ctx.prec = 200
    beta = ctx.mpf("1e-4")
    tol = ctx.mpf("1e-10")
    worst = ctx.mpf(0)
    for x in LIMIT_POINTS:
        xs = [ctx.mpf(v.numerator) / v.denominator for v in x]
        tau = variables_trig(xs, beta)
        t = variables_rational(x)
        for exact, approx in zip(t, tau):
            ref = ctx.mpf(exact.numerator) / exact.denominator
            worst = max(worst, abs(approx - ref) / abs(ref))
    assert worst <= tol
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(
        9,
        "the beta^2 = 0 invariants and tables equal the rational ones exactly; "
        "periodic invariants at beta = 1e-4 match the harmonic invariants "
        f"within 1e-10 relative at 10 points (worst {ctx.nstr(worst, 4)}, "
        f"{elapsed:.2f}s)",
    )
