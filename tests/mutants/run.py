"""Mutation table: each mutant is one exact edit to ``src/`` that a named test must catch.

Usage, from anywhere::

    python tests/mutants/run.py              # run every mutant
    python tests/mutants/run.py NAME ...     # run the named mutants only

For each entry of ``MUTANTS`` the runner copies ``src/`` to a temporary
directory, replaces the entry's fragment in its file (the fragment must
occur there exactly once) and runs the entry's pytest target from the
repository root with ``PYTHONPATH`` at the copy.  A mutant is killed when
its target fails (pytest exit 1).  First, every target must pass on an
unmutated copy, so a kill is the edit's doing.  Any other outcome, a
fragment that does not occur exactly once included, is a runner error
(exit 2).  The last line printed is ``mutants killed k/n``; the exit code
is 0 when every mutant is killed and 1 otherwise.  Two mutants run at a
time, each as one pytest process.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[2]
JOBS = 2  # pytest processes at once


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/f4solv
    fragment: str
    replacement: str
    target: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    # the oracle's certificates (DeMillo, Lipton and Sayward's "competent
    # programmer" edits: each changes one small thing)
    Mutant("a11-relative-1e-9", "models.py",
           "(1, 1): _t({(1, 0, 0, 0): 2}),",
           "(1, 1): _t({(1, 0, 0, 0): 2 * (1 + F(1, 10**9))}),",
           ("tests/test_oracle.py::TestCartesianOracle::test_rational_sweep_is_exact",)),
    Mutant("pole-root-dropped", "gauge.py",
           "zip(POSITIVE_ROOTS, poles)",
           "zip(POSITIVE_ROOTS[1:], poles[1:])",
           ("tests/test_oracle.py::TestCartesianOracle::test_rational_sweep_is_exact",)),
    Mutant("two-minus-delta-removed", "oracle.py",
           "m = [(2 - (c == d)) * sum(",
           "m = [sum(",
           ("tests/test_oracle.py::TestCartesianOracle::test_rational_sweep_is_exact",)),
    Mutant("drift-sign-dropped", "oracle.py",
           "gcs = {1: gc, -1: [w + 4 * self.omega * u for w, u in zip(gc, cart)]}",
           "gcs = {1: gc}",
           ("tests/test_oracle.py::TestCalibration::test_rational_lands_in_candidate_set",)),
    Mutant("n2-read-for-n1", "oracle.py",
           "pt.weights[sign][len(PAIRS)]",
           "pt.weights[sign][len(PAIRS) + 1]",
           ("tests/test_oracle.py::TestCalibration::test_trig_scale",)),
    Mutant("elem-sym-sum-prod", "invariants.py",
           "reduce(add, (reduce(mul, c) for c in combinations(vals, k)))",
           "sum(map(__import__('math').prod, combinations(vals, k)))",
           ("tests/test_models.py::TestInvariantMaps::test_elem_sym_floats_bit_for_bit",)),
    Mutant("calibration-on-seven-points", "oracle.py",
           "_calibrate(oracle, points[:8])",
           "_calibrate(oracle, points[:7])",
           ("tests/test_oracle.py::TestPreparedPoints::test_a_sweep_calibrates_on_its_first_eight_points",)),
    Mutant("sweep-draws-only-its-points", "oracle.py",
           "_draw(oracle, sampler, max(n_points, 8))",
           "_draw(oracle, sampler, n_points)",
           ("tests/test_oracle.py::TestPreparedPoints::test_a_sweep_prepares_each_point_once",)),
    Mutant("tau-triangular-passes-on-strict", "verify.py",
           "not verdict.strict,",
           "verdict.strict,",
           ("tests/test_cli.py::TestVerifyCommand::test_tau_frame_suite_passes_by_finding_violation",)),
    Mutant("tau-triangular-reads-the-level", "verify.py",
           "n = 4 if tau else max(args.level, 6)",
           "n = max(args.level, 6)",
           ("tests/test_cli.py::TestVerifyCommand::test_tau_frame_check_runs_at_level_4_whatever_the_level",)),
    Mutant("verify-skips-the-flag-request", "cli.py",
           "    parse_flag_request(args)  # every suite",
           "    # every suite",
           ("tests/test_cli.py::TestUsageErrors::test_every_suite_refuses_a_bad_level_or_charvec",)),
    Mutant("limit-ratio-doubled", "verify.py",
           "zero, ratio = Fraction(0), _rational_to_trig_ratio()",
           "zero, ratio = Fraction(0), 2 * _rational_to_trig_ratio()",
           ("tests/test_cli.py::TestVerifyCommand::test_limit_suite",)),
    # exact linear algebra
    Mutant("kernel-sign-fix-dropped", "linalg.py",
           "        if v[min(v)] < 0:  # coprime, positive first nonzero entry\n            g = -g\n",
           "",
           ("tests/test_linalg.py::test_nullspace_matches_gauss_jordan",)),
    Mutant("back-substitute-rescale-skipped", "linalg.py",
           "        if s > 1:\n",
           "        if False:\n",
           ("tests/test_linalg.py::test_nullspace_vectors_annihilate",)),
    Mutant("below-diagonal-takes-the-diagonal", "linalg.py",
           "for j in r if j < i)",
           "for j in r if j <= i)",
           ("tests/test_flags.py::TestTriangularity::test_rational_strictly_triangular",)),
    Mutant("upper-triangular-refuses-the-diagonal", "linalg.py",
           "for j in row if j < i)",
           "for j in row if j <= i)",
           ("tests/test_goldens.py::test_stdout_digest[spectrum --model rational --level 4]",)),
    Mutant("shift-shares-the-rows", "linalg.py",
           "[row.copy() for row in self._ints]",
           "list(self._ints)",
           ("tests/test_linalg.py::test_minus_scalar_identity_copies_rows",)),
    # flags and spectra
    Mutant("closure-refuses-its-own-grade", "flags.py",
           "if term_grade > g:",
           "if term_grade >= g:",
           ("tests/test_flags.py::TestPreservation::test_rational_preserves_minimal_flag_to_level_8",)),
    Mutant("eigenpair-residual-unchecked", "spectral.py",
           "if any(residual.values()):",
           "if False:",
           ("tests/test_spectral.py::TestResidualCertificate::test_residual_does_not_read_the_image_memo",)),
    Mutant("cyclic-block-kept", "spectral.py",
           "    if len(left) < len(ints):\n",
           "    if None:\n",
           ("tests/test_spectral.py::TestSpectrum::test_a_cyclic_block_raises_naming_its_grade",)),
    Mutant("acyclicity-misses-an-edge", "spectral.py",
           "entering[j] += j != i",
           "entering[j] += j > i",
           ("tests/test_spectral.py::test_a_planted_two_cycle_raises_naming_its_grade",)),
    Mutant("shear-used-off-its-flag", "spectral.py",
           "weighted_grade(e, f) <= w",
           "weighted_grade(e, f) <= w + 1",
           ("tests/test_spectral.py::TestSpectrum::test_a_shear_that_leaves_the_flag_is_not_used",)),
    Mutant("native-spectrum-off-the-tau-diagonal", "spectral.py",
           "sorted(_diagonal(*moved, hint))",
           "sorted(mat[j, j] for j in range(mat.rows))",
           ("tests/test_spectral.py::TestSpectrum::"
            "test_tau_spectrum_through_the_rho_shear_is_the_rho_diagonal",)),
    Mutant("tau-shear-at-the-wrong-beta2", "spectral.py",
           "coefficient((2, 0, 0, 0)) / -4",
           "coefficient((2, 0, 0, 0)) / -2",
           ("tests/test_goldens.py::test_stdout_digest[spectrum --model trig --frame native "
            "--nu 1/3 --mu 1/8 --beta2 1/4 --level 4]",)),
    Mutant("cli-eigenpairs-round-the-public-function", "cli.py",
           "    from .spectral import eigenfunctions\n",
           "    from .spectral import _eigenpairs, spectrum_from_matrix\n"
           "    eigenfunctions = lambda op, f, n: _eigenpairs(op, spectrum_from_matrix(op, f, n))\n",
           ("tests/test_cli.py::TestOneRoute::"
            "test_a_native_trig_command_calls_each_public_function_once",)),
    Mutant("affine-fit-checks-its-two-pairs", "spectral.py",
           "all(scale * g + offset == p for g, p in pairs)",
           "all(scale * g + offset == p for g, p in pairs[:1] + [other or pairs[0]])",
           ("tests/test_spectral.py::test_affine_fit_flags_mismatches",)),
    Mutant("multiset-match-one-orientation", "spectral.py",
           "return fit if fit.exact else _affine_fit(list(zip(got, ascending[::-1])))",
           "return fit",
           ("tests/test_spectral.py::test_multiset_match_handles_negative_scale",)),
    Mutant("defect-never-reported", "spectral.py",
           "if len(kernel) < multiplicity:",
           "if len(kernel) < 0:",
           ("tests/test_spectral.py::TestEigenfunctions::test_defective_eigenvalue_is_reported",)),
    Mutant("residual-at-the-unscaled-eigenvalue", "spectral.py",
           "scaled_lam = (lam * scale).numerator",
           "scaled_lam = lam.numerator",
           ("tests/test_spectral.py::TestResidualCertificate::"
            "test_triangular_frames_never_read_the_dense_view",)),
    Mutant("trig-energy-p1-coefficient", "spectral.py",
           "lin_nu = 5 * p1",
           "lin_nu = 4 * p1",
           ("tests/test_spectral.py::TestSpectrum::"
            "test_trig_rho_diagonal_matches_closed_form_affinely",)),
    # operator images and matrices
    Mutant("shift-table-mixed-entry-once", "operators.py",
           "((q, 1), (1 + i, -1)) if i == j else ((q, 2),)",
           "((q, 1), (1 + i, -1)) if i == j else ((q, 1),)",
           ("tests/test_operators.py::TestImage::test_image_is_the_sorted_apply",)),
    Mutant("apply-mixed-entry-once", "operators.py",
           "(coeff if i == j else coeff * 2)",
           "coeff",
           ("tests/test_operators.py::TestImage::test_image_is_the_sorted_apply",)),
    Mutant("matrix-over-denominator-one", "operators.py",
           "RatMatrix._sparse(len(index), op._shift_table()[0], rows)",
           "RatMatrix._sparse(len(index), 1, rows)",
           ("tests/test_operators.py::TestMatrix::test_level_one_matrix",)),
    Mutant("witness-prints-the-scaled-int", "flags.py",
           "                coeff = Fraction(coeff, op._shift_table()[0])  # image terms are ints over d\n",
           "",
           ("tests/test_flags.py::TestPreservation::test_witness_prints_the_image_coefficient",)),
    # the oracle's points and the a66 suite
    Mutant("hyperbolic-circle-as-trig", "invariants.py",
           "out.append((p * p + q * q, p * p - q * q, 2 * p * q))",
           "out.append((q * q - p * p, 2 * p * q, q * q + p * p))",
           ("tests/test_models.py::TestInvariantMaps::test_circle_points_are_cos_sin_or_cosh_sinh",)),
    Mutant("entry-check-dropped", "oracle.py",
           "    failures += _entry_mismatches(op, cal, points)\n",
           "",
           ("tests/test_oracle.py::TestEntryMutationsFailTheSuite",)),
    Mutant("a66-derived-at-scale-one", "verify.py",
           '_derive_a66(parse_fraction(sweep["scale"]))',
           "_derive_a66(Fraction(1))",
           ("tests/test_cli.py::TestVerifyCommand::test_a66_suite_rederives_the_tabulated_entry",)),
    # the eigenfunctions document
    Mutant("terms-in-basis-order", "serialize.py",
           "for k, c in sorted(zip(map(rank.__getitem__, psi.terms), psi.terms.values()))]",
           "for k, c in zip(map(rank.__getitem__, psi.terms), psi.terms.values())]",
           ("tests/test_serialize.py::test_terms_follow_the_canonical_order_not_the_basis_order",)),
    Mutant("exponent-slots-swapped", "serialize.py",
           "[*map(str, m)]",
           "[*map(str, (m[1], m[0], m[2], m[3]))]",
           ("tests/test_serialize.py::test_rho_and_tau_documents_match_the_per_term_payload",)),
)


class RunnerError(Exception):
    pass


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's fragment, which must occur exactly once, replaced."""
    count = text.count(mutant.fragment)
    if count != 1:
        raise RunnerError(f"{mutant.name}: the fragment occurs {count} times in {mutant.file}")
    return text.replace(mutant.fragment, mutant.replacement)


def run_targets(targets: tuple[str, ...], mutant: Optional[Mutant] = None) -> int:
    """Pytest's exit code for the targets against a copy of src/, mutated if given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant:
            path = src / "f4solv" / mutant.file
            path.write_text(mutate(path.read_text(), mutant))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    mutants = [m for m in MUTANTS if not args.names or m.name in args.names]

    try:
        for m in mutants:  # every fragment, before any run
            mutate((ROOT / "src" / "f4solv" / m.file).read_text(), m)
        targets = tuple(dict.fromkeys(t for m in mutants for t in m.target))
        code = run_targets(targets)
        if code != 0:
            raise RunnerError(f"the targets fail on the unmutated source (pytest exit {code})")
        with ThreadPoolExecutor(JOBS) as pool:
            codes = list(pool.map(lambda m: run_targets(m.target, m), mutants))
    except RunnerError as exc:
        print(f"runner error: {exc}", file=sys.stderr)
        return 2
    killed = 0
    for m, code in zip(mutants, codes):
        if code not in (0, 1):
            print(f"runner error: {m.name}: pytest exit {code}", file=sys.stderr)
            return 2
        killed += code == 1
        print(f"{'killed  ' if code else 'SURVIVED'} {m.name}")
    print(f"mutants killed {killed}/{len(mutants)}")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
