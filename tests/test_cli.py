import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from f4solv import cli, invariants, models, oracle, spectral, verify
from f4solv.cli import main
from f4solv.models import ModelParams, build_trig_operator, rational_a_table
from f4solv.poly import MPoly
from f4solv.serialize import (
    eigenfunctions_json,
    format_fraction,
    mpoly_from_json,
    mpoly_to_json,
    parse_fraction,
    spectral_line_json,
)
from tests.conftest import MINIMAL, RATIONAL_SETS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    def test_fraction_round_trip(self):
        assert format_fraction(F(-3, 4)) == "-3/4"
        assert format_fraction(F(5)) == "5"
        assert parse_fraction("-3/4") == F(-3, 4)
        assert parse_fraction("7") == F(7)

    def test_mpoly_round_trip(self):
        p = MPoly("tau", {(1, 0, 2, 0): F(-3, 7), (0, 0, 0, 0): F(2)})
        assert mpoly_from_json(mpoly_to_json(p)) == p


class TestSpectrumCommand:
    def test_rational_level_one_table(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "rational", "--level", "1"
        )
        assert code == 0
        assert "exact" in out
        assert " 1  0  0  0" in out

    def test_trig_level_zero_json(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4",
            "--level", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        (line,) = payload["lines"]
        # 4 b2 (7 nu^2 + 14 mu^2 + 18 nu mu) at nu=1/3, mu=1/8, b2=1/4
        expected = 4 * F(1, 4) * (7 * F(1, 9) + 14 * F(1, 64) + 18 * F(1, 24))
        assert parse_fraction(line["closed_form_energy"]) == expected
        assert payload["calibration_offset"] == format_fraction(expected)

    def test_trig_native_frame_block_comparison(self, capsys):
        # unlabeled block eigenvalues still match the closed form as multisets
        code, out, _ = run(
            capsys,
            "spectrum",
            "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4",
            "--frame", "native", "--level", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement"] is True
        assert payload["strict_triangular"] is False
        assert payload["calibration_scale"] == "-1/2"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--level", "2", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("p1,p3,p4,p6,level,eigenvalue,closed_form_energy")

    def test_byte_identical_reruns(self, capsys):
        args = ("spectrum", "--level", "3", "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run(
            capsys, "spectrum", "--level", "1", "--format", "csv", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("p1,p3,p4,p6")


class TestEigenfunctionsCommand:
    def test_level_zero(self, capsys):
        code, out, _ = run(capsys, "eigenfunctions", "--level", "0")
        assert code == 0
        payload = json.loads(out)
        (pair,) = payload["eigenpairs"]
        assert pair["eigenvalue"] == "0"
        assert pair["residual_zero"] is True

    def test_trig_rho_residuals(self, capsys):
        code, out, _ = run(
            capsys,
            "eigenfunctions",
            "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4",
            "--frame", "rho", "--level", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["defective_blocks"] == []
        assert all(p["residual_zero"] for p in payload["eigenpairs"])

    # the block path in the t frame: the basis order is not the term order
    BLOCK = ("eigenfunctions", "--model", "rational", "--charvec", "2,3,4", "--level", "6")

    def test_out_file_holds_the_bytes_stdout_would(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.BLOCK)
        target = tmp_path / "eigen.json"
        assert run(capsys, *self.BLOCK, "--out", str(target)) == (code, "", "")
        assert code == 0 and target.read_bytes() == out.encode()

    def test_a_failing_residual_writes_nothing(self, capsys, tmp_path, monkeypatch):
        from f4solv import spectral

        def wrong(mat, lam, multiplicity):
            return [[F(1)] * mat.rows], None  # not an eigenvector

        monkeypatch.setattr(spectral, "_eigenspace", wrong)
        code, out, err = run(capsys, *self.BLOCK)
        assert (code, out) == (3, "") and "nonzero residual" in err
        target = tmp_path / "eigen.json"
        code, out, err = run(capsys, *self.BLOCK, "--out", str(target))
        assert (code, out) == (3, "") and "nonzero residual" in err
        assert not target.exists()


class TestOneRoute:
    # the CLI reads every spectrum and eigenpair list through the public functions
    # that library callers and the bench's tracer call
    TRIG = ("--model", "trig", "--frame", "native", "--nu", "1/3", "--mu", "1/8")

    @pytest.mark.parametrize("command, level, want", [
        ("spectrum", 4, {"spectrum_from_matrix": 1}),
        ("eigenfunctions", 3, {"spectrum_from_matrix": 1, "eigenfunctions": 1}),
    ])
    def test_a_native_trig_command_calls_each_public_function_once(
        self, capsys, monkeypatch, command, level, want
    ):
        calls = []
        for name in want:
            def counted(op, f, n, name=name, original=getattr(spectral, name)):
                calls.append((name, op, tuple(f), n))
                return original(op, f, n)

            monkeypatch.setattr(spectral, name, counted)
        code, out, _ = run(capsys, command, *self.TRIG, "--beta2", "1/4", "--level", str(level))
        assert code == 0 and out
        assert Counter(name for name, *_ in calls) == want
        tau = build_trig_operator(ModelParams(F(1, 3), F(1, 8), beta2=F(1, 4)))
        assert all((op, f, n) == (tau, MINIMAL, level) for _, op, f, n in calls)

    @pytest.mark.parametrize("beta2", ["1/4", "-3/7"])
    def test_the_public_functions_print_what_the_cli_prints(self, capsys, beta2):
        params = ModelParams(F(1, 3), F(1, 8), beta2=parse_fraction(beta2))
        op = build_trig_operator(params)
        code, out, _ = run(capsys, "spectrum", *self.TRIG, f"--beta2={beta2}", "--level", "4",
                           "--format", "json")
        lines = spectral.compare_closed_form(spectral.spectrum_from_matrix(op, MINIMAL, 4),
                                             "trig", params)[0]
        assert code == 0
        assert json.loads(out)["lines"] == [spectral_line_json(l) for l in lines]
        code, out, _ = run(capsys, "eigenfunctions", *self.TRIG, f"--beta2={beta2}", "--level", "3")
        report = spectral.eigenfunctions(op, MINIMAL, 3)
        assert code == 0 and not report.defective
        assert out == "".join(eigenfunctions_json(report, "trig", 3, MINIMAL))


class TestVerifyCommand:
    def test_tau_frame_suite_passes_by_finding_violation(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "triangular",
            "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--frame", "native",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        assert payload["checks"][0]["violating_entry"] is not None

    def test_rho_frame_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "triangular",
            "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--frame", "rho",
        )
        assert code == 0
        assert json.loads(out)["passed"]

    def test_tau_frame_check_runs_at_level_4_whatever_the_level(self, capsys, monkeypatch):
        levels, real = [], verify.is_triangular

        def spy(op, f, n):
            levels.append((op.frame, n))
            return real(op, f, n)

        monkeypatch.setattr(verify, "is_triangular", spy)
        outs = set()
        for level in ("0", "4", "9"):
            code, out, _ = run(capsys, "verify", "--suite", "triangular", "--model", "trig",
                               "--level", level)
            outs.add((code, out))
        assert levels == [("tau", 4)] * 3 and len(outs) == 1
        run(capsys, "verify", "--suite", "triangular", "--model", "trig", "--frame", "rho",
            "--level", "7")
        assert levels[-1] == ("rho", 7)

    def test_scan_suite_reports_two_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "scan")
        report = json.loads(out)
        assert (code, report["passed"]) == (0, True)
        assert [c["name"] for c in report["checks"]] == [
            "canonical operator preserves the minimal flag",
            "no componentwise smaller vector is preserved",
        ]
        # what the search found and searched is its own record, not a check
        assert {"found", "searched", "not_found"} <= report["ambiguity_search"].keys()

    def test_flag_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "flag")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_limit_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "limit")
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert [c["name"] for c in report["checks"]] == [
            "periodic invariants at beta^2 = 0 are the harmonic invariants",
            "trig tables at beta^2 = 0, scaled, are the rational tables at omega = 0",
        ]
        # two exact identities: nothing in the report depends on the arguments
        for argv in (["--seed", "3"], ["--nu", "2", "--mu", "3"], ["--nu", "5/2", "--mu", "1/7"]):
            assert run(capsys, "verify", "--suite", "limit", *argv) == (0, out, "")

    def test_flag_suite_builds_the_rho_frame_operator(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "flag",
            "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--frame", "rho",
        )
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check["passed"]
        assert check["name"].startswith("sheared trig operator (rho frame) preserves")

    def test_oracle_suite_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--points", "5"
        )
        assert code == 0
        assert json.loads(out)["passed"]

    @pytest.mark.parametrize("params", RATIONAL_SETS, ids=["set0", "set1", "set2"])
    def test_a66_suite_rederives_the_tabulated_entry(self, capsys, params):
        code, out, _ = run(
            capsys, "verify", "--suite", "a66",
            "--nu", str(params.nu), "--mu", str(params.mu), "--omega", str(params.omega),
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        expected = MPoly("t", {(0, 1, 2, 0): -6, (1, 0, 1, 1): -3})
        assert mpoly_from_json(report["table_entry"]) == expected
        assert {c["name"]: c["passed"] for c in report["checks"]}[
            "both routes equal the tabulated entry"
        ]

    def test_a66_suite_fails_on_a_wrong_table_entry(self, capsys, monkeypatch):
        def wrong_table():
            table = rational_a_table()
            table[(6, 6)] = MPoly("t", {(0, 1, 2, 0): -6, (1, 0, 1, 1): -2})
            return table

        for module in (models, oracle, verify):
            monkeypatch.setattr(module, "rational_a_table", wrong_table)
        code, out, _ = run(capsys, "verify", "--suite", "a66")
        assert code == 2
        report = json.loads(out)
        assert report["passed"] is False
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["pullback route and trigonometric limit agree exactly"]
        assert not checks["both routes equal the tabulated entry"]


class TestLimitSuiteMutations:
    """Each identity of ``verify --suite limit`` fails a changed term that
    survives at beta^2 = 0."""

    def limit_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "limit")
        assert code == 2
        return [c["passed"] for c in json.loads(out)["checks"]]

    def test_b4_nu_coefficient(self, capsys, monkeypatch):
        real = models.trig_b_table

        def mutated(params):  # B4's beta-free part -4 - 12 nu read as -4 - 11 nu
            table = real(params)
            table[4] = table[4] + MPoly("tau", {(0, 1, 0, 0): params.nu})
            return table

        monkeypatch.setattr(verify, "trig_b_table", mutated)
        assert self.limit_report(capsys) == [True, False]

    def test_a66_beta_free_coefficient(self, capsys, monkeypatch):
        real = models.trig_a_table

        def mutated(beta2):  # -12 tau3 tau4^2 read as -11 tau3 tau4^2
            table = real(beta2)
            table[(6, 6)] = table[(6, 6)] + MPoly("tau", {(0, 1, 2, 0): 1})
            return table

        for module in (verify, oracle):
            monkeypatch.setattr(module, "trig_a_table", mutated)
        assert self.limit_report(capsys) == [True, False]

    def test_tau_from_sigma_beta_free_term(self, capsys, monkeypatch):
        real = invariants.tau_from_sigma

        def mutated(sig, beta2):  # tau4 gains a beta-free s2^2 / 1000
            tau = real(sig, beta2)
            return [*tau[:2], tau[2] + F(1, 1000) * sig[1] * sig[1], tau[3]]

        monkeypatch.setattr(invariants, "tau_from_sigma", mutated)
        invariants.tau_polys.cache_clear()
        try:
            assert self.limit_report(capsys) == [False, True]
        finally:
            invariants.tau_polys.cache_clear()


class TestUsageErrors:
    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 64

    def test_rho_frame_rejected_for_rational(self, capsys):
        code, _, err = run(capsys, "spectrum", "--model", "rational", "--frame", "rho")
        assert code == 64
        assert "rho" in err

    #: the trig operators a suite does not certify: oracle and limit build no
    #: rho-frame operator, a66 re-derives a rational entry and the scan's
    #: redefinition search is t-frame only
    UNCERTIFIED = {"oracle": ["rho"], "limit": ["rho"], "a66": ["native", "rho"],
                   "scan": ["native", "rho"]}

    @pytest.mark.parametrize("suite", ["flag", "triangular", "oracle", "limit", "a66", "scan"])
    def test_rho_frame_rejected_for_rational_by_every_suite(self, capsys, monkeypatch, suite):
        def no_work(*args):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, f"verify_{suite}", no_work)
        code, out, err = run(capsys, "verify", "--suite", suite, "--model", "rational",
                             "--frame", "rho")
        assert (code, out) == (64, "")
        assert "rho" in err
        # nor may a suite report on a trig operator other than the one requested
        for frame in self.UNCERTIFIED.get(suite, []):
            code, out, err = run(capsys, "verify", "--suite", suite, "--model", "trig",
                                 "--frame", frame, "--nu", "1/3", "--mu", "1/8")
            assert (code, out) == (64, "")
            assert err == (f"usage error: --suite {suite} certifies no trig operator"
                           f" in the {frame} frame\n")

    def test_a66_refuses_the_trig_model(self, capsys, monkeypatch):
        # the suite re-derives the rational A[6,6]; it used to print the rational
        # report for --model trig, reading the trig couplings with omega = 1
        def no_work(*args):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, "verify_a66", no_work)
        for argv in ([], ["--frame", "native"], ["--nu", "1/3", "--mu", "1/8", "--beta2", "1/4"]):
            code, out, err = run(capsys, "verify", "--suite", "a66", "--model", "trig", *argv)
            assert (code, out) == (64, "")
            assert err == "usage error: --suite a66 certifies no trig operator in the native frame\n"

    def test_suite_list_matches_the_verify_functions(self):
        # the command dispatches to verify.verify_<suite> by name
        functions = {name[len("verify_"):] for name in vars(verify) if name.startswith("verify_")}
        assert set(cli._SUITES) == functions
        assert all(callable(getattr(verify, f"verify_{suite}")) for suite in cli._SUITES)

    def test_bad_charvec(self, capsys):
        count = "--charvec expects three comma-separated integers a3,a4,a6"
        for charvec, message in [
            ("1,2", count),
            # every field counts as written: an empty one is not skipped
            ("2,,2,3", count),
            (",2,2,3", count),
            ("2,2,3,", count),
            ("2,2,,3,", count),
            ("2, ,3", count),
            ("a,2,3", "bad --charvec: invalid literal for int() with base 10: 'a'"),
            ("0,2,3", "characteristic vector must be (1, a3, a4, a6) >= 1: (1, 0, 2, 3)"),
        ]:
            for command in (["spectrum"], ["verify", "--suite", "flag"]):
                code, out, err = run(capsys, *command, "--charvec", charvec)
                assert (code, out, err) == (64, "", f"usage error: {message}\n")
        # spaces around a number leave its field non-empty
        spaced = run(capsys, "spectrum", "--level", "2", "--charvec", " 2, 2 ,3")
        assert spaced == run(capsys, "spectrum", "--level", "2", "--charvec", "2,2,3")
        assert spaced[0] == 0

    @pytest.mark.parametrize("suite", list(cli._SUITES))
    def test_every_suite_refuses_a_bad_level_or_charvec(self, capsys, monkeypatch, suite):
        def no_work(*args):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, f"verify_{suite}", no_work)
        for bad in (["--level", "-1"], ["--charvec", "x"], ["--level", "-9", "--charvec", "zz"]):
            refusal = run(capsys, "spectrum", *bad)
            assert refusal[:2] == (64, "")
            assert run(capsys, "verify", "--suite", suite, *bad) == refusal

    def test_bad_fraction(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--nu", "one-third")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--nu", "1/0"),
        ("spectrum", "--mu", "2/0"),
        ("spectrum", "--omega", "1/0"),
        ("verify", "--suite", "oracle", "--model", "trig", "--beta2", "3/0"),
    ], ids=["nu", "mu", "omega", "beta2"])
    def test_zero_denominator(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith("usage error:") and "zero denominator" in err

    def test_reported_before_any_operator_is_built(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("operator built before the usage check")

        monkeypatch.setattr(cli, "build_operator", forbidden)
        code, _, err = run(capsys, "spectrum", "--level", "-1")
        assert code == 64
        assert "--level" in err
        code, _, _ = run(capsys, "eigenfunctions", "--charvec", "1,2")
        assert code == 64


    @staticmethod
    def forbid_builds(monkeypatch):
        def forbidden(params):
            raise AssertionError("operator built before the usage check")

        for module in (models, oracle):  # build_operator and the oracle sweeps
            for name in ("build_rational_operator", "build_trig_operator"):
                monkeypatch.setattr(module, name, forbidden)

    @pytest.mark.parametrize("argv", [
        ("spectrum",), ("eigenfunctions",), ("dump-operator",),
        ("verify", "--suite", "flag"), ("verify", "--suite", "triangular"),
        ("verify", "--suite", "oracle"),
    ], ids=lambda argv: "-".join(argv))
    def test_rho_frame_at_beta2_zero_is_refused_before_any_build(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # it exited 3 from the singular shear, after the tau operator was built
        self.forbid_builds(monkeypatch)
        cfg = tmp_path / "params.json"
        cfg.write_text('{"model": "trig", "nu": "1/3", "mu": "1/8", "beta2": "0"}')
        message = "usage error: --frame rho needs beta2 != 0: the rho shear is singular there\n"
        for flags in (["--model", "trig", "--beta2", "0"], ["--params", str(cfg)]):
            assert run(capsys, *argv, "--frame", "rho", *flags) == (64, "", message)

    @pytest.mark.parametrize("argv", [
        ("spectrum",), ("eigenfunctions", "--model", "trig", "--frame", "rho", "--level", "12"),
        ("verify", "--suite", "oracle"), ("scan-flags",), ("dump-operator",),
    ], ids=lambda argv: argv[0])
    def test_out_into_a_missing_directory_is_refused_before_any_build(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # open() used to raise this only after all the work
        self.forbid_builds(monkeypatch)
        for path in (tmp_path / "missing" / "out.json", tmp_path / "a" / "b" / "out.json"):
            message = f"usage error: [Errno 2] No such file or directory: {str(path)!r}\n"
            assert run(capsys, *argv, "--out", str(path)) == (64, "", message)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def open_error(path) -> str:
        try:
            open(path, "w").close()
        except OSError as exc:
            return f"usage error: {exc}\n"
        raise AssertionError(f"{path} is writable")

    @pytest.mark.parametrize("argv", [
        ("spectrum",), ("eigenfunctions", "--model", "trig", "--frame", "rho", "--level", "12"),
        ("verify", "--suite", "oracle"), ("scan-flags",), ("dump-operator",),
    ], ids=lambda argv: argv[0])
    def test_out_naming_a_directory_is_refused_before_any_build(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # rho eigenfunctions at level 12 did its 0.8 s of work before open() raised
        self.forbid_builds(monkeypatch)
        (tmp_path / "file").write_text("kept")
        # a directory, a name that ends in a separator, a file in a directory's place
        for path in (str(tmp_path), f"{tmp_path}/new/", str(tmp_path / "file" / "out.json")):
            message = self.open_error(path)
            assert message.startswith(("usage error: [Errno 21]", "usage error: [Errno 20]"))
            assert run(capsys, *argv, "--out", path) == (64, "", message)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_out_into_an_unwritable_directory_is_refused_before_any_build(
        self, capsys, monkeypatch, tmp_path
    ):
        self.forbid_builds(monkeypatch)
        tmp_path.chmod(0o500)
        try:
            if os.access(tmp_path, os.W_OK):
                pytest.skip("this process may write to a read-only directory (root)")
            path = tmp_path / "out.json"
            message = self.open_error(path)
            assert message.startswith("usage error: [Errno 13]")
            assert run(capsys, "spectrum", "--out", str(path)) == (64, "", message)
        finally:
            tmp_path.chmod(0o700)

    #: every subcommand's options: the model, couplings and --out, and only
    #: those of the others that the subcommand reads
    COMMON = ["--model", "--nu", "--mu", "--omega", "--beta2", "--params", "--out"]
    OPTIONS = {
        "spectrum": COMMON + ["--level", "--charvec", "--format", "--frame"],
        "eigenfunctions": COMMON + ["--level", "--charvec", "--frame"],
        "verify": COMMON + ["--level", "--charvec", "--seed", "--frame", "--suite", "--points"],
        # --seed is read by no scan; the bench's certify workload passes it
        "scan-flags": COMMON + ["--level", "--seed", "--bound", "--ambiguity-search"],
        "dump-operator": COMMON + ["--frame"],
    }

    def test_each_subcommand_takes_only_the_options_it_reads(self):
        (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
        options = {
            name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 53

    @pytest.mark.parametrize("argv", [
        ("eigenfunctions", "--format", "json"),
        ("verify", "--suite", "flag", "--format", "json"),
        ("scan-flags", "--format", "json"),
        ("dump-operator", "--format", "json"),
        ("scan-flags", "--charvec", "2,2,3"),
        ("dump-operator", "--charvec", "2,2,3"),
        ("dump-operator", "--level", "4"),
        ("spectrum", "--seed", "0"),
        ("eigenfunctions", "--seed", "0"),
        ("dump-operator", "--seed", "0"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_an_option_the_subcommand_does_not_read_is_refused(self, capsys, monkeypatch, argv):
        self.forbid_builds(monkeypatch)
        message = f"usage error: unrecognized arguments: {argv[-2]} {argv[-1]}\n"
        assert run(capsys, *argv) == (64, "", message)


class TestLayering:
    def test_only_the_cli_imports_the_cli(self):
        # the library decides operators and flags itself: no module below the
        # CLI may reach up into it
        importers = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    module = (node.module or "").split(".")
                    names = {alias.name for alias in node.names}
                    if module[-1:] == ["cli"] or (module in ([""], ["f4solv"]) and "cli" in names):
                        importers.append(path.name)
                elif isinstance(node, ast.Import):
                    if any(alias.name == "f4solv.cli" for alias in node.names):
                        importers.append(path.name)
        assert set(importers) <= {"cli.py"}

    def test_the_cli_imports_no_private_name(self):
        private = [alias.name for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.name.startswith("_")]
        assert private == []

    def test_bad_input_has_one_exception_type(self):
        assert not hasattr(cli, "UsageError")
        with pytest.raises(ValueError, match="no-such-option"):
            cli.build_parser().parse_args(["spectrum", "--no-such-option"])

    def test_library_usage_error_exits_64_when_run_as_a_module(self):
        # run as __main__, the CLI module is not the f4solv.cli that a
        # library module would import, so an exception class of the CLI
        # raised below it escaped the handler as a traceback
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "f4solv.cli", "verify", "--suite", "flag", "--charvec", "1,2"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr == (
            "usage error: --charvec expects three comma-separated integers a3,a4,a6\n"
        )


class TestNegativeRationals:
    # argparse reads "-1/3" as an option; "-2" and "-1.5" it reads as numbers
    @pytest.mark.parametrize("flag", ["--nu", "--mu", "--omega", "--beta2"])
    def test_slash_negative_as_a_separate_argument(self, capsys, flag):
        model = "trig" if flag == "--beta2" else "rational"
        base = ("spectrum", "--model", model, "--level", "2")
        joined = run(capsys, *base, f"{flag}=-1/3")
        assert joined[0] in (0, 2) and joined[1]
        assert run(capsys, *base, flag, "-1/3") == joined

    @pytest.mark.parametrize("value", ["-1/0", "-1/x", "-/3"])
    def test_bad_slash_negative_is_a_usage_error(self, capsys, value):
        code, out, err = run(capsys, "spectrum", "--nu", value, "--level", "1")
        assert code == 64 and out == ""
        assert err.startswith("usage error:")


class TestLongOutput:
    # nu = 10^3000: eigenvalues of about 3000 digits, energies of about 6000
    HUGE = ("spectrum", "--model", "trig", "--frame", "native", "--nu", "1e3000",
            "--mu", "1/8", "--beta2", "1/4", "--level", "1")

    def test_result_longer_than_the_digit_limit_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *self.HUGE)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        _, fit, _, _, top = out.splitlines()  # "closed_form = s * eigenvalue + o  [exact]"
        cells = top.split("|")
        assert len(cells[3].strip()) > 4300
        sys.set_int_max_str_digits(0)  # parsing the printed values needs it too
        try:
            scale, offset = F(fit.split()[2]), F(fit.split()[6])
            eigen, closed = F(cells[2]), F(cells[3])
        finally:
            sys.set_int_max_str_digits(limit)
        assert closed == scale * eigen + offset

    # nu = 10^4400 or 10^5000 puts coefficients longer than the digit limit
    # into closure witnesses, and a trig mu of 2200 decimals next to 1/2 a
    # coupling of 4400 digits into the window warning; all print in full
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("scan-flags", "--nu", "1e4400", "--level", "4"), 0),
            (("verify", "--suite", "scan", "--nu", "1e5000"), 0),
            (("verify", "--suite", "flag", "--charvec", "1,1,1", "--nu", "1e5000"), 2),
            (("verify", "--suite", "triangular", "--model", "rational", "--charvec", "1,1,1",
              "--nu", "1e5000"), 2),
            (("spectrum", "--charvec", "1,1,1", "--nu", "1e5000", "--level", "2"), 3),
            (("dump-operator", "--model", "trig", "--mu", "0.5" + "0" * 2199 + "1"), 0),
        ],
        ids=["scan-flags", "verify-scan", "verify-flag", "verify-triangular", "spectrum",
             "window-warning"],
    )
    def test_witness_longer_than_the_digit_limit_prints(self, capsys, argv, code):
        limit = sys.get_int_max_str_digits()
        got, out, err = run(capsys, *argv)
        assert got == code
        assert sys.get_int_max_str_digits() == limit
        if argv[:3] == ("verify", "--suite", "scan"):  # the witnesses stay internal
            assert json.loads(out)["passed"] and err == ""
            return
        longest = max(re.findall(r"-?\d+(?:/\d+)?", out + err), key=len)
        assert len(longest) > 4300
        sys.set_int_max_str_digits(0)  # parsing the printed value needs it too
        try:
            value = F(longest)
        finally:
            sys.set_int_max_str_digits(limit)
        assert format_fraction(value) == longest  # a whole rational in lowest terms

    def test_argument_longer_than_the_digit_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--model", "trig", "--nu", "1" + "0" * 5000,
                             "--mu", "1/8", "--level", "1")
        assert code == 64 and out == ""
        assert err.startswith("usage error:") and "limit" in err


class TestStartup:
    def test_no_command_loads_mpmath(self):
        trig = "'--nu', '1/3', '--mu', '1/8', '--beta2', '1/4'"
        script = f"""
import contextlib, io, sys
import f4solv
assert "mpmath" not in sys.modules, "import f4solv"
from f4solv.cli import main
for argv in (
    ["spectrum", "--model", "rational", "--level", "4"],
    ["eigenfunctions", "--model", "trig", "--frame", "rho", {trig}, "--level", "3"],
    ["spectrum", "--model", "trig", "--frame", "native", {trig}, "--level", "3"],
    ["scan-flags", "--ambiguity-search", "--model", "rational", "--bound", "4"],
    ["scan-flags", "--model", "trig", {trig}, "--bound", "4"],
    ["dump-operator", "--model", "rational"],
    ["dump-operator", "--model", "trig", "--frame", "rho", {trig}],
    ["verify", "--suite", "flag", "--model", "rational"],
    ["verify", "--suite", "flag", "--model", "trig", {trig}],
    ["verify", "--suite", "triangular", "--model", "rational"],
    ["verify", "--suite", "triangular", "--model", "trig", {trig}],
    ["verify", "--suite", "oracle", "--model", "rational", "--points", "2"],
    # the periodic oracle is exact, at either sign of beta^2
    ["verify", "--suite", "oracle", "--model", "trig", {trig}, "--points", "2"],
    ["verify", "--suite", "oracle", "--model", "trig", "--beta2=-1/4", "--points", "2"],
    ["verify", "--suite", "limit"],
    ["verify", "--suite", "a66"],
    ["verify", "--suite", "scan"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "mpmath" not in sys.modules, argv
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_import_budget(self):
        # fresh processes: the package import loads no module, no command
        # adds dataclasses, inspect or json (none here reads --params; a
        # site hook may preload modules, so only those added since start-up
        # count), the spectrum path loads neither invariants nor the oracle
        # side, and the suites that compare no oracle values load no module
        # of the oracle side
        script = """
import contextlib, io, sys
before = set(sys.modules)
import f4solv
assert not {"f4solv.flags", "f4solv.spectral", "f4solv.oracle", "mpmath"} & set(sys.modules)
from f4solv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[2:]) == 0
loaded = set(sys.argv[1].split()) & (set(sys.modules) - before)
assert not loaded, loaded
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        trig = ["--model", "trig", "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4"]
        startup = "dataclasses inspect json json.decoder json.scanner"
        oracle_side = f"{startup} f4solv.oracle f4solv.gauge f4solv.sampling mpmath"
        spectral_side = f"{oracle_side} f4solv.invariants"
        runs = [(f"{spectral_side} f4solv.verify", [command, *argv, "--level", "3"])
                for command in ("spectrum", "eigenfunctions")
                for argv in (["--model", "rational"], [*trig, "--frame", "rho"],
                             [*trig, "--frame", "native"])]
        runs += [(spectral_side, ["verify", "--suite", suite, *argv]) for suite, argv in (
            ("flag", ["--model", "rational"]), ("flag", [*trig, "--frame", "rho"]),
            ("triangular", trig), ("scan", ["--model", "rational"]))]
        runs += [(spectral_side, ["scan-flags", *argv, "--bound", "4"])
                 for argv in (["--model", "rational", "--ambiguity-search"], trig)]
        runs += [(oracle_side, ["dump-operator", *argv])
                 for argv in (["--model", "rational"], [*trig, "--frame", "rho"])]
        runs += [(f"{startup} mpmath", ["verify", "--suite", suite, *argv]) for suite, argv in (
            ("oracle", ["--model", "rational", "--points", "2"]),
            ("oracle", [*trig, "--points", "2"]), ("limit", []), ("a66", []))]
        for forbidden, argv in runs:
            proc = subprocess.run([sys.executable, "-c", script, forbidden, *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, (argv, proc.stderr)


class TestWarnings:
    TRIG_MU_FIFTH = ("spectrum", "--model", "trig", "--mu", "1/5", "--level", "2", "--format", "json")

    def test_window_warning_is_one_line(self, capsys, monkeypatch):
        code, out, err = run(capsys, *self.TRIG_MU_FIFTH)
        assert code == 0
        assert err == (
            "f4solv: warning: trig coupling g1 = -4/25 outside the physical window"
            " g1 > -1/8\n"
        )
        monkeypatch.setattr(models, "_warn_windows", lambda model, params: None)
        quiet = run(capsys, *self.TRIG_MU_FIFTH)
        assert quiet == (code, out, "")  # warnings never reach stdout

    @pytest.mark.parametrize("model, flag, value, text", [
        ("rational", "--nu", "1/2",
         "rational coupling g = -1/4 outside the physical window g > -1/4"),
        ("rational", "--mu", "1/2",
         "rational coupling g1 = -1/8 outside the physical window g1 > -1/8"),
        ("trig", "--mu", "1/2", "trig coupling g1 = -1/4 outside the physical window g1 > -1/8"),
    ])
    def test_window_warning_text(self, capsys, model, flag, value, text):
        code, _, err = run(capsys, "spectrum", "--model", model, flag, value, "--level", "2")
        assert code == 0 and err == f"f4solv: warning: {text}\n"

    def test_trig_g_window_warning_text(self):
        # trig g = nu (nu - 1) / 2 >= -1/8 for every real nu, so only stub couplings reach it
        class Couplings:
            def couplings(self, model):
                return F(-1, 2), F(-1, 4)

        with pytest.warns(RuntimeWarning) as record:
            models._warn_windows("trig", Couplings())
        assert [str(w.message) for w in record] == [
            "trig coupling g = -1/2 outside the physical window g > -1/4",
            "trig coupling g1 = -1/4 outside the physical window g1 > -1/8",
        ]

    def test_window_warning_names_the_builders_caller(self):
        with pytest.warns(RuntimeWarning) as record:
            models.build_rational_operator(models.ModelParams(F(1, 2), F(1, 5), omega=F(1)))
        assert [w.filename for w in record] == [__file__]

    def test_trig_oracle_warns_once(self, capsys):
        # the calibration builds its own operator and must not warn again
        code, out, err = run(
            capsys, "verify", "--suite", "oracle", "--model", "trig", "--mu", "1/5", "--points", "2"
        )
        assert code == 0 and json.loads(out)["passed"]
        assert err == (
            "f4solv: warning: trig coupling g1 = -4/25 outside the physical window"
            " g1 > -1/8\n"
        )


    @pytest.mark.parametrize("model, mu", [("rational", "1/5"), ("trig", "1/8")])
    def test_default_couplings_sit_inside_the_windows(self, capsys, model, mu):
        default = run(capsys, "spectrum", "--model", model, "--level", "2")
        assert default[0] == 0 and default[2] == ""
        assert run(capsys, "spectrum", "--model", model, "--mu", mu, "--level", "2") == default


class TestParamsFile:
    def test_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(
            json.dumps({"model": "rational", "nu": "2", "mu": "3", "omega": "2"})
        )
        code, out, _ = run(
            capsys, "spectrum", "--params", str(cfg), "--level", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        # offset = 2 (2 + 12*3 + 12*2) * 2 = 248
        assert payload["calibration_offset"] == "248"


class TestDumpOperator:
    def test_rational_tables(self, capsys):
        code, out, _ = run(capsys, "dump-operator")
        assert code == 0
        payload = json.loads(out)
        assert payload["frame"] == "t"
        pairs = {(rec["a"], rec["b"]) for rec in payload["A"]}
        assert (6, 6) in pairs  # the entry missing from the printed table
        a11 = next(r for r in payload["A"] if (r["a"], r["b"]) == (1, 1))
        assert a11["poly"]["terms"] == [{"coeff": "2", "exponents": [1, 0, 0, 0]}]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "content",
        [
            '[1, 2]', '"nu"', '{"nu": "1/3"}', '{"mu": "1/5", "omega": "1"}',
            '{"nu": 1, "mu": "1/5"}', '{"model": "foo", "nu": "1/3", "mu": "1/8"}',
            '{"nu": "1/0", "mu": "1/5"}',
        ],
        ids=["list", "string", "no-mu", "no-nu", "number", "unknown-model", "zero-denominator"],
    )
    def test_params_file_is_a_usage_error(self, capsys, tmp_path, content):
        cfg = tmp_path / "params.json"
        cfg.write_text(content)
        code, out, err = run(capsys, "spectrum", "--params", str(cfg), "--level", "0")
        assert code == 64 and out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("model", ["rational", "trig"])
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_oracle_without_points_is_rejected_before_any_build(
        self, capsys, monkeypatch, model, points
    ):
        def forbidden(params):
            raise AssertionError("operator built before the usage check")

        for name in ("build_rational_operator", "build_trig_operator"):
            monkeypatch.setattr(oracle, name, forbidden)
        code, out, err = run(
            capsys, "verify", "--suite", "oracle", "--model", model,
            "--nu", "1/3", "--mu", "1/8", "--points", points,
        )
        assert code == 64 and out == ""
        assert "at least one point" in err

    def test_trig_redefinition_search_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "scan-flags", "--model", "trig", "--ambiguity-search",
            "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4",
        )
        assert code == 64 and out == ""
        assert "t frame" in err

    def test_periodic_oracle_at_beta2_zero(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "oracle", "--model", "trig",
            "--nu", "1/3", "--mu", "1/8", "--beta2", "0", "--points", "2",
        )
        assert code == 64 and out == ""
        assert "beta2" in err
        # the harmonic limit of the table stays available to the a66 route
        assert models.trig_a_table(F(0))[(6, 6)]
