import json
from fractions import Fraction as F

import pytest

from f4solv import cli, models, oracle, verify
from f4solv.cli import main
from f4solv.models import rational_a_table
from f4solv.poly import MPoly
from f4solv.serialize import (
    format_fraction,
    mpoly_from_json,
    mpoly_to_json,
    parse_fraction,
)
from tests.conftest import RATIONAL_SETS


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
        args = ("spectrum", "--level", "3", "--format", "json", "--seed", "0")
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

    def test_flag_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "flag")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_limit_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "limit")
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert float(report["checks"][0]["worst_rel_deviation"]) <= 1e-10

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


class TestUsageErrors:
    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 64

    def test_rho_frame_rejected_for_rational(self, capsys):
        code, _, err = run(capsys, "spectrum", "--model", "rational", "--frame", "rho")
        assert code == 64
        assert "rho" in err

    def test_bad_charvec(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--charvec", "1,2")
        assert code == 64

    def test_bad_fraction(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--nu", "one-third")
        assert code == 64

    def test_reported_before_any_operator_is_built(self, capsys, monkeypatch):
        def forbidden(params):
            raise AssertionError("operator built before the usage check")

        monkeypatch.setattr(cli, "build_rational_operator", forbidden)
        code, _, err = run(capsys, "spectrum", "--level", "-1")
        assert code == 64
        assert "--level" in err
        code, _, _ = run(capsys, "eigenfunctions", "--charvec", "1,2")
        assert code == 64


class TestWarnings:
    TRIG_DEFAULT_MU = ("spectrum", "--model", "trig", "--level", "2", "--format", "json")

    def test_window_warning_is_one_line(self, capsys, monkeypatch):
        code, out, err = run(capsys, *self.TRIG_DEFAULT_MU)  # default --mu 1/5
        assert code == 0
        assert err == (
            "f4solv: warning: trig coupling g1 = -4/25 outside the physical window"
            " g1 > -1/8\n"
        )
        monkeypatch.setattr(models, "_warn_windows", lambda model, params: None)
        quiet = run(capsys, *self.TRIG_DEFAULT_MU)
        assert quiet == (code, out, "")  # warnings never reach stdout


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
        code, out, _ = run(capsys, "dump-operator", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["frame"] == "t"
        pairs = {(rec["a"], rec["b"]) for rec in payload["A"]}
        assert (6, 6) in pairs  # the entry missing from the printed table
        a11 = next(r for r in payload["A"] if (r["a"], r["b"]) == (1, 1))
        assert a11["poly"]["terms"] == [{"coeff": "2", "exponents": [1, 0, 0, 0]}]
