"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from proc import run_command  # noqa: E402
from run import HERE, ROOT, Runner, child_env  # noqa: E402
from tracer import outermost_totals, self_times  # noqa: E402
from workloads import Command, Workload, check_eigen, check_spectrum, flag_dimension  # noqa: E402

RHO4 = ("spectrum", "--model", "trig", "--frame", "rho", "--level", "4", "--format",
        "json", "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4")
EIGEN3 = ("eigenfunctions", "--model", "trig", "--frame", "rho", "--level", "3",
          "--nu", "1/3", "--mu", "1/8", "--beta2", "1/4")


def _traced(tmp_path, argv):
    spans = tmp_path / "spans.json"
    out = run_command(
        [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *argv],
        child_env(), str(ROOT), 60,
    )
    return out, json.loads(spans.read_text())


def test_traced_and_untraced_stdout_identical(tmp_path):
    plain = run_command([sys.executable, "-m", "f4solv.cli", *RHO4], child_env(), str(ROOT), 60)
    traced, _ = _traced(tmp_path, RHO4)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    assert check_spectrum(4, strict=True)(plain.stdout) == []


def test_self_times_bounded_and_sum_to_command_time(tmp_path):
    out, trace = _traced(tmp_path, EIGEN3)
    assert out.returncode == 0 and check_eigen(3)(out.stdout) == []
    spans = trace["spans"]
    names = {s[0] for s in spans}
    # spectral holds its own binding of nullspace; it must be traced too
    assert {"cli.main", "spectral.eigenfunctions", "linalg.nullspace"} <= names
    selfs = self_times(spans)
    for (name, start, end, parent), st in zip(spans, selfs):
        assert -1e-12 <= st <= end - start + 1e-12, name
    (root,) = [s for s in spans if s[3] == -1]
    assert root[0] == "cli.main"
    assert sum(selfs) == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-9)
    assert trace["hot"]["operators.apply"][0] > 0
    assert trace["counts"]["spectral.eigenpairs"] == flag_dimension(3)


def test_span_arithmetic_on_nested_names():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],  # recursive call: counted once in the total
        ["c", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert outermost_totals(spans) == {"a": 10.0, "b": 3.0, "c": 1.0}


def test_tiny_timeout_is_one_failure(tmp_path):
    cmd = Command(RHO4, check_spectrum(4, strict=True), ("trig:1/3,1/8,1/4",))
    runner = Runner(Workload("tiny", 0.01, (cmd,)), str(tmp_path))
    result = runner.run_pass(traced=False)
    (record,) = result["records"]
    assert record["timed_out"] and record["problems"] == ["timeout after 0.01 s"]
    assert result["wall_s"] == 0.01
    # the whole group is gone: signalling it finds nothing
    with pytest.raises(ProcessLookupError):
        os.killpg(result["outcomes"][0].pid, 0)


def test_benchmark_json_matches_the_metric_tables():
    from run import END_TO_END_UNITS, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in PER_LAYER.items()
    }
