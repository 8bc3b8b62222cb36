"""The mutation table's runner (``tests/mutants/run.py``): every fragment of
the table is where the runner looks for it, a fragment that is not there
exactly once is a runner error, and a run reports the kill."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "mutants" / "run.py"
SRC = RUN.parents[2] / "src" / "f4solv"

spec = importlib.util.spec_from_file_location("mutants_run", RUN)
runner = importlib.util.module_from_spec(spec)
spec.loader.exec_module(runner)


@pytest.mark.parametrize("mutant", runner.MUTANTS, ids=lambda m: m.name)
def test_each_fragment_occurs_once_and_changes_its_file(mutant):
    text = (SRC / mutant.file).read_text()
    assert text.count(mutant.fragment) == 1
    assert runner.mutate(text, mutant) != text


def test_names_are_unique():
    names = [m.name for m in runner.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("text, count", [("nothing here", 0), ("x < 1; x < 1", 2)])
def test_a_fragment_not_there_exactly_once_is_a_runner_error(text, count):
    mutant = runner.Mutant("m", "spectral.py", "x < 1", "x <= 1", ())
    with pytest.raises(runner.RunnerError, match=f"occurs {count} times in spectral.py"):
        runner.mutate(text, mutant)


def test_a_run_reports_the_kill():
    proc = subprocess.run([sys.executable, str(RUN), "affine-fit-checks-its-two-pairs"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "mutants killed 1/1"
