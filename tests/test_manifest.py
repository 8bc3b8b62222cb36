"""The behaviour manifest's checker (``tests/manifest/check.py``) catches a
one-character change to a recorded digest and names the command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECK = Path(__file__).resolve().parent / "manifest" / "check.py"
ARGV = ["spectrum", "--model", "rational", "--level", "0"]


def check(tmp_path, entry) -> subprocess.CompletedProcess:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([entry]))
    return subprocess.run([sys.executable, str(CHECK), "--manifest", str(path)],
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def entry():
    manifest = json.loads((CHECK.parent / "manifest.json").read_text())
    return next(e for e in manifest if e["argv"] == ARGV)


def test_the_recorded_entry_matches(tmp_path, entry):
    proc = check(tmp_path, entry)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.endswith("1/1 entries match\n")


def test_a_digest_off_by_one_character_fails_and_names_the_argv(tmp_path, entry):
    digest = entry["stdout"]
    wrong = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    proc = check(tmp_path, {**entry, "stdout": wrong})
    assert proc.returncode != 0
    assert f"MISMATCH (stdout): {json.dumps(ARGV)}" in proc.stdout
