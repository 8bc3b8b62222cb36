"""The demos as a user runs them: fresh processes, stdout pinned by sha256.

Demo 03 (the Cartesian oracle) is the slowest; it is pinned too, since
its own prints are covered by no ``verify --suite oracle`` golden.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    ("01_rational_model.py", "9742933666972a2830b7503ae77555dc7e37cd52b88a2b2687bed73cc8d9a49a"),
    ("02_trigonometric_model.py", "1af02c6711db4f2eae7ae1b6402534059ea83a9c7723c5e34f6fb3a0972ff961"),
    ("03_cartesian_oracle.py", "9301d7e5f9b49ed51ab40b46f881b061e5f9691ffb0af536147a307649a83d2b"),
    ("04_flag_scan.py", "f9b84da3aad8647e9734d66ad4071bcf6595c9778dc4435c5fd83e507e9fb810"),
]


@pytest.mark.parametrize("name,digest", DEMOS, ids=[n for n, _ in DEMOS])
def test_demo_runs_clean(name, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"outside the physical window" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
