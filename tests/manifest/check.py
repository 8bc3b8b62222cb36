"""Behaviour manifest: CLI commands with the digests of what they print.

Usage, from anywhere::

    python tests/manifest/check.py                  # check every entry
    python tests/manifest/check.py --write          # re-record every entry
    python tests/manifest/check.py --manifest FILE  # another manifest

Each entry of ``manifest.json`` (next to this file) holds the argv after
``python -m f4solv.cli``, the sha256 of its stdout and of its stderr, and
its exit code.  Commands run as fresh processes, two at a time, with
``PYTHONPATH=src``, from the repository root, so relative ``--out`` paths
resolve there.  The check prints the argv of each entry that differs and
exits 1 if any does.  ``--write`` keeps each entry's argv and records its
digests and exit code from the current code; add a command by adding its
argv and writing.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = HERE / "manifest.json"
FIELDS = ("stdout", "stderr", "exit")
JOBS = 2  # commands run at once: each is one single-threaded process


def run(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "f4solv.cli", *argv], cwd=ROOT, env=env, capture_output=True
    )
    return {
        "argv": argv,
        "stdout": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        "exit": proc.returncode,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, default=MANIFEST)
    parser.add_argument("--write", action="store_true", help="re-record every entry")
    args = parser.parse_args(argv)

    entries = json.loads(args.manifest.read_text())
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(run, [e["argv"] for e in entries]))

    if args.write:
        args.manifest.write_text(
            "[\n" + ",\n".join(json.dumps(r) for r in results) + "\n]\n"
        )
        print(f"wrote {len(results)} entries to {args.manifest}")
        return 0
    mismatches = 0
    for want, got in zip(entries, results):
        differ = [f for f in FIELDS if want[f] != got[f]]
        if differ:
            mismatches += 1
            print(f"MISMATCH ({', '.join(differ)}): {json.dumps(want['argv'])}")
    print(f"{len(entries) - mismatches}/{len(entries)} entries match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
