"""Workload definitions: command lists, parameter pool and output checks.

Every command is a real CLI invocation, ``python -m f4solv.cli ...``.
Each passes explicit in-window couplings, so the out-of-window default
``--mu 1/5`` never enters a workload (it warns on every trig command and
makes the level-4 block spectrum about 70 times slower).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

#: in-window parameter sets, the same as tests/conftest.py: (nu, mu, omega)
RATIONAL_POOL = [("1/3", "1/5", "1"), ("2", "3", "2"), ("5/2", "1/7", "1/2")]
#: (nu, mu, beta2)
TRIG_POOL = [("1/3", "1/8", "1/4"), ("2", "3", "1"), ("5/2", "1", "4")]
#: the README parameters.  The block path's cost follows the size of the
#: characteristic polynomial's constant, which no parameter choice
#: controls, so native-frame commands always use these.
README_TRIG = ("1/3", "1/8", "1/4")

MINIMAL = (1, 2, 2, 3)


def flag_dimension(n: int) -> int:
    """dim P_n for (1,2,2,3): monomials with p1 + 2 p3 + 2 p4 + 3 p6 <= n.

    Counted here rather than imported, so the check does not trust the
    code it checks.
    """
    return sum(
        n - 3 * p6 - 2 * p4 - 2 * p3 + 1  # choices of p1
        for p6 in range(n // 3 + 1)
        for p4 in range((n - 3 * p6) // 2 + 1)
        for p3 in range((n - 3 * p6 - 2 * p4) // 2 + 1)
    )


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after ``python -m f4solv.cli``
    check: Callable[[bytes], list[str]]  # stdout -> list of problems
    operators: tuple[str, ...]  # operators the command builds, for setup_s

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    timeout_s: float  # well above the slowest passing command of the workload
    commands: tuple[Command, ...]

    def operators(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.commands:
            seen.update(dict.fromkeys(c.operators))
        return list(seen)


# -- output checks ------------------------------------------------------------------


def _json(stdout: bytes) -> tuple[Optional[dict], list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def check_spectrum(level: int, strict: bool):
    def check(stdout: bytes) -> list[str]:
        data, problems = _json(stdout)
        if data is None:
            return problems
        if data.get("agreement") is not True:
            problems.append("agreement is not true")
        if len(data.get("lines", ())) != flag_dimension(level):
            problems.append(
                f"{len(data.get('lines', ()))} lines, dim P_{level} = {flag_dimension(level)}"
            )
        if data.get("strict_triangular") is not strict:
            problems.append(f"strict_triangular is not {strict}")
        return problems

    return check


def check_eigen(level: int):
    def check(stdout: bytes) -> list[str]:
        data, problems = _json(stdout)
        if data is None:
            return problems
        if len(data.get("eigenpairs", ())) != flag_dimension(level):
            problems.append(
                f"{len(data.get('eigenpairs', ()))} eigenpairs, dim P_{level} = {flag_dimension(level)}"
            )
        if data.get("defective_blocks") != []:
            problems.append("defective_blocks is not empty")
        return problems

    return check


def check_passed(stdout: bytes) -> list[str]:
    data, problems = _json(stdout)
    if data is not None and data.get("passed") is not True:
        problems.append("report has passed != true")
    return problems


def check_scan(stdout: bytes) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    if list(MINIMAL) not in data.get("minimal", ()):
        problems.append("(1,2,2,3) is not in minimal")
    if not isinstance(data.get("ambiguity_search", {}).get("searched"), int):
        problems.append("ambiguity_search.searched missing")
    return problems


# -- building the command lists --------------------------------------------------------


def _rational(s: tuple[str, str, str]) -> tuple[list[str], str]:
    nu, mu, omega = s
    return ["--nu", nu, "--mu", mu, "--omega", omega], f"rational:{nu},{mu},{omega}"


def _trig(s: tuple[str, str, str]) -> tuple[list[str], str]:
    nu, mu, beta2 = s
    return ["--nu", nu, "--mu", mu, "--beta2", beta2], f"trig:{nu},{mu},{beta2}"


def _rho(s: tuple[str, str, str]) -> tuple[list[str], tuple[str, str]]:
    flags, trig = _trig(s)
    return flags, (trig, "rho:" + trig.split(":", 1)[1])


class _Builder:
    """Assigns parameter sets: command k takes pool entry k mod 3.

    Every workload runs the whole pool, and no seed changes which
    command meets which set: rho-frame eigenfunctions at level 8 take
    about 45% longer with (5/2, 1, 4) than with (2, 3, 1), so a seeded
    choice would put that swing into the spread between seeds.  The
    seed goes to the randomized flows.
    """

    def __init__(self):
        self.k = 0
        self.commands: list[Command] = []

    def _next(self, pool):
        s = pool[self.k % len(pool)]
        self.k += 1
        return s

    def add(self, argv, flags, operators, check) -> None:
        ops = (operators,) if isinstance(operators, str) else tuple(operators)
        self.commands.append(Command(tuple(argv) + tuple(flags), check, ops))

    def rational(self):
        return _rational(self._next(RATIONAL_POOL))

    def trig(self):
        return _trig(self._next(TRIG_POOL))

    def rho(self):
        return _rho(self._next(TRIG_POOL))


def spectra(seed: int) -> Workload:  # no randomized flow: the seed changes nothing
    """Flag check, matrix assembly and the block-path root search; no linalg."""
    b = _Builder()
    for level in (6, 12):
        flags, op = b.rational()
        b.add(["spectrum", "--format", "json", "--model", "rational", "--level", str(level)],
              flags, op, check_spectrum(level, strict=True))
    for level in (8, 12):
        flags, ops = b.rho()
        b.add(["spectrum", "--format", "json", "--model", "trig", "--frame", "rho", "--level", str(level)],
              flags, ops, check_spectrum(level, strict=True))
    flags, op = _trig(README_TRIG)
    # level 5 is the known block-path hang: it stays, and shows as a timeout
    for level in (4, 5):
        b.add(["spectrum", "--format", "json", "--model", "trig", "--frame", "native", "--level", str(level)],
              flags, op, check_spectrum(level, strict=False))
    return Workload("spectra", 10.0, tuple(b.commands))


def eigen(seed: int) -> Workload:  # no randomized flow: the seed changes nothing
    """Square exact nullspaces, residual re-checks and MB-sized JSON output."""
    b = _Builder()
    flags, op = b.rational()
    b.add(["eigenfunctions", "--model", "rational", "--level", "8"],
          flags, op, check_eigen(8))
    flags, ops = b.rho()
    b.add(["eigenfunctions", "--model", "trig", "--frame", "rho", "--level", "8"],
          flags, ops, check_eigen(8))
    return Workload("eigen", 40.0, tuple(b.commands))


def certify(seed: int) -> Workload:
    """Substitution and exact and mpmath evaluation, gauge and flag scan."""
    b = _Builder()
    s = ["--seed", str(seed)]
    flags, op = b.trig()
    b.add(["verify", "--suite", "oracle", "--model", "trig"] + s, flags, op, check_passed)
    # every rational process already derives A[6,6] (calibration, invariant
    # reduction, the tall solve); the a66 suite repeats that derivation
    # and would double the workload's time, so the rational oracle stands in
    flags, op = b.rational()
    b.add(["verify", "--suite", "oracle", "--model", "rational"] + s, flags, op, check_passed)
    flags, op = _trig(README_TRIG)
    b.add(["verify", "--suite", "triangular", "--model", "trig", "--frame", "native"],
          flags, op, check_passed)
    flags, op = b.rational()
    b.add(["scan-flags", "--ambiguity-search", "--model", "rational"] + s, flags, op, check_scan)
    return Workload("certify", 40.0, tuple(b.commands))


WORKLOADS = {"spectra": spectra, "eigen": eigen, "certify": certify}
