"""Command-line interface.

Subcommands::

    f4solv spectrum        exact spectrum table with closed-form comparison
    f4solv eigenfunctions  exact eigenpairs with residual attestations
    f4solv verify          named verification suites, JSON report
    f4solv scan-flags      characteristic-vector scan and redefinition search
    f4solv dump-operator   operator coefficient tables as JSON

Exit codes: 0 success, 2 claim mismatch, 3 structural anomaly,
64 usage error: any ``ValueError`` or ``OSError``, raised here or below,
where ``models.build_operator`` and ``flags.parse_charvec`` build the
operators and flags.  All randomized flows take an explicit --seed
(default 0) and identical configurations produce byte-identical output.
The default couplings sit inside the physical windows of the chosen
model (--mu 1/5 rational, 1/8 trig).  Every command is exact: the
oracle sweeps compare rational values and the limit suite polynomials.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import re
import sys
import warnings
from typing import Optional, Sequence

from .errors import F4SolvError
from .models import MODELS, RATIONAL, TRIG, ModelParams, build_operator
from .serialize import (
    dumps,
    eigenfunctions_json,
    format_fraction,
    operator_to_json,
    parse_fraction,
    spectral_line_json,
    spectrum_csv,
)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_ANOMALY = 3
EXIT_USAGE = 64
_RATIONAL_FLAGS = ("--nu", "--mu", "--omega", "--beta2")  # "--nu -1/3" means "--nu=-1/3"
_DEFAULT_MU = {RATIONAL: "1/5", TRIG: "1/8"}  # inside each model's window g1 > -1/8
#: each verify suite with the (model, frame) operators it certifies: oracle and limit
#: build no rho-frame operator, a66 re-derives a rational entry and the scan's
#: redefinition search works in t only
_ANY = ((RATIONAL, "native"), (TRIG, "native"), (TRIG, "rho"))
_SUITES = {"flag": _ANY, "triangular": _ANY, "oracle": _ANY[:2], "limit": _ANY[:2],
           "a66": _ANY[:1], "scan": _ANY[:1]}

#: the options only some subcommands read, with their argparse keywords
_READ_BY_SOME = {
    "--level": {"type": int, "default": 4, "help": "flag level n"},
    "--charvec": {"default": "2,2,3", "help": "a3,a4,a6 of the characteristic vector"},
    "--seed": {"type": int, "default": 0},
    "--format": {"choices": ["table", "json", "csv"], "default": "table"},
    "--frame": {"choices": ["native", "rho"], "default": "native",
                "help": "operator frame (rho is trig-only)"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 64, not argparse's 2
        raise ValueError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="f4solv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *reads):
        """The model, coupling and --out options, and the ``_READ_BY_SOME`` options
        in ``reads``: a subcommand takes only what it reads, and argparse refuses the rest."""
        p.add_argument("--model", choices=MODELS, default=RATIONAL)
        p.add_argument("--nu", default="1/3", help="coupling parameter (num/den)")
        p.add_argument("--mu", help="coupling parameter (num/den; 1/5 rational, 1/8 trig)")
        p.add_argument("--omega", default="1", help="oscillator frequency (rational model)")
        p.add_argument("--beta2", default="1/4", help="squared inverse period (trig model)")
        p.add_argument("--params", help="JSON parameter file overriding the flags")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for name in reads:
            p.add_argument(name, **_READ_BY_SOME[name])

    sp = sub.add_parser("spectrum", help="exact spectrum with closed-form comparison")
    add_common(sp, "--level", "--charvec", "--format", "--frame")

    ep = sub.add_parser("eigenfunctions", help="exact eigenpairs as JSON")
    add_common(ep, "--level", "--charvec", "--frame")

    vp = sub.add_parser("verify", help="run a named verification suite")
    add_common(vp, "--level", "--charvec", "--seed", "--frame")
    vp.add_argument("--suite", required=True, choices=list(_SUITES))
    vp.add_argument("--points", type=int, default=20)

    fp = sub.add_parser("scan-flags", help="characteristic-vector scan")
    # the scan and its redefinition grid draw nothing at random, but --seed stays:
    # the bench's certify workload (perfbench/workloads.py) passes it to every command
    add_common(fp, "--level", "--seed")
    fp.add_argument("--bound", type=int, default=6)
    fp.add_argument(
        "--ambiguity-search",
        action="store_true",
        help="also search invariant redefinitions for alternative flags",
    )

    dp = sub.add_parser("dump-operator", help="operator tables as JSON")
    add_common(dp, "--frame")
    return parser


def load_params(args) -> ModelParams:
    mu = args.mu if args.mu is not None else _DEFAULT_MU[args.model]
    nu, mu = parse_fraction(args.nu), parse_fraction(mu)
    omega, beta2 = parse_fraction(args.omega), parse_fraction(args.beta2)
    model = args.model
    if args.params:
        import json

        with open(args.params) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not {"nu", "mu"} <= data.keys():
            raise ValueError("--params expects a JSON object with at least nu and mu")
        model = data.get("model", model)
        if model not in MODELS:
            raise ValueError(f"--params names an unknown model {model!r}")
        nu = parse_fraction(data["nu"])
        mu = parse_fraction(data["mu"])
        if "omega" in data:
            omega = parse_fraction(data["omega"])
        if "beta2" in data:
            beta2 = parse_fraction(data["beta2"])
        args.model = model
    if getattr(args, "frame", "native") == "rho":  # every command, ahead of any work
        if model == RATIONAL:
            raise ValueError("--frame rho applies to the trigonometric model only")
        if beta2 == 0:
            raise ValueError("--frame rho needs beta2 != 0: the rho shear is singular there")
    if model == RATIONAL:
        return ModelParams(nu=nu, mu=mu, omega=omega)
    return ModelParams(nu=nu, mu=mu, beta2=beta2)


def parse_flag_request(args):
    """Validate --level and --charvec, ahead of any operator build."""
    from .flags import parse_charvec

    if args.level < 0:
        raise ValueError("--level must be non-negative")
    return parse_charvec(args.charvec)


def _check_out(path: str) -> None:
    """Raise the ``OSError`` that ``open(path, "w")`` would, without creating or
    truncating the file: a missing directory, a directory, no write permission."""
    try:
        parent = os.path.join(os.path.dirname(os.path.normpath(path)) or ".", "")
        os.stat(parent)  # the trailing separator: a file in the directory's place fails too
        if os.path.isdir(path) or path.endswith(os.sep):  # normpath drops the separator
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def emit(args, text: str | list[str]) -> None:
    """Write the text, or its pieces in order, to --out or to stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def cmd_spectrum(args, params: ModelParams) -> int:
    from .spectral import compare_closed_form, spectrum_from_matrix

    f = parse_flag_request(args)
    op = build_operator(args.model, args.frame, params)
    spectrum = spectrum_from_matrix(op, f, args.level)
    lines, fit = compare_closed_form(spectrum, args.model, params)
    ok, scale, offset = fit.exact, fit.scale, fit.offset

    if args.format == "csv":
        emit(args, spectrum_csv(lines, scale, offset))
    elif args.format == "json":
        emit(
            args,
            dumps(
                {
                    "model": args.model,
                    "level": args.level,
                    "charvec": list(f),
                    "strict_triangular": spectrum.strict,
                    "calibration_scale": format_fraction(scale),
                    "calibration_offset": format_fraction(offset),
                    "agreement": ok,
                    "lines": [spectral_line_json(l) for l in lines],
                }
            ),
        )
    else:
        rows = [
            f"model={args.model} level={args.level} charvec={','.join(map(str, f))}",
            f"closed_form = {format_fraction(scale)} * eigenvalue + {format_fraction(offset)}"
            f"  [{'exact' if ok else 'MISMATCH'}]",
            "p1 p3 p4 p6 | level | eigenvalue | closed_form",
        ]
        for l in lines:
            qn = (
                " ".join(f"{v:>2}" for v in l.quantum_numbers)
                if l.quantum_numbers
                else " -  -  -  -"
            )
            cf = (
                format_fraction(l.closed_form_energy)
                if l.closed_form_energy is not None
                else "-"
            )
            rows.append(
                f"{qn} | {l.level if l.level is not None else '-':>5} | "
                f"{format_fraction(l.eigenvalue):>12} | {cf}"
            )
        emit(args, "\n".join(rows) + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_eigenfunctions(args, params: ModelParams) -> int:
    from .spectral import eigenfunctions

    f = parse_flag_request(args)
    op = build_operator(args.model, args.frame, params)
    # the eigenvalues as spectrum reads them; raises before any output on a nonzero residual
    report = eigenfunctions(op, f, args.level)
    emit(args, eigenfunctions_json(report, args.model, args.level, f))
    return EXIT_ANOMALY if report.defective else EXIT_OK


def cmd_verify(args, params: ModelParams) -> int:
    from . import verify as verify_mod

    if (args.model, args.frame) not in _SUITES[args.suite]:
        raise ValueError(
            f"--suite {args.suite} certifies no {args.model} operator in the {args.frame} frame"
        )
    parse_flag_request(args)  # every suite refuses a bad --level or --charvec, as spectrum does
    report = getattr(verify_mod, f"verify_{args.suite}")(args, params)
    emit(args, dumps(report))
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


def cmd_scan_flags(args, params: ModelParams) -> int:
    from .flags import ambiguity_search, scan_characteristic_vectors

    op = build_operator(args.model, "native", params)  # scan-flags has no --frame
    scan = scan_characteristic_vectors(op, args.bound, args.level)
    payload = scan.to_json()
    if args.ambiguity_search:
        payload["ambiguity_search"] = ambiguity_search(
            op, bound=args.bound, n=args.level
        )
    emit(args, dumps(payload))
    return EXIT_OK


def cmd_dump_operator(args, params: ModelParams) -> int:
    op = build_operator(args.model, args.frame, params)
    emit(args, dumps(operator_to_json(op)))
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "eigenfunctions": cmd_eigenfunctions,
    "verify": cmd_verify,
    "scan-flags": cmd_scan_flags,
    "dump-operator": cmd_dump_operator,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line per warning: no source path, no echoed source line
    print(f"f4solv: warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # argparse takes "-1/3" for an option
        if argv[k - 1] in _RATIONAL_FLAGS and re.fullmatch(r"-\d+/\d+", argv[k]):
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    try:
        args = parser.parse_args(argv)
        if args.out:  # open() would fail only after all the work
            _check_out(args.out)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            return COMMANDS[args.command](args, load_params(args))
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except F4SolvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
