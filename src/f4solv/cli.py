"""Command-line interface.

Subcommands::

    f4solv spectrum        exact spectrum table with closed-form comparison
    f4solv eigenfunctions  exact eigenpairs with residual attestations
    f4solv verify          named verification suites, JSON report
    f4solv scan-flags      characteristic-vector scan and redefinition search
    f4solv dump-operator   operator coefficient tables as JSON

Exit codes: 0 success, 2 claim mismatch, 3 structural anomaly,
64 usage error.  All randomized flows take an explicit --seed
(default 0) and identical configurations produce byte-identical output.
The environment variable F4SOLV_PRECISION (bits) overrides the
floating-point working precision of the periodic-model paths.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from .errors import F4SolvError
from .models import (
    RATIONAL,
    TRIG,
    ModelParams,
    build_rational_operator,
    build_rho_map,
    build_trig_operator,
)
from .serialize import (
    dumps,
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 64, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="f4solv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, frame=True):
        p.add_argument("--model", choices=[RATIONAL, TRIG], default=RATIONAL)
        p.add_argument("--nu", default="1/3", help="coupling parameter (num/den)")
        p.add_argument("--mu", default="1/5", help="coupling parameter (num/den)")
        p.add_argument("--omega", default="1", help="oscillator frequency (rational model)")
        p.add_argument("--beta2", default="1/4", help="squared inverse period (trig model)")
        p.add_argument("--params", help="JSON parameter file overriding the flags")
        p.add_argument("--level", type=int, default=4, help="flag level n")
        p.add_argument("--charvec", default="2,2,3", help="a3,a4,a6 of the characteristic vector")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if frame:
            p.add_argument(
                "--frame",
                choices=["native", "rho"],
                default="native",
                help="operator frame (rho is trig-only)",
            )

    sp = sub.add_parser("spectrum", help="exact spectrum with closed-form comparison")
    add_common(sp)

    ep = sub.add_parser("eigenfunctions", help="exact eigenpairs as JSON")
    add_common(ep)

    vp = sub.add_parser("verify", help="run a named verification suite")
    add_common(vp)
    vp.add_argument(
        "--suite",
        required=True,
        choices=["flag", "triangular", "oracle", "limit", "a66", "scan"],
    )
    vp.add_argument("--points", type=int, default=20)

    fp = sub.add_parser("scan-flags", help="characteristic-vector scan")
    add_common(fp, frame=False)
    fp.add_argument("--bound", type=int, default=6)
    fp.add_argument(
        "--ambiguity-search",
        action="store_true",
        help="also search invariant redefinitions for alternative flags",
    )

    dp = sub.add_parser("dump-operator", help="operator tables as JSON")
    add_common(dp)
    return parser


def load_params(args) -> ModelParams:
    nu, mu = parse_fraction(args.nu), parse_fraction(args.mu)
    omega, beta2 = parse_fraction(args.omega), parse_fraction(args.beta2)
    model = args.model
    if args.params:
        import json

        with open(args.params) as fh:
            data = json.load(fh)
        model = data.get("model", model)
        nu = parse_fraction(data["nu"])
        mu = parse_fraction(data["mu"])
        if "omega" in data:
            omega = parse_fraction(data["omega"])
        if "beta2" in data:
            beta2 = parse_fraction(data["beta2"])
        args.model = model
    if model == RATIONAL:
        return ModelParams(nu=nu, mu=mu, omega=omega)
    return ModelParams(nu=nu, mu=mu, beta2=beta2)


def parse_charvec(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise UsageError("--charvec expects three comma-separated integers a3,a4,a6")
    try:
        a3, a4, a6 = (int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --charvec: {exc}")
    from .flags import make_charvec

    return make_charvec(a3, a4, a6)


def parse_flag_request(args):
    """Validate --level and --charvec, ahead of any operator build."""
    if args.level < 0:
        raise UsageError("--level must be non-negative")
    return parse_charvec(args.charvec)


def build_operator(args, params: ModelParams):
    if args.model == RATIONAL:
        if getattr(args, "frame", "native") == "rho":
            raise UsageError("--frame rho applies to the trigonometric model only")
        return build_rational_operator(params)
    op = build_trig_operator(params)
    if getattr(args, "frame", "native") == "rho":
        fwd, inv = build_rho_map(params.require_beta2())
        op = op.change_variables(fwd, inv)
    return op


def emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    from .spectral import attach_closed_form, fit_energy_affine, spectrum_from_matrix

    params = load_params(args)
    f = parse_flag_request(args)
    op = build_operator(args, params)
    spectrum = spectrum_from_matrix(op, f, args.level)
    lines = attach_closed_form(spectrum.lines, args.model, params)

    if spectrum.strict:
        fit = fit_energy_affine(lines)
    else:
        # block mode has no per-line labels: compare spectra as multisets
        from .spectral import (
            closed_form_energy_rational,
            closed_form_energy_trig,
            match_energy_multisets,
        )

        energy = (
            closed_form_energy_rational
            if args.model == RATIONAL
            else closed_form_energy_trig
        )
        fit = match_energy_multisets(
            [l.eigenvalue for l in lines],
            [energy(m, params) for m in spectrum.basis.monomials],
        )
    ok = fit.exact
    scale, offset = fit.scale, fit.offset

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


def cmd_eigenfunctions(args) -> int:
    from .spectral import eigenfunctions

    params = load_params(args)
    f = parse_flag_request(args)
    op = build_operator(args, params)
    report = eigenfunctions(op, f, args.level)
    payload = {
        "model": args.model,
        "level": args.level,
        "charvec": list(f),
        "eigenpairs": [spectral_line_json(l) for l in report.lines],
        "defective_blocks": list(report.defective_blocks),
    }
    emit(args, dumps(payload))
    return EXIT_ANOMALY if report.defective else EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    params = load_params(args)
    runner = {
        "flag": verify_mod.verify_flag,
        "triangular": verify_mod.verify_triangular,
        "oracle": verify_mod.verify_oracle,
        "limit": verify_mod.verify_limit,
        "a66": verify_mod.verify_a66,
        "scan": verify_mod.verify_scan,
    }[args.suite]
    report = runner(args, params)
    emit(args, dumps(report))
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


def cmd_scan_flags(args) -> int:
    from .flags import ambiguity_search, scan_characteristic_vectors

    params = load_params(args)
    op = (
        build_rational_operator(params)
        if args.model == RATIONAL
        else build_trig_operator(params)
    )
    scan = scan_characteristic_vectors(op, args.bound, args.level)
    payload = scan.to_json()
    if args.ambiguity_search:
        payload["ambiguity_search"] = ambiguity_search(
            op, bound=args.bound, n=args.level
        )
    emit(args, dumps(payload))
    return EXIT_OK


def cmd_dump_operator(args) -> int:
    params = load_params(args)
    op = build_operator(args, params)
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
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except F4SolvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
