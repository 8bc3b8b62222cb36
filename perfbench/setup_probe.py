"""Set-up probe: what every CLI invocation pays before its own work.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/setup_probe.py rational:1/3,1/5,1 trig:1/3,1/8,1/4 rho:1/3,1/8,1/4

A fresh interpreter imports ``f4solv`` and builds each named operator
through the public builders (``rho`` is ``build_rho_map`` followed by
``change_variables``).  Prints the in-process timings as one JSON line;
the benchmark times the whole process from outside.
"""

import json
import sys
import time

perf = time.perf_counter


def main(specs: list) -> int:
    start = perf()
    import f4solv  # noqa: F401 - the package import is part of set-up
    from f4solv.models import (
        ModelParams,
        build_rational_operator,
        build_rho_map,
        build_trig_operator,
    )
    from f4solv.serialize import parse_fraction

    timings = {"import_s": perf() - start}
    for spec in specs:
        kind, _, values = spec.partition(":")
        nu, mu, third = (parse_fraction(v) for v in values.split(","))
        t = perf()
        if kind == "rational":
            build_rational_operator(ModelParams(nu=nu, mu=mu, omega=third))
        else:
            op = build_trig_operator(ModelParams(nu=nu, mu=mu, beta2=third))
            if kind == "rho":
                op.change_variables(*build_rho_map(third))
        timings[spec] = perf() - t
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
