"""Traced runner: one CLI command in a fresh process, timed layer by layer.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/tracer.py SPANS_JSON -- spectrum --model trig --level 4

The runner wraps public functions of the ``f4solv`` modules from the
outside, then calls ``f4solv.cli.main(argv)``.  Stdout and the exit code
are the command's own.  Spans stay in memory and are written to
SPANS_JSON when the process exits, also when a timeout sends SIGTERM.

Coarse functions get one span per call: name, start, end, parent.  Hot
functions (``SecondOrderOp.apply``, ``MPoly.__init__``, ``MPoly.substitute``
and the ``eval_*`` methods) are aggregated into call counts and total
times instead.  Counts that can be read off return values (basis sizes,
matrix nonzeros, bit lengths, oracle evaluations) are computed from
those values inside a ``trace.derive`` span, so their cost never lands
in a layer's self time.

This module also holds the span arithmetic the benchmark uses to turn
span files into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import signal
import sys
import time
from typing import Callable, Optional

perf = time.perf_counter

#: span name of the root span the runner opens around ``cli.main``
ROOT = "cli.main"
DERIVE = "trace.derive"


class Tracer:
    """In-memory span and counter store for one command."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}  # name -> [calls, total_s]
        self.counts: dict[str, float] = {}

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf(), None, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf()
        self.stack.pop()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def span(
        self,
        fn: Callable,
        name,
        derive: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments."""

        def wrapper(*args, **kwargs):
            rec = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if derive is not None:
                d = self.open(DERIVE)
                try:
                    derive(self, result)
                finally:
                    self.close(d)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_call(self, fn: Callable, name: str, timed: bool = True) -> Callable:
        """Wrap ``fn`` in a call counter (and a timer unless ``timed`` is false)."""
        slot = self.hot.setdefault(name, [0, 0.0])
        depth = [0]

        if not timed:

            def counter(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)

            counter.__wrapped__ = fn
            return counter

        def timer(*args, **kwargs):
            slot[0] += 1
            if depth[0]:  # nested call: the outer one already holds the clock
                return fn(*args, **kwargs)
            depth[0] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf() - start
                depth[0] -= 1

        timer.__wrapped__ = fn
        return timer

    def close_open_spans(self) -> None:
        now = perf()
        while self.stack:
            self.spans[self.stack.pop()][2] = now

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "hot": self.hot, "counts": self.counts}, fh
            )


# -- counts read off return values ---------------------------------------------


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _derive_matrix(tracer: Tracer, result) -> None:
    nonzero = [v for row in result.matrix.data for v in row if v]
    tracer.add("operators.matrix_nnz", len(nonzero))
    tracer.maximum("operators.entry_bits_max", max(map(_bits, nonzero), default=0))


def _derive_spectrum(tracer: Tracer, result) -> None:
    tracer.add("flags.basis_dim", len(result.basis))


def _derive_eigen(tracer: Tracer, report) -> None:
    tracer.add("spectral.eigenpairs", len(report.lines))
    coords = [
        c for line in report.lines for c in line.eigenfunction.terms.values()
    ]
    tracer.maximum("linalg.eigvec_bits_max", max(map(_bits, coords), default=0))


def _derive_sweep(tracer: Tracer, report: dict) -> None:
    tracer.add("oracle.evals", report["points"] * report["polynomials"])


def _spectrum_name(op, *args, **kwargs) -> str:
    # the tau frame is the block path; t and rho are strictly triangular
    return "spectral.spectrum_native" if op.frame == "tau" else "spectral.spectrum"


# -- installation ----------------------------------------------------------------


def load_all_modules() -> list:
    import f4solv

    names = sorted(m.name for m in pkgutil.iter_modules(f4solv.__path__))
    return [f4solv] + [importlib.import_module(f"f4solv.{n}") for n in names]


def rebind(modules: list, original: Callable, wrapper: Callable) -> int:
    """Point every module attribute bound to ``original`` at ``wrapper``.

    Modules import functions by name, so ``spectral.nullspace`` and
    ``linalg.nullspace`` are separate bindings of one object; each must
    be replaced or calls through it go untraced.
    """
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the public functions named in the benchmark's per-layer table."""
    modules = load_all_modules()
    from f4solv import (
        cli,
        flags,
        gauge,
        linalg,
        models,
        operators,
        oracle,
        serialize,
        spectral,
        verify,
    )
    from f4solv.operators import SecondOrderOp
    from f4solv.poly import MPoly

    functions = [
        (cli.main, ROOT, None),
        (models.build_rational_operator, "models.build_rational", None),
        (models.build_trig_operator, "models.build_trig", None),
        (models.build_rho_map, "models.build_trig", None),
        (oracle.derive_missing_a66, "oracle.derive_missing_a66", None),
        (oracle.calibrate_normalization, "oracle.calibrate", None),
        (oracle.invariant_reduce, "oracle.invariant_reduce", None),
        (oracle.oracle_sweep_rational, "oracle.sweep", _derive_sweep),
        (oracle.oracle_sweep_trig, "oracle.sweep", _derive_sweep),
        (gauge.grad_log_ground_state_trig, "gauge.grad_trig", None),
        (flags.preserves_flag, "flags.preserves_flag", None),
        (flags.scan_characteristic_vectors, "flags.scan", None),
        (flags.ambiguity_search, "flags.scan", None),
        (operators.op_matrix, "operators.op_matrix", _derive_matrix),
        (spectral.spectrum_from_matrix, _spectrum_name, _derive_spectrum),
        (spectral.eigenfunctions, "spectral.eigenfunctions", _derive_eigen),
        (linalg.nullspace, "linalg.nullspace", None),
        (linalg.solve, "linalg.solve", None),
        (linalg.solve_with_rank, "linalg.solve", None),
        (serialize.dumps, "serialize.dumps", None),
    ] + [
        (getattr(verify, name), "verify.suite", None)
        for name in sorted(vars(verify))
        if name.startswith("verify_")
    ]
    for fn, name, derive in functions:
        if not rebind(modules, fn, tracer.span(fn, name, derive)):
            raise RuntimeError(f"no module binds {fn.__qualname__}")

    methods = [
        (SecondOrderOp, "change_variables", tracer.span, "operators.change_variables"),
        (SecondOrderOp, "apply", tracer.hot_call, "operators.apply"),
        (MPoly, "substitute", tracer.hot_call, "poly.substitute"),
        (MPoly, "eval_exact", tracer.hot_call, "poly.eval"),
        (MPoly, "eval_float", tracer.hot_call, "poly.eval"),
    ]
    for cls, attr, wrap, name in methods:
        setattr(cls, attr, wrap(vars(cls)[attr], name))
    MPoly.__init__ = tracer.hot_call(vars(MPoly)["__init__"], "poly.mpoly_init", timed=False)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <f4solv arguments>", file=sys.stderr)
        return 64
    spans_path, command = argv[0], argv[2:]
    tracer = Tracer()

    def on_term(signum, frame):
        tracer.close_open_spans()
        tracer.dump(spans_path)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    install(tracer)
    import f4solv.cli

    try:
        code = f4solv.cli.main(command)
        sys.stdout.flush()
    finally:
        tracer.close_open_spans()
        tracer.dump(spans_path)
    return code


# -- span arithmetic -------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def outermost_totals(spans: list) -> dict[str, float]:
    """Per name, summed duration of spans with no ancestor of the same name."""
    totals: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] = totals.get(name, 0.0) + end - start
    return totals


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
