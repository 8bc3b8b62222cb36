"""f4solv benchmark: real CLI runs, checked outputs, metrics by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

``--workload`` is ``spectra``, ``eigen``, ``certify`` or ``all``.  Load is
a closed loop with one client: each command is a fresh
``python -m f4solv.cli`` process with ``PYTHONPATH=src``, run one at a
time, as a user pays for it.  One pass runs the workload's command list
once; passes repeat until ``--seconds`` of measuring have passed.

``--trace 0`` reports the end-to-end metrics, measured with no wrappers
installed: ``setup_s`` (median over fresh set-up processes), ``wall_s``
(one pass: the command list runs twice and each command counts its
faster run, timeouts counted in full) and ``peak_rss_mb`` (largest
command process of a pass), as medians over the run.  ``--trace 1``
runs the list once untraced and once traced and reports the per-layer
metrics from the traced run (see ``perfbench/tracer.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed command is a wrong exit code, a
timeout or a failed output check.  ``correct`` is false when any output
that was produced is wrong; a timeout fails a command without making
the run incorrect.  A full record, with every command's stdout sha256
for diffing two commits, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from proc import Outcome, run_command  # noqa: E402
from tracer import outermost_totals, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: pinned on both sides of any comparison
HASH_SEED = "0"
SETUP_REPEATS = 3
#: rounds of an untraced pass; the pass keeps each command's fastest run
ROUNDS = 2
SETUP_TIMEOUT_S = 60.0
WINDOW_WARNING = b"outside the physical window"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: per-layer metric -> (unit, how it is read from a traced pass)
PER_LAYER = {
    "cli.import_s": ("s", "import f4solv in the set-up processes (median)"),
    "cli.main_self_s": ("s", "self time of cli.main"),
    "cli.cpu_s": ("s", "user+sys CPU of the untraced command processes"),
    "models.build_rational_s": ("s", "self time of build_rational_operator"),
    "models.build_trig_s": ("s", "build_trig_operator + build_rho_map"),
    "operators.change_variables_s": ("s", "SecondOrderOp.change_variables"),
    "oracle.derive_missing_a66_s": ("s", "derive_missing_a66"),
    "oracle.calibrate_s": ("s", "calibrate_normalization"),
    "oracle.invariant_reduce_s": ("s", "self time of invariant_reduce"),
    "oracle.sweep_s": ("s", "self time of the oracle sweeps"),
    "oracle.evals": ("count", "polynomials x points compared"),
    "oracle.s_per_eval": ("s", "oracle.sweep_s / oracle.evals"),
    "gauge.grad_trig_s": ("s", "grad_log_ground_state_trig"),
    "flags.preserves_flag_s": ("s", "self time of preserves_flag"),
    "flags.scan_s": ("s", "self time of the scan and the ambiguity search"),
    "flags.ambiguity_tried": ("count", "searched field of scan-flags output"),
    "flags.basis_dim": ("count", "sum of spectrum basis sizes"),
    "operators.op_matrix_s": ("s", "self time of op_matrix"),
    "operators.apply_calls": ("count", "SecondOrderOp.apply calls"),
    "operators.apply_s": ("s", "time inside SecondOrderOp.apply"),
    "operators.matrix_nnz": ("count", "nonzeros of op_matrix results"),
    "operators.entry_bits_max": ("bits", "largest entry bit length in those"),
    "spectral.spectrum_s": ("s", "spectrum_from_matrix self time, t and rho"),
    "spectral.spectrum_native_s": ("s", "spectrum_from_matrix self time, tau"),
    "spectral.eigenfunctions_s": ("s", "self time of eigenfunctions"),
    "spectral.eigenpairs": ("count", "eigenpairs returned"),
    "linalg.nullspace_s": ("s", "nullspace"),
    "linalg.nullspace_calls": ("count", "nullspace calls"),
    "linalg.solve_s": ("s", "solve + solve_with_rank"),
    "linalg.eigvec_bits_max": ("bits", "largest eigenvector coordinate bit length"),
    "poly.mpoly_inits": ("count", "MPoly.__init__ calls"),
    "poly.substitute_s": ("s", "MPoly.substitute"),
    "poly.eval_calls": ("count", "eval_exact + eval_float calls"),
    "serialize.dumps_s": ("s", "serialize.dumps"),
    "serialize.out_bytes": ("bytes", "stdout size"),
    "verify.suite_s": ("s", "self time of the verify suites"),
    "trace.overhead_frac": ("ratio", "traced wall / untraced wall - 1"),
}

#: span name -> metric for self times and for outermost totals
SELF_METRICS = {
    "cli.main": "cli.main_self_s",
    "models.build_rational": "models.build_rational_s",
    "models.build_trig": "models.build_trig_s",
    "oracle.invariant_reduce": "oracle.invariant_reduce_s",
    "oracle.sweep": "oracle.sweep_s",
    "flags.preserves_flag": "flags.preserves_flag_s",
    "flags.scan": "flags.scan_s",
    "operators.op_matrix": "operators.op_matrix_s",
    "spectral.spectrum": "spectral.spectrum_s",
    "spectral.spectrum_native": "spectral.spectrum_native_s",
    "spectral.eigenfunctions": "spectral.eigenfunctions_s",
    "verify.suite": "verify.suite_s",
}
TOTAL_METRICS = {
    "operators.change_variables": "operators.change_variables_s",
    "oracle.derive_missing_a66": "oracle.derive_missing_a66_s",
    "oracle.calibrate": "oracle.calibrate_s",
    "gauge.grad_trig": "gauge.grad_trig_s",
    "linalg.nullspace": "linalg.nullspace_s",
    "linalg.solve": "linalg.solve_s",
    "serialize.dumps": "serialize.dumps_s",
}
#: (hot name, index: 0 calls / 1 seconds) -> metric
HOT_METRICS = {
    ("operators.apply", 0): "operators.apply_calls",
    ("operators.apply", 1): "operators.apply_s",
    ("poly.mpoly_init", 0): "poly.mpoly_inits",
    ("poly.substitute", 1): "poly.substitute_s",
    ("poly.eval", 0): "poly.eval_calls",
}


class ConfigError(Exception):
    """The benchmark's own configuration is unusable; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("F4SOLV_PRECISION", None)  # the 200-bit default on both sides
    return env


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import mpmath

        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = "missing"
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        # a checkout without git still identifies the code it measured
        "sources_sha256": sources.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": os.cpu_count(),
        "F4SOLV_PRECISION": "unset (200-bit default)",
        "PYTHONHASHSEED": HASH_SEED,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- running ----------------------------------------------------------------------


class Runner:
    """Runs one workload and keeps every command result of the run."""

    def __init__(self, workload: Workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.env = child_env()
        self.digests: dict[str, str] = {}
        self.records: list[dict] = []

    def setup(self) -> dict:
        argv = [sys.executable, str(HERE / "setup_probe.py"), *self.workload.operators()]
        out = run_command(argv, self.env, str(ROOT), SETUP_TIMEOUT_S)
        if out.returncode != 0:
            raise ConfigError(f"set-up probe failed: {out.stderr.decode(errors='replace')[-400:]}")
        if WINDOW_WARNING in out.stderr:
            raise ConfigError("set-up writes a window warning: parameters out of window")
        timings = json.loads(out.stdout.decode().strip().splitlines()[-1])
        return {"wall_s": out.wall_s, "import_s": timings["import_s"]}

    def run_pass(self, traced: bool, rounds: int = 1) -> dict:
        """Run the command list ``rounds`` times over and keep each command's fastest run.

        Other tenants slow a shared machine by up to a third for tens of
        seconds at a time.  Slowdowns only add, so the fastest run
        counts, and the repeats are a whole list apart so that they are
        less likely to share a slow spell.  A repeat also checks that
        stdout is the same.  A timeout is not repeated.
        """
        runs: list[list] = [[] for _ in self.workload.commands]
        for _ in range(rounds):
            for cmd, tried in zip(self.workload.commands, runs):
                if tried and tried[-1][1].timed_out:
                    continue
                if traced:
                    spans_path = os.path.join(self.work_dir, f"spans-{len(self.records)}.json")
                    argv = [sys.executable, str(HERE / "tracer.py"), spans_path, "--", *cmd.argv]
                else:
                    spans_path = None
                    argv = [sys.executable, "-m", "f4solv.cli", *cmd.argv]
                out = run_command(argv, self.env, str(ROOT), self.workload.timeout_s)
                record = self._judge(cmd, out, traced)
                if spans_path is not None:
                    record["trace"] = _read_spans(spans_path)
                self.records.append(record)
                tried.append((record, out))
        best = [min(tried, key=lambda r: r[1].wall_s) for tried in runs]
        outcomes = [out for tried in runs for _, out in tried]
        return {
            # commands that hit the timeout count at the full timeout
            "wall_s": sum(out.wall_s for _, out in best),
            "peak_rss_mb": max(out.maxrss_kb for out in outcomes) / 1024,
            "cpu_s": sum(out.cpu_s for _, out in best),
            "records": [r for r, _ in best],
            "outcomes": [o for _, o in best],
        }

    def _judge(self, cmd, out: Outcome, traced: bool) -> dict:
        if WINDOW_WARNING in out.stderr:
            raise ConfigError(f"window warning from: {cmd.label}")
        problems: list[str] = []
        digest = None
        if out.timed_out:
            problems.append(f"timeout after {self.workload.timeout_s:g} s")
        elif out.returncode != 0:
            problems.append(
                f"exit {out.returncode}: " + out.stderr.decode(errors="replace")[-300:]
            )
        else:
            problems.extend(cmd.check(out.stdout))
            digest = hashlib.sha256(out.stdout).hexdigest()
            first = self.digests.setdefault(cmd.label, digest)
            if first != digest:
                problems.append("stdout differs from an earlier repeat of this command")
        return {
            "command": cmd.label,
            "traced": traced,
            "exit": out.returncode,
            "wall_s": out.wall_s,
            "cpu_s": out.cpu_s,
            "maxrss_kb": out.maxrss_kb,
            "stdout_bytes": len(out.stdout),
            "stdout_sha256": digest,
            "timed_out": out.timed_out,
            "problems": problems,
        }


def _read_spans(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:  # killed before it could write
        return {"spans": [], "hot": {}, "counts": {}}
    os.unlink(path)
    return data


# -- metrics ------------------------------------------------------------------------


def layer_metrics(traced: dict, untraced: dict, import_s: float) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    m = {name: 0.0 for name in PER_LAYER}
    for record, out in zip(traced["records"], traced["outcomes"]):
        trace = record["trace"]
        spans = trace["spans"]
        for (name, *_), st in zip(spans, self_times(spans)):
            if name in SELF_METRICS:
                m[SELF_METRICS[name]] += st
            if name == "linalg.nullspace":
                m["linalg.nullspace_calls"] += 1
        for name, total in outermost_totals(spans).items():
            if name in TOTAL_METRICS:
                m[TOTAL_METRICS[name]] += total
        for (name, idx), metric in HOT_METRICS.items():
            m[metric] += trace["hot"].get(name, [0, 0.0])[idx]
        for name, value in trace["counts"].items():
            m[name] = max(m[name], value) if name.endswith("_max") else m[name] + value
        m["serialize.out_bytes"] += len(out.stdout)
        if record["command"].startswith("scan-flags") and not record["problems"]:
            m["flags.ambiguity_tried"] += json.loads(out.stdout)["ambiguity_search"]["searched"]
    m["cli.import_s"] = import_s
    m["cli.cpu_s"] = untraced["cpu_s"]
    m["oracle.s_per_eval"] = m["oracle.sweep_s"] / m["oracle.evals"] if m["oracle.evals"] else 0.0
    m["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        runner = Runner(workload, work_dir)
        # bytecode compiled once, so no run pays it
        run_command([sys.executable, str(HERE / "setup_probe.py")], runner.env, str(ROOT), SETUP_TIMEOUT_S)
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        samples: dict[str, list[float]] = {}
        start = time.perf_counter()
        while True:
            if trace:
                untraced = runner.run_pass(traced=False)
                traced = runner.run_pass(traced=True)
                import_s = statistics.median(s["import_s"] for s in setups)
                values = layer_metrics(traced, untraced, import_s)
            else:
                p = runner.run_pass(traced=False, rounds=ROUNDS)
                values = {"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"]}
            for k, v in values.items():
                samples.setdefault(k, []).append(v)
            if time.perf_counter() - start >= seconds:
                break
    if not trace:
        samples["setup_s"] = [s["wall_s"] for s in setups]
    units = END_TO_END_UNITS if not trace else {k: u for k, (u, _) in PER_LAYER.items()}
    summary = {k: dict(quartiles(samples[k]), unit=units[k]) for k in units}
    records = runner.records
    failed = sum(1 for r in records if r["problems"])
    wrong = sum(1 for r in records if r["problems"] and not r["timed_out"])
    result = {
        "workload": name,
        "environment": environment(seed),
        "timeout_s": workload.timeout_s,
        "attempted": len(records),
        "failed": failed,
        "correct": wrong == 0,
        "metrics": summary,
        "commands": [{k: v for k, v in r.items() if k != "trace"} for r in records],
    }
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_summary(result: dict) -> None:
    name = result["workload"]
    print(f"[{name}] attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4f} correct={result['correct']}")
    for metric, s in result["metrics"].items():
        print(f"[{name}] {metric} = {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for c in result["commands"]:
        if c["problems"]:
            print(f"[{name}] FAILED {c['command']}: {'; '.join(c['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds through run_command, which kills its command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "f4solv" / "cli.py").is_file():
        print(f"perfbench: no f4solv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except ConfigError as exc:
        print(f"perfbench: configuration rejected: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print_summary(r)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + k: {"value": s["median"], "unit": s["unit"]}
        for r in results
        for k, s in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
