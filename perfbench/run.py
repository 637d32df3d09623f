#!/usr/bin/env python3
"""fermsim benchmark: one workload per process, one simulation at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload ide_default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Every operation enters through the command-line front door, in process:
``fermsim.cli.main(["simulate", "--config", <generated file>,
"--output-dir", <dir>])``.  Operations run back to back (one closed-loop
client) until the next one would end after ``--seconds``; at least one
runs.  Each operation's artifacts and trajectory are checked.

``--trace 0`` reports the end-to-end metrics.  The only hook is a
timestamp pair around the integrator call.  ``--trace 1`` alternates an
untraced operation with a traced one and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  The last line of standard
output is the JSON result; the lines before it hold the environment and a
readable summary.  Scratch files go under ``.bench_build/`` and are
removed at exit.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_days_per_s": "day/s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
# Per-layer metric -> unit.  Counts must repeat exactly between operations.
COUNT_UNITS = {
    "integrator.linsolve_calls": "count", "integrator.steps": "count",
    "integrator.newton_iters": "count", "integrator.newton_iters_per_step": "iters/step",
    "system.rhs_calls": "count", "system.jacobian_calls": "count",
    "system.rhs_calls_per_step": "calls/step",
    "reduced.rhs_calls": "count", "reduced.jacobian_calls": "count",
    "operator.assemble_calls": "count", "simulate.output_bytes": "bytes",
}
TIME_UNITS = {
    "integrator.linsolve_s": "s", "integrator.step_self_s": "s",
    "integrator.step_us_p50": "us", "integrator.step_us_p90": "us",
    "system.rhs_s": "s", "system.jacobian_s": "s",
    "reduced.rhs_s": "s", "reduced.jacobian_s": "s",
    "operator.assemble_s": "s",
    "simulate.setup_s": "s", "simulate.march_s": "s", "simulate.output_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def import_program():
    """Import fermsim from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "fermsim", "__init__.py")):
        raise BenchError(f"no fermsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import fermsim
    import fermsim.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(fermsim.__file__))) != SRC:
        raise BenchError(f"fermsim imported from {fermsim.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no machine-readable build config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "blas_pinned": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def run_operation(workload, config_paths, out_root, hooks, reference):
    """Run every member of one operation through the CLI and check it.

    Returns the operation's timings and the problems found (empty when
    correct); with more hooks than the integrate one, also its per-layer
    numbers under ``"layers"``.
    """
    from fermsim import cli

    op = {"wall": 0.0, "setup": 0.0, "march": 0.0, "days": 0.0, "problems": []}
    spans, trajectories, nbytes = [], [], 0
    with Recorder(hooks) as recorder:
        for index, (member, config_path) in enumerate(zip(workload.members, config_paths)):
            out_dir = os.path.join(out_root, f"member{index}")
            shutil.rmtree(out_dir, ignore_errors=True)
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    code = cli.main(["simulate", "--config", config_path,
                                     "--output-dir", out_dir])
            except Exception as exc:  # a traceback through the front door is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            member_spans, results = recorder.take()
            spans += member_spans
            trajectory = results[-1] if results else None
            trajectories.append(trajectory)
            integrate = [s for s in member_spans if s[0] == "integrator.integrate"]
            op["wall"] += end - start
            op["setup"] += (integrate[0][1] if integrate else end) - start
            op["march"] += sum(s[2] - s[1] for s in integrate)
            op["days"] += workloads.simulated_days(trajectory)
            if code != 0:
                tail = captured.getvalue().strip().splitlines()[-1:] or [""]
                op["problems"].append(f"member {index}: exit {code} {tail[0]}")
                continue
            recorder.check_fired(member_spans)
            nbytes += workloads.output_bytes(out_dir)
            op["problems"] += [f"member {index}: {p}" for p in workloads.check_member(
                member, out_dir, trajectory, reference)]
    if len(hooks) > 1:
        op["layers"] = layer_metrics(spans, trajectories, nbytes)
    return op


def layer_metrics(spans, trajectories, nbytes) -> dict:
    """Per-layer numbers of one traced operation."""
    by_name = defaultdict(list)
    for name, start, end, child in spans:
        by_name[name].append((start, end, child))

    def busy(name):
        return sum(end - start for start, end, _ in by_name[name])

    steps = by_name["integrator.step"]
    step_us = sorted(1e6 * (end - start) for start, end, _ in steps)
    n_steps = len(steps)
    runs, integrates = by_name["simulate.run"], by_name["integrator.integrate"]
    newton = sum(r.newton_iterations for t in trajectories if t is not None for r in t.records)
    return {
        "integrator.linsolve_s": busy("integrator.linsolve"),
        "integrator.linsolve_calls": len(by_name["integrator.linsolve"]),
        "integrator.step_self_s": sum(end - start - child for start, end, child in steps),
        "integrator.steps": n_steps,
        "integrator.newton_iters": newton,
        "integrator.newton_iters_per_step": newton / n_steps if n_steps else 0.0,
        "integrator.step_us_p50": statistics.median(step_us) if step_us else 0.0,
        "integrator.step_us_p90": step_us[int(0.9 * (n_steps - 1))] if step_us else 0.0,
        "system.rhs_s": busy("system.rhs"),
        "system.rhs_calls": len(by_name["system.rhs"]),
        "system.jacobian_s": busy("system.jacobian"),
        "system.jacobian_calls": len(by_name["system.jacobian"]),
        "system.rhs_calls_per_step": len(by_name["system.rhs"]) / n_steps if n_steps else 0.0,
        "reduced.rhs_s": busy("reduced.rhs"),
        "reduced.rhs_calls": len(by_name["reduced.rhs"]),
        "reduced.jacobian_s": busy("reduced.jacobian"),
        "reduced.jacobian_calls": len(by_name["reduced.jacobian"]),
        "operator.assemble_s": busy("operator.assemble"),
        "operator.assemble_calls": len(by_name["operator.assemble"]),
        "simulate.setup_s": sum(i[0] - r[0] for r, i in zip(runs, integrates)),
        "simulate.march_s": busy("integrator.integrate"),
        "simulate.output_s": sum(r[1] - i[1] for r, i in zip(runs, integrates)),
        "simulate.output_bytes": nbytes,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure(workload_name, seed, seconds, trace):
    """Run operations for ``seconds``; returns (result dict, summary lines)."""
    workload = workloads.build(workload_name, seed)
    reference = workloads.load_reference() if workload.check_reference else None
    scratch = os.path.join(SCRATCH, f"perfbench-{workload_name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        config_paths = []
        for index, member in enumerate(workload.members):
            path = os.path.join(scratch, f"member{index}.conf")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(member.config_text)
            config_paths.append(path)
        out_root = os.path.join(scratch, "out")

        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_operation(workload, config_paths, out_root,
                                          (workload.integrate_hook,), reference))
            if trace:
                traced.append(run_operation(workload, config_paths, out_root,
                                            (workload.integrate_hook,) + workload.trace_hooks,
                                            reference))
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 1.0 / len(untraced)) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = untraced + traced
    failed = [op for op in ops if op["problems"]]
    lines = [f"{workload_name}: seed {seed}, {len(ops)} operations, {len(failed)} failed, "
             f"fail_frac = {len(failed) / len(ops):.6g}"]
    walls = sorted(op["wall"] for op in untraced)
    lines.append(f"  untraced wall per operation: n = {len(walls)}, min = {walls[0]:.4f} s, "
                 f"max = {walls[-1]:.4f} s")
    for op in failed[:5]:
        lines.append("  problem: " + "; ".join(op["problems"][:3]))

    if trace:
        metrics = traced_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": statistics.median(op["wall"] for op in untraced),
            "setup_s": statistics.median(op["setup"] for op in untraced),
            "sim_days_per_s": statistics.median(
                op["days"] / op["march"] if op["march"] > 0 else 0.0 for op in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failed) / len(ops),
        }
    units = {**END_TO_END_UNITS, **COUNT_UNITS, **TIME_UNITS}
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def traced_metrics(traced, untraced) -> dict:
    """Median times and exactly repeated counts over the traced operations."""
    per_op = [op["layers"] for op in traced if not op["problems"]] \
        or [op["layers"] for op in traced]
    metrics = {}
    for name in COUNT_UNITS:
        values = {m[name] for m in per_op}
        if len(values) != 1:
            raise BenchError(f"count {name} differs between operations: {sorted(values)}")
        metrics[name] = values.pop()
    for name in TIME_UNITS:
        if name != "trace.overhead_s":
            metrics[name] = statistics.median(m[name] for m in per_op)
    metrics["trace.overhead_s"] = (statistics.median(op["wall"] for op in traced)
                                   - statistics.median(op["wall"] for op in untraced))
    return metrics


def run_all(args) -> int:
    """Run every workload, each in a fresh process; end with all results as one JSON line."""
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_program()
        env = environment()
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except Exception as exc:  # hooks, counts or sources: no result is printed
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env}))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
