#!/usr/bin/env python3
"""Self-test of the benchmark: traced counts repeat exactly between runs.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed N] [--seconds S]
    python3 perfbench/selftest.py --record-reference

The first form runs every workload traced twice, each time in a fresh
process with the same seed, and fails unless both runs are correct and
report identical counts (steps, Newton iterations, every ``*_calls`` and
the output bytes).  The second form rewrites ``reference.json`` from the
default 20-day IDE run of the current sources; do that only when a change
is meant to move the trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(seed, seconds) -> int:
    import run
    import workloads

    failures = 0
    for name in workloads.NAMES:
        first, second = (traced_run(name, seed, seconds) for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                print(f"FAIL {name}: run not correct ({result['failed']} failed)")
                failures += 1
        for count in run.COUNT_UNITS:
            a = first["metrics"][count]["value"]
            b = second["metrics"][count]["value"]
            if a != b:
                print(f"FAIL {name}: {count} {a} != {b}")
                failures += 1
        print(f"{name}: counts repeat ({first['metrics']['integrator.steps']['value']} steps, "
              f"{first['metrics']['integrator.newton_iters']['value']} Newton iterations)")
    return 1 if failures else 0


def record_reference() -> int:
    import run
    import workloads

    run.import_program()
    from fermsim import cli

    member = workloads.build("ide_default", run.DEFAULT_SEED).members[0]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = os.path.join(tmp, "run.conf")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(member.config_text)
        out_dir = os.path.join(tmp, "out")
        code = cli.main(["simulate", "--config", config, "--output-dir", out_dir])
        if code != 0:
            raise SystemExit(f"reference run exited {code}")
        reference = workloads.reference_from_trajectory(os.path.join(out_dir, "trajectory.csv"))
    reference["tolerance"] = 1e-8
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.record_reference:
        return record_reference()
    return check_counts(args.seed, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
