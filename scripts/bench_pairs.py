#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with the rule for a claim.

Checks out ``--parent`` with ``git worktree`` under ``.bench_build/`` and
runs ``perfbench/run.py --trace 0`` of the parent checkout and of this
working tree as separate processes, ``--pairs`` times, flipping which
side runs first.  For each end-to-end metric that ``BENCHMARK.json``
declares it prints both sides' medians and quartiles, the pairs the
change won (ties count for neither side) and whether the change clears
the rule for claiming a gain: at least 10 pairs, of which the change
wins at least 9/10, and its median is better than the parent's by more
than the parent's interquartile range.  ``--json`` writes the first
pair's results, every pair and the summary, the layout of the
repository's ``BENCH_*.json`` files.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload ode_sweep --pairs 10
    python3 scripts/bench_pairs.py --parent HEAD~1 --workload all --pairs 1 --json bench.json

With ``--workload all`` each process runs every workload, and each
workload is summarized on its own.  The benchmark's own files are run,
never imported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def end_to_end_metrics(root=ROOT):
    """{metric name: "higher" or "lower"} from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def run_bench(checkout, workload, seed):
    """The last stdout line of one benchmark process in ``checkout``, as
    {workload: result}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result if workload == "all" else {workload: result}


def quartiles(values):
    """First quartile, median and third quartile; one value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent, change, better):
    """Summary of paired values of one metric: medians, quartiles, pairs
    won by the change and whether the change clears the claim rule."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    clears = (len(parent) >= MIN_PAIRS and won >= WIN_SHARE * len(parent)
              and sign * (cm - pm) > p3 - p1)
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "won": won,
            "pairs": len(parent), "clears": bool(clears)}


def summarize(pairs, metrics):
    """{workload: {metric: verdict}} over ``pairs``, a list of
    {"parent": {workload: result}, "change": {workload: result}}."""
    summary = {}
    for workload in pairs[0]["parent"]:
        summary[workload] = {}
        for name, better in metrics.items():
            sides = [[pair[side][workload]["metrics"][name]["value"] for pair in pairs]
                     for side in ("parent", "change")]
            summary[workload][name] = verdict(*sides, better)
    return summary


def print_summary(summary, pairs):
    for workload, rows in summary.items():
        correct = {side: sum(pair[side][workload]["correct"] for pair in pairs)
                   for side in ("parent", "change")}
        failed = {side: sum(pair[side][workload]["failed"] for pair in pairs)
                  for side in ("parent", "change")}
        print(f"{workload}: {len(pairs)} pairs; correct runs parent {correct['parent']}, "
              f"change {correct['change']}; failed operations parent {failed['parent']}, "
              f"change {failed['change']}")
        for name, row in rows.items():
            (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
            ratio = f"{cm / pm:.3f}x" if pm else "-"
            print(f"  {name:15s} parent {pm:.6g} [{p1:.6g}-{p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}-{c3:.6g}]  {ratio}  "
                  f"won {row['won']}/{row['pairs']}  clears: {'yes' if row['clears'] else 'no'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", default=None, help="write the results to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sha = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    checkout = os.path.join(BUILD, f"parent-{sha[:12]}-{os.getpid()}")
    os.makedirs(BUILD, exist_ok=True)
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", checkout, sha],
                   cwd=ROOT, check=True)
    pairs = []
    try:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run_bench(checkout if side == "parent" else ROOT,
                                       args.workload, args.seed)
            pairs.append(pair)
            print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", checkout], cwd=ROOT,
                       check=False)
    summary = summarize(pairs, end_to_end_metrics())
    print(f"parent {args.parent} ({sha[:12]}) against the working tree, seed {args.seed}")
    print_summary(summary, pairs)
    if args.json:
        command = (f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --trace 0")
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"command": command, "parent_rev": sha, "parent": pairs[0]["parent"],
                       "change": pairs[0]["change"], "pairs": pairs, "summary": summary},
                      handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
