#!/usr/bin/env python3
"""Compare two wallbench builds over alternating runs of one workload.

    scripts/bench_pairs.py PARENT_BIN CHANGE_BIN --workload tpcc-power8 \\
        --first-seed 25001 --pairs 10 [--seconds 20]

Pair i runs both binaries on seed `first-seed + i` with the arguments the
BENCHMARK.json command takes (`--workload W --seed S --seconds
run_seconds --trace 0`), the parent first on even pairs and the change first
on odd ones. Any run that exits non-zero, or whose result line is not
`"correct": true` with 0 failed ops, stops the script with exit 1.

For each of BENCHMARK.json's end-to-end metrics it prints each side's
median and quartiles, how many pairs the change won, and two verdicts:

* gain: at least 9 of 10 pairs won (judged only from 10 pairs up) and the
  medians differ, in the better direction, by more than the parent's
  interquartile range;
* bound: the change's median is no worse than the parent's by more than the
  metric's `bound`. A metric whose relative interquartile range exceeds its
  bound on either side is "unresolved": its runs spread too widely to tell,
  unless every run of the change reads better than every run of the parent.

The last lines name the claimed gains and the metrics beyond their bound.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def median_and_quartiles(q1, med, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def run(binary, workload, seed, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    doc = None
    if proc.returncode == 0 and lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if doc is None or doc.get("correct") is not True or doc.get("failed") != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_pairs: {' '.join(cmd)}: exit {proc.returncode}, "
                 f"result {lines[-1] if lines else '(none)'}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="the parent build's wallbench binary")
    ap.add_argument("change", type=Path, help="the change's wallbench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, help="window length (default: BENCHMARK.json's)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            binary = args.parent if side == "parent" else args.change
            runs[side].append(run(binary, args.workload, seed, seconds))
        first = metrics[0]["name"]
        print(f"pair {i} seed {seed}: {first} parent {runs['parent'][-1][first]:.6g} "
              f"change {runs['change'][-1][first]:.6g}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pair(s) of {seconds}-s runs, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    print(f"{'metric':34} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>6} {'gain':>5}  bound")
    gains, beyond = [], []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pmed, p3 = quartiles(parent)
        c1, cmed, c3 = quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        better_by = (cmed - pmed) if higher else (pmed - cmed)
        gain = (args.pairs >= MIN_GAIN_PAIRS
                and wins >= math.ceil(GAIN_WIN_SHARE * args.pairs)
                and better_by > p3 - p1)
        if gain:
            gains.append(name)
        bound = m["bound"]
        worse = -better_by / pmed if pmed else 0.0
        spread = max((p3 - p1) / pmed if pmed else 0.0, (c3 - c1) / cmed if cmed else 0.0)
        all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
        if spread > bound and not all_better:
            verdict = f"unresolved (spread {spread:.2f} > {bound})"
        elif worse > bound:
            verdict = f"BEYOND ({worse:+.1%} worse > {bound})"
            beyond.append(name)
        else:
            verdict = f"within ({-worse:+.1%})"
        print(f"{name:34} {median_and_quartiles(p1, pmed, p3):>34} "
              f"{median_and_quartiles(c1, cmed, c3):>34} "
              f"{wins:>3}/{args.pairs:<2} {'yes' if gain else 'no':>5}  {verdict}")
    print(f"claimed gains: {', '.join(gains) or 'none'}")
    print(f"beyond bound: {', '.join(beyond) or 'none'}")


if __name__ == "__main__":
    main()
