#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts.

Runs `perfbench/run.py --trace 0` from the root of a parent checkout and of
a change checkout, for N pairs over consecutive seeds.  Pair i uses seed
SEED + i on both sides; the parent runs first in even pairs and the change
first in odd ones.  Each checkout runs its own perfbench/, and nothing
under it is changed.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload products [--pairs 10] [--seed 1] [--seconds 30]

For each end-to-end metric it prints each side's median and quartiles, the
pairs each side won (a tie counts for neither side) and the median and
quartiles of the per-pair ratios change/parent, which are steadier than the
two medians when the machine's speed drifts between runs.  Which way is
better comes from the change checkout's BENCHMARK.json.  peak_rss_mb
follows the length of the checkout path, so a warning is printed when the
two paths differ in length.  A checkout holding src/hhkt/__pycache__
imports faster than one without it, so the script exits 2, naming the
directory, when either checkout holds one; its own runs set
PYTHONDONTWRITEBYTECODE=1 and leave none behind.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(lower quartile, median, upper quartile), by statistics.quantiles
    with its default (exclusive) method; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(pairs, better):
    """Per metric named in `better` ("lower" or "higher" is better): each
    side's quartiles, the pairs each side won and the quartiles of the
    per-pair ratios change/parent (None when the parent read 0 in every
    pair; such a pair has no ratio).  `pairs` is a list of (parent
    metrics, change metrics), each {name: value}; a metric missing from
    either side of a pair is left out of that pair."""
    out = {}
    for name, way in better.items():
        both = [(p[name], c[name]) for p, c in pairs
                if name in p and name in c]
        if not both:
            continue
        sign = 1 if way == "lower" else -1
        ratios = [c / p for p, c in both if p]
        out[name] = {
            "pairs": len(both),
            "parent": quartiles([p for p, _ in both]),
            "change": quartiles([c for _, c in both]),
            "parent_wins": sum(sign * (p - c) < 0 for p, c in both),
            "change_wins": sum(sign * (c - p) < 0 for p, c in both),
            "ratio": quartiles(ratios) if ratios else None,
        }
    return out


def format_summary(summary):
    """One line per metric: median (quartiles) parent -> change, wins,
    and the median (quartiles) of the ratios change/parent."""
    lines = []
    for name, s in summary.items():
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        ratio = "n/a"
        if s["ratio"] is not None:
            r1, r2, r3 = s["ratio"]
            ratio = f"{r2:.4g} ({r1:.4g}-{r3:.4g})"
        lines.append(
            f"{name}: parent {p2:.4g} ({p1:.4g}-{p3:.4g}) -> change "
            f"{c2:.4g} ({c1:.4g}-{c3:.4g}); change better in "
            f"{s['change_wins']}/{s['pairs']}, parent better in "
            f"{s['parent_wins']}/{s['pairs']}; change/parent {ratio}")
    return lines


def path_length_warning(parent, change):
    """A warning when the two checkout paths differ in length, else None."""
    a, b = str(Path(parent).resolve()), str(Path(change).resolve())
    if len(a) == len(b):
        return None
    return (f"warning: checkout paths differ in length ({len(a)} and "
            f"{len(b)} characters); peak_rss_mb follows the path length")


def run_once(checkout, workload, seed, seconds):
    """One --trace 0 run from a checkout's root: (metrics, correct)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        cache = Path(checkout) / "src" / "hhkt" / "__pycache__"
        if cache.exists():
            print(f"error: {cache} exists; delete it so that both checkouts "
                  f"import from source", file=sys.stderr)
            return 2
    warning = path_length_warning(args.parent, args.change)
    if warning:
        print(warning, flush=True)
    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    pairs, correct_runs = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            metrics, correct = run_once(getattr(args, side), args.workload,
                                        seed, args.seconds)
            got[side] = metrics
            correct_runs.append(correct)
            print(f"pair {i} seed {seed} {side}: correct {correct} "
                  + " ".join(f"{k} {v:.4g}" for k, v in metrics.items()),
                  flush=True)
        pairs.append((got["parent"], got["change"]))
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, {args.seconds:g} s runs")
    for line in format_summary(summarize(pairs, better)):
        print(line)
    if warning:
        print(warning)
    return 0 if all(correct_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
