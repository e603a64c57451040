"""Alternating parent/change pairs of benchmark runs, summarized per metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload scale \
        --pairs 10 --seed 28000

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
in each of the two checkouts, the same seed on both sides; S is the
run_seconds of BENCHMARK.json.  The parent goes first in even pairs and the
change in odd ones, so a drift of the host's speed does not favour one side.
For every end-to-end metric it prints the value of each pair, each side's
median and quartiles, the number of pairs the change wins and a verdict; the
direction and bound of each metric are read from BENCHMARK.json.  Beside
each pair of peak_rss_mb it prints the operations the two runs attempted:
the harness keeps every pass, so the side that fits more passes reads more
memory.  Exit 1 as soon as a run is not correct, has a failed operation or
prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fewer pairs resolve nothing on a shared host: two byte-identical trees have
# read 5.7% apart over 3 pairs on a 2-vCPU machine.
MIN_PAIRS = 10


def quartiles(values) -> tuple:
    """(median, Q1, Q3) of a list of numbers; one value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarize(pairs, better: dict) -> dict:
    """Per metric of the first pair's parent run: its (parent, change) values
    in pair order, each side's (median, Q1, Q3), and the pairs the change
    wins, strictly, in the direction better[metric] ("lower" by default)."""
    summary = {}
    for name in pairs[0][0]:
        values = [(parent[name], change[name]) for parent, change in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        summary[name] = {
            "pairs": values,
            "parent": quartiles([p for p, _ in values]),
            "change": quartiles([c for _, c in values]),
            "wins": sum(sign * c < sign * p for p, c in values),
        }
    return summary


def verdict(s: dict, better: str, bound: float) -> str:
    """The reading of one metric's summary: "unresolved" below MIN_PAIRS
    pairs; "gain" when the change wins at least 9 pairs in 10 and its median
    beats the parent's by more than the parent's interquartile range;
    "unresolved" when that range is wider than bound, a fraction of the
    parent's median, and the two sides' runs overlap; "regression" when the
    change's median is worse than the parent's by more than bound; else
    "within bound"."""
    n = len(s["pairs"])
    if n < MIN_PAIRS:
        return "unresolved"
    sign = -1 if better == "higher" else 1
    (parent, q1, q3), change = s["parent"], s["change"][0]
    if 10 * s["wins"] >= 9 * n and sign * (parent - change) > q3 - q1:
        return "gain"
    parents, changes = zip(*s["pairs"])
    overlap = min(parents) <= max(changes) and min(changes) <= max(parents)
    if q3 - q1 > bound * abs(parent) and overlap:
        return "unresolved"
    if sign * (change - parent) > bound * abs(parent):
        return "regression"
    return "within bound"


def pair_line(i: int, parent: float, change: float, attempted=None) -> str:
    """The line of pair i of one metric; attempted, when given, is the
    (parent, change) count of operations the two runs attempted."""
    line = "  pair %2d  parent %.6g  change %.6g  %+.1f%%" % (
        i, parent, change, 100 * (change - parent) / parent if parent else 0.0)
    return line if attempted is None else line + "  attempted %d / %d" % attempted


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """({metric: value}, operations attempted) of one untraced run; exits on
    a run that is not sound."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("bench_pairs: no result from %s (exit %d)\n%s"
                 % (checkout, proc.returncode, proc.stderr[-2000:]))
    if proc.returncode or not result["correct"] or result["failed"]:
        sys.exit("bench_pairs: bad run in %s, seed %d: exit %d, correct %s, failed %s"
                 % (checkout, seed, proc.returncode, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}, result["attempted"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    pairs, attempted = [], []
    for i in range(args.pairs):
        runs = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            checkout = (args.parent, args.change)[side]
            runs[side] = run_once(checkout, args.workload, args.seed + i, bench["run_seconds"])
        pairs.append(tuple(metrics for metrics, _ in runs))
        attempted.append(tuple(n for _, n in runs))
        print("pair %d done (seed %d)" % (i, args.seed + i), file=sys.stderr)
    for name, s in summarize(pairs, better).items():
        print("%s (%s is better), %s" % (name, better.get(name, "lower"), args.workload))
        for i, (p, c) in enumerate(s["pairs"]):
            print(pair_line(i, p, c, attempted[i] if name == "peak_rss_mb" else None))
        for side in ("parent", "change"):
            print("  %s median %.6g  Q1-Q3 %.6g-%.6g" % ((side,) + s[side]))
        print("  change wins %d of %d pairs" % (s["wins"], len(s["pairs"])))
        if name in bounds:
            print("  verdict: %s" % verdict(s, better[name], bounds[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
