"""Alternating A/B pairs of the benchmark: a parent checkout against this one.

    python3 tools/ab_pairs.py --parent ../parent --workload box60 --seed 1 \\
        --seconds 30 --pairs 10 [--out pairs.json]

Run it from the repository root.  ``--parent`` is a second checkout of the
commit to compare against (``git worktree add ../parent HEAD~1``, or a
``git archive`` of it unpacked).  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` once in
each tree, one after the other, and the side that goes first alternates
from pair to pair, so a drift of the host's speed falls on both sides
alike.  The last stdout line of each run is the benchmark's JSON result.

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
medians and quartiles, how many pairs this tree won (higher or lower is
better as ``BENCHMARK.json`` says) and the verdict: a gain needs at least
nine wins in ten pairs and a median better by more than the parent's
interquartile range.  A run that is not ``correct`` stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in ``tree``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("no result from %s: %s" % (tree, proc.stderr.strip()[-500:]))
    return json.loads(lines[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3) of at least one value, by ``statistics.quantiles``'
    inclusive method, so that two runs have quartiles too."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, new, better: str) -> dict:
    """The comparison of one metric over paired runs: ``parent[k]`` and
    ``new[k]`` ran in pair k, ``better`` is "higher" or "lower".  A gain
    needs nine wins in ten (rounded up) and a median difference, in the
    better direction, larger than the parent's interquartile range."""
    if len(parent) != len(new) or not parent:
        raise ValueError("need as many runs on each side, at least one")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, new))
    (p1, pm, p3), (n1, nm, n3) = quartiles(parent), quartiles(new)
    gain = wins >= math.ceil(0.9 * len(parent)) and sign * (nm - pm) > p3 - p1
    return {
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "new_median": nm, "new_q1": n1, "new_q3": n3,
        "change": nm / pm - 1 if pm else math.nan,
        "wins": wins, "pairs": len(parent), "gain": gain,
    }


def report_lines(results: dict, metrics) -> list:
    """One line per metric of ``results`` (name -> ``summarize``'s dict)."""
    lines = ["%-14s %12s %23s %12s %23s %8s %6s  %s" % (
        "metric", "parent p50", "parent q1..q3", "new p50", "new q1..q3", "change", "wins", "verdict")]
    for name in metrics:
        s = results[name]
        lines.append("%-14s %12.4g %11.4g..%-10.4g %12.4g %11.4g..%-10.4g %+7.1f%% %3d/%-2d  %s" % (
            name, s["parent_median"], s["parent_q1"], s["parent_q3"], s["new_median"], s["new_q1"],
            s["new_q3"], 100 * s["change"], s["wins"], s["pairs"], "gain" if s["gain"] else "no gain"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the commit to compare against")
    parser.add_argument("--workload", default="box60")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in end_to_end}
    runs = {"parent": [], "new": []}
    for k in range(args.pairs):
        order = [("parent", args.parent), ("new", ROOT)]
        for side, tree in order if k % 2 == 0 else order[::-1]:
            result = run_once(tree, args.workload, args.seed, args.seconds)
            if not result.get("correct"):
                print("pair %d: the %s run is not correct: %s" % (k + 1, side, result), file=sys.stderr)
                return 1
            runs[side].append({name: result["metrics"][name]["value"] for name in better})
        print("pair %d/%d: %s" % (k + 1, args.pairs, "  ".join(
            "%s %.4g/%.4g" % (name, runs["parent"][-1][name], runs["new"][-1][name]) for name in better)),
            file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    results = {name: summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["new"]], way)
               for name, way in better.items()}
    print("%s, seed %d, %d pairs of %g s runs (parent/new)" % (args.workload, args.seed, args.pairs, args.seconds))
    print("\n".join(report_lines(results, better)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
