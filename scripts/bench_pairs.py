"""Compare two checkouts on one benchmark workload with alternating pairs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload double-check \
        [--pairs 10] [--first-seed 1]

PARENT and CHANGE are the roots of two checkouts of the repository.  Pair
i runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout with seed S = first-seed + i and T the
``run_seconds`` of ``BENCHMARK.json``, the parent first in even pairs and
the change first in odd ones, so that a drift of the host's speed over the
run falls on both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` (read from CHANGE) it
prints each side's median and quartiles, the pairs the change won, the
change of the median relative to the parent's and the metric's bound, and
whether a gain can be claimed: the change wins at least 9 of 10 pairs
(the same share of any other count) and the medians differ by more than
the parent's interquartile range.  A run that exits non-zero (a job with
a wrong output, or a benchmark that cannot run) is reported and counted
as failed.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in the checkout at root: its result line and exit code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    out = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
           f"{'wins':>6} {'change':>8} {'bound':>6}  gain claimable"]
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            out.append(f"{name:<12} no samples")
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = -rel if higher else rel  # positive: the change is worse
        claim = wins * 10 >= 9 * len(pairs) and abs(cq[1] - pq[1]) > pq[2] - pq[0]
        flag = "  WORSE THAN BOUND" if worse > spec["bound"] else ""
        out.append(f"{name:<12} {pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(47)
                   + f" {cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(35)
                   + f" {wins:>2}/{len(pairs):<3} {rel:>+8.1%} {spec['bound']:>6}"
                   + f"  {'yes' if claim else 'no'}{flag}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, spec["run_seconds"])
            runs[side].append(result)
            values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
            print(f"pair {i + 1} seed {seed} {side:<6} rc {result['returncode']} "
                  f"failed {result['failed']}/{result['attempted']} {json.dumps(values)}",
                  flush=True)

    print(f"\nworkload {args.workload}: {args.pairs} pairs, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {spec['run_seconds']} s each; 'change' is the "
          "relative change of the median, 'wins' the pairs where the change is better")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        bad = sum(r["returncode"] != 0 for r in runs[side])
        print(f"{side}: {failed}/{attempted} jobs failed, {bad} run(s) exited non-zero")
    print("\n".join(summarize(spec["end_to_end"], runs)))
    return 0 if all(r["returncode"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
