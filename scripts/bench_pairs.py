"""Compare two checkouts on one benchmark workload with alternating pairs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload double-check \
        [--pairs 10] [--first-seed 1] [--json PATH]

PARENT and CHANGE are the roots of two checkouts of the repository.  Pair
i runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout with seed S = first-seed + i and T the
``run_seconds`` of ``BENCHMARK.json``, the parent first in even pairs and
the change first in odd ones, so that a drift of the host's speed over the
run falls on both sides alike.

It prints each side's failed jobs, git SHA and ``src_lines``, and then,
for every end-to-end metric of ``BENCHMARK.json`` (read from CHANGE),
each side's median and quartiles, the pairs the change won, the change
of the median relative to the parent's and the metric's bound, and
whether a gain can be claimed: the change wins at least 9 of 10 pairs
(the same share of any other count) and the medians differ by more than
the parent's interquartile range.  A run that exits non-zero (a job with
a wrong output, or a benchmark that cannot run) is reported and counted
as failed.  With ``--json PATH`` the same comparison is also written to
PATH: each metric's rows as printed, the seeds, each side's ``meta`` line
(git SHA, Python, nproc, ``src_lines``) and every run's metrics and
``machine.calib_s``.  Only the standard library is used.

Every run starts with ``PYTHONDONTWRITEBYTECODE=1`` and
``PYTHONPYCACHEPREFIX`` set to a fresh empty temporary directory, so
neither side reads or writes cached bytecode: a ``__pycache__`` left in one
checkout would otherwise spare that side the compilation at each worker
start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in the checkout at root: its result line and exit code."""
    with tempfile.TemporaryDirectory() as no_cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=no_cache)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = proc.returncode
    for line in lines:
        if line.startswith("meta "):
            result["meta"] = json.loads(line[len("meta "):])
        elif line.startswith("machine.calib_s  start "):
            result["calib_s"] = [float(x) for x in line.split()[2::2]]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metrics: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    """One row per end-to-end metric: each side's median and quartiles, the
    pairs the change won, the relative change of the median and the verdict."""
    rows = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            rows.append({"metric": name, "pairs": 0})
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = -rel if higher else rel  # positive: the change is worse
        rows.append({
            "metric": name, "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "pairs": len(pairs), "wins": wins,
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "relative_change": rel,
            "gain_claimable": wins * 10 >= 9 * len(pairs) and abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "worse_than_bound": worse > spec["bound"],
        })
    return rows


def summarize(rows: list[dict]) -> list[str]:
    out = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
           f"{'wins':>6} {'change':>8} {'bound':>6}  gain claimable"]
    for row in rows:
        name = row["metric"]
        if not row["pairs"]:
            out.append(f"{name:<12} no samples")
            continue
        p, c = row["parent"], row["change"]
        flag = "  WORSE THAN BOUND" if row["worse_than_bound"] else ""
        out.append(f"{name:<12} {p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]".ljust(47)
                   + f" {c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(35)
                   + f" {row['wins']:>2}/{row['pairs']:<3} {row['relative_change']:>+8.1%} "
                   + f"{row['bound']:>6}  {'yes' if row['gain_claimable'] else 'no'}{flag}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", type=Path, metavar="PATH",
                   help="also write the comparison and every run's figures here")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, spec["run_seconds"])
            runs[side].append(result)
            values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
            print(f"pair {i + 1} seed {seed} {side:<6} rc {result['returncode']} "
                  f"failed {result['failed']}/{result['attempted']} {json.dumps(values)}",
                  flush=True)

    print(f"\nworkload {args.workload}: {args.pairs} pairs, seeds {seeds[0]}.."
          f"{seeds[-1]}, {spec['run_seconds']} s each; 'change' is the "
          "relative change of the median, 'wins' the pairs where the change is better")
    totals = {side: {"failed": sum(r["failed"] for r in rs),
                     "attempted": sum(r["attempted"] for r in rs),
                     "nonzero_exits": sum(r["returncode"] != 0 for r in rs)}
              for side, rs in runs.items()}
    for side, t in totals.items():
        print(f"{side}: {t['failed']}/{t['attempted']} jobs failed, "
              f"{t['nonzero_exits']} run(s) exited non-zero")
    metas = {side: next((r["meta"] for r in rs if "meta" in r), None) for side, rs in runs.items()}
    for side, meta in metas.items():
        meta = meta or {}
        print(f"{side}: git {meta.get('git_sha', '?')}, src_lines {meta.get('src_lines', '?')}")
    rows = compare(spec["end_to_end"], runs)
    print("\n".join(summarize(rows)))
    if args.json:
        doc = {
            "workload": args.workload, "pairs": args.pairs, "seeds": seeds,
            "run_seconds": spec["run_seconds"],
            "first_in_pair": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
            "metrics": rows,
            "sides": {side: {
                "meta": metas[side],
                **totals[side],
                "runs": [{"seed": seed, "returncode": r["returncode"],
                          "calib_s": r.get("calib_s"),
                          "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                         for seed, r in zip(seeds, rs)],
            } for side, rs in runs.items()},
        }
        args.json.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all(r["returncode"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
