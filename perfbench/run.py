"""The hopfqexp benchmark: one client, a closed loop, one seeded job stream.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qexp-troute --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):

* ``qexp-troute``: the report commands ``qexp``, ``qexp --format json``,
  ``exponent``, ``s2-order`` and ``grouplikes`` on the preset zoo, the
  larger presets ``taft:6..8`` and ``uqb2:5,7``, and three seeded
  ``group:<table-file>`` groups.  Load sits on the T-route.
* ``double-check``: Drinfeld doubles of the presets of dimension <= 9,
  one of them of dimension 81: written to JSON, read back and validated,
  cross-checked through the regular route, verified quasitriangular, and
  the double of ``uqsl2:3`` with a check of the minimal polynomial of u.
* ``suite-small``: ``hopfqexp suite --max-dim 8``, all 22 items.

Each job runs in process, one after the other, with its output checked.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Lines before it give the same figures for a reader, with
sample counts, the 90th percentile where a run has enough jobs, the error
rate and the run metadata.  The exit code is 0 when every job gave the
right output, 1 when a job failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qexp-troute", "double-check", "suite-small")

#: fresh processes that each measure set-up once; the last one goes on to
#: the timed phase
SETUP_SAMPLES = 3
#: the run must end within 180 s
DEADLINE_S = 170.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def metadata(args) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "src_lines": src_lines()}


def spawn(args, setup_only: bool, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--reference", str(args.reference)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = max(1.0, deadline - time.monotonic())
    spawned_at = time.time()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at),
                                 "--deadline", repr(spawned_at + remaining)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="reference digests of job outputs")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hopfqexp" / "__init__.py").is_file():
        print(f"error: no hopfqexp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a traced run reports no set-up time, so it takes no extra samples
    n_samples = 1 if args.trace else SETUP_SAMPLES
    try:
        samples = [spawn(args, setup_only=i < n_samples - 1, deadline=deadline)
                   for i in range(n_samples)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    main_run = samples[-1]
    setup = [s["setup_s"] for s in samples]
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    calib = main_run["calib_s"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("meta " + json.dumps(metadata(args)))
    print("loop: closed, one client, one thread, jobs in process; there is no "
          "queue and no I/O wait, so no layer has waiting time")
    print(f"machine.calib_s  start {calib[0]:.5f}  end {calib[1]:.5f}")
    details = main_run["details"]
    if args.trace:
        metrics = dict(main_run["metrics"])
        metrics["machine.calib_s"] = (statistics.mean(calib), "s")
        print(f"one round of {details['jobs']} jobs: untraced {details['untraced_wall_s']:.3f} s; "
              f"{details['spanned_jobs']} traced in {details['traced_wall_s']:.3f} s; "
              f"{details['counted_jobs']} counted in {details['counted_wall_s']:.3f} s; "
              f"spans in {details['trace_file']}")
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   **main_run["metrics"],
                   "peak_rss_mb": (main_run["peak_rss_mb"], "MB")}
        p90 = details.get("job_s.p90")
        print(f"{details['jobs']} jobs in {details['timed_s']:.3f} s, "
              f"{details['rounds']} round(s)")
        print(f"setup samples {', '.join(f'{s:.4f}' for s in setup)}")
        print(f"job_s.p90  " + (f"{p90:.6f} s" if p90 is not None else "n/a")
              + f"  ({details['jobs']} samples; reported at 100 or more)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    print(f"error_rate {len(failures) / attempted:.6f}  ({len(failures)}/{attempted})")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
