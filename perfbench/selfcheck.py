"""Self-check of the benchmark's correctness gate.

    python3 perfbench/selfcheck.py

1. A smoke pass (one round, ``--seconds 1``) of every workload on a small
   seed must end with exit code 0 and no failed job.
2. The same pass of ``qexp-troute`` against a copy of reference.json with
   one digest corrupted must count exactly that job as failed, report
   ``correct: false`` and exit non-zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
CORRUPTED_KEY = "exponent --preset taft:5"


def bench(workload: str, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in ("qexp-troute", "double-check", "suite-small"):
        rc, result = bench(workload)
        passed = rc == 0 and result["failed"] == 0 and result["correct"]
        ok &= passed
        print(f"smoke {workload}: exit {rc}, error_rate "
              f"{result['failed']}/{result['attempted']} -> {'ok' if passed else 'FAIL'}")

    workdir = ROOT / ".bench_work" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = json.loads((HERE / "reference.json").read_text())
        reference[CORRUPTED_KEY] = "0" * 64
        corrupted = workdir / "reference.json"
        corrupted.write_text(json.dumps(reference))
        rc, result = bench("qexp-troute", "--reference", str(corrupted))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    caught = rc != 0 and result["failed"] == 1 and not result["correct"]
    ok &= caught
    print(f"corrupted digest of {CORRUPTED_KEY!r}: exit {rc}, error_rate "
          f"{result['failed']}/{result['attempted']} -> {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
