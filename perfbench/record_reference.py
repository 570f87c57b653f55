"""Record the reference digests of every job drawn from the preset pools.

    python3 perfbench/record_reference.py

Run it on a commit whose outputs are known to be right; it rewrites
perfbench/reference.json.  The digests in the repository were recorded on
the library as first committed, before any change to its code.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for job in workloads.reference_jobs(workdir):
            value = job.fn()
            digests[job.key] = workloads.sha256(job.payload(value))
            # the exit code and every check that needs no stored digest
            err = job.check(value, digests)
            if err is not None:
                print(f"{job.key}: {err}", file=sys.stderr)
                return 1
            print(job.key, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
