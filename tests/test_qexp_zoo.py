"""scripts/qexp_zoo.py: the table it prints from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

from hopfqexp.presets import ZOO
from hopfqexp.qexp import quasi_exponent

ROOT = Path(__file__).resolve().parent.parent


def test_max_dim_4_prints_the_small_zoo(tmp_path, preset_cache):
    # run from outside the checkout with no PYTHONPATH: the script finds src/
    # itself, and skips the larger presets by name
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "qexp_zoo.py"), "--max-dim", "4"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    small = [name for name in ZOO if preset_cache(name).dim <= 4]
    assert len(small) == 8
    assert [row[0] for row in rows] == small
    for name, dim, qexp, exponent, s2, index in rows:
        rep = quasi_exponent(preset_cache(name))
        assert int(dim) == preset_cache(name).dim
        assert (int(qexp), exponent, int(s2), int(index)) == (
            rep.qexp, str(rep.exponent), rep.s2_order, rep.unipotency_index)
