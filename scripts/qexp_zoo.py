#!/usr/bin/env python3
"""Tabulate the quasi-exponent report for every preset in the zoo.

Usage, from anywhere:
    python3 scripts/qexp_zoo.py [--max-dim N]

It runs the checkout that holds this script.  With --max-dim, presets
above N are skipped by their dimension, without being built.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hopfqexp.presets import ZOO, _dimension, get_preset, parse_preset_name  # noqa: E402
from hopfqexp.qexp import quasi_exponent  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=None)
    args = parser.parse_args()

    header = f"{'preset':<36} {'dim':>4} {'qexp':>5} {'exponent':>9} " \
             f"{'s2':>3} {'index':>6}"
    print(header)
    print("-" * len(header))
    for name in ZOO:
        if args.max_dim is not None and _dimension(parse_preset_name(name)) > args.max_dim:
            continue
        H = get_preset(name)
        rep = quasi_exponent(H)
        print(f"{name:<36} {H.dim:>4} {rep.qexp:>5} {rep.exponent!s:>9} "
              f"{rep.s2_order:>3} {rep.unipotency_index:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
