#!/usr/bin/env python3
"""Print a digest line for each command of a fixed list of CLI commands.

Usage, from anywhere:

    python3 scripts/cli_digests.py > digests.txt

Each command runs in process, through ``hopfqexp.cli.main`` of the
checkout that holds this script, and prints one line

    sha256(output) sha256(stderr) exit argv

where output is what the command wrote to stdout, or to its ``--out``
file when it has one.  The list takes no input: ``suite`` (plain,
``--max-dim 8`` and ``--format json``); ``qexp``, ``exponent``,
``grouplikes`` and ``s2-order`` in text and json on the preset zoo,
taft:6..8 and uqb2:5,7; ``qexp --cross-check`` in text and json on the
zoo; ``double --format json --out`` on four small presets, each followed
by ``validate --in`` on the file it wrote; and ``twist-check`` and
``twist-apply`` in text and json on the seven twists of the theorem
suite, each written by ``io.twist_to_dict`` once with and once without
its ``J_inv`` (`write_twists`); and ``validate --in`` in text and json on
two corrupted double documents (`write_corrupted_doubles`), whose
violations name the first witnesses of associativity and of the
multiplicativity of Delta.  The files go to a temporary directory,
written ``$TMP`` in argv, so two checkouts print identical lines exactly
when every command gives the same bytes and exit code; compare them with
``diff``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hopfqexp.cli import main as cli_main  # noqa: E402
from hopfqexp.double import drinfeld_double  # noqa: E402
from hopfqexp.io import algebra_to_dict, dumps, twist_to_dict  # noqa: E402
from hopfqexp.presets import ZOO, get_preset  # noqa: E402
from hopfqexp.suite import _Context  # noqa: E402

REPORT_PRESETS = ZOO + ["taft:6", "taft:7", "taft:8", "uqb2:5", "uqb2:7"]
DOUBLE_PRESETS = ["sweedler", "group:builtin:S3", "taft:3", "uqb2:3"]
#: the twists of the theorem suite, in its order
TWIST_COUNT = 7
#: (preset, table, entry) of each corrupted double document: the entry of
#: D(preset)'s "comult" or "mult" list whose first nonzero scalar is doubled
CORRUPTED_DOUBLES = [("taft:2", "comult", 5), ("group:builtin:S3", "mult", -1)]


def twist_files() -> list[str]:
    """The twist files of `write_twists`, with ``$TMP`` for the directory."""
    return [f"$TMP/twist-{i}{suffix}.json"
            for i in range(TWIST_COUNT) for suffix in ("", "-no-inverse")]


def write_twists(tmp: str) -> None:
    """Write each suite twist to tmp, once with its J_inv and once without."""
    twists = _Context(deep=False, max_dim=None).twists()
    if len(twists) != TWIST_COUNT:
        raise SystemExit(f"the suite has {len(twists)} twists, not {TWIST_COUNT}")
    paths = iter(twist_files())
    for _, tw, _ in twists:
        doc = twist_to_dict(tw)
        for body in (doc, {k: v for k, v in doc.items() if k != "J_inv"}):
            Path(next(paths).replace("$TMP", tmp)).write_text(dumps(body))


def corrupted_files() -> list[str]:
    """The documents of `write_corrupted_doubles`, with ``$TMP`` for the directory."""
    return [f"$TMP/corrupt-D-{name.replace(':', '_')}-{table}.json"
            for name, table, _ in CORRUPTED_DOUBLES]


def write_corrupted_doubles(tmp: str) -> None:
    """Write each double of CORRUPTED_DOUBLES to tmp with its one entry doubled."""
    for (name, table, entry), path in zip(CORRUPTED_DOUBLES, corrupted_files()):
        qt = drinfeld_double(get_preset(name))
        doc = algebra_to_dict(qt.algebra, r_matrix=qt.R)
        row = doc[table][entry]
        # a comult entry is [k, i, j, scalar], a mult entry [i, j, dense row]
        scalars = [row[3]] if table == "comult" else row[2]
        scalar = next(c for c in scalars if c != ["0"])
        scalar[:] = [str(2 * Fraction(x)) for x in scalar]
        Path(path.replace("$TMP", tmp)).write_text(dumps(doc))


def commands() -> list[list[str]]:
    """The fixed command list; ``$TMP`` stands for the temporary directory."""
    out = [["suite"], ["suite", "--max-dim", "8"], ["suite", "--format", "json"]]
    for name in REPORT_PRESETS:
        for command in ("qexp", "exponent", "grouplikes", "s2-order"):
            for fmt in ("text", "json"):
                out.append([command, "--preset", name, "--format", fmt])
    for name in ZOO:
        for fmt in ("text", "json"):
            out.append(["qexp", "--cross-check", "--preset", name, "--format", fmt])
    for name in DOUBLE_PRESETS:
        path = f"$TMP/double-{name.replace(':', '_')}.json"
        out.append(["double", "--preset", name, "--format", "json", "--out", path])
        out.append(["validate", "--in", path])
    for path in twist_files():
        for command in ("twist-check", "twist-apply"):
            for fmt in ("text", "json"):
                out.append([command, "--twist", path, "--format", fmt])
    for path in corrupted_files():
        for fmt in ("text", "json"):
            out.append(["validate", "--in", path, "--format", fmt])
    return out


def digest_line(argv: list[str], tmp: str) -> str:
    """Run one command in process and describe its output, stderr and exit code."""
    real = [a.replace("$TMP", tmp) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(real)
    output = stdout.getvalue()
    if "--out" in real:
        output += Path(real[real.index("--out") + 1]).read_text()
    return " ".join([sha256(output.encode()).hexdigest(),
                     sha256(stderr.getvalue().encode()).hexdigest(),
                     str(code), *argv])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_twists(tmp)
        write_corrupted_doubles(tmp)
        for command in commands():
            print(digest_line(command, tmp), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
