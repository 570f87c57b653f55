"""scripts/cli_digests.py: the digest line it prints for a command."""

import importlib.util
import json
from hashlib import sha256
from pathlib import Path

from hopfqexp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "scripts" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def test_digest_lines_of_two_commands(tmp_path, capsys):
    digests = _load_script()
    assert ["suite"] in digests.commands()

    argv = ["qexp", "--preset", "sweedler", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    line = digests.digest_line(argv, str(tmp_path))
    assert line == " ".join([_digest(expected), _digest(""), "0", *argv])

    # with --out, the file is the output, and argv keeps the $TMP placeholder
    argv = ["double", "--preset", "sweedler", "--format", "json", "--out", "$TMP/d.json"]
    line = digests.digest_line(argv, str(tmp_path))
    written = (tmp_path / "d.json").read_text()
    assert written.startswith("{")
    assert line == " ".join([_digest(written), _digest(""), "0", *argv])
    assert capsys.readouterr().out == ""


def test_twist_files_with_and_without_inverse(tmp_path, capsys):
    digests = _load_script()
    commands = digests.commands()
    assert ["s2-order", "--preset", "uqb2:7", "--format", "json"] in commands
    assert ["grouplikes", "--preset", "taft:8", "--format", "text"] in commands

    digests.write_twists(str(tmp_path))
    files = digests.twist_files()
    assert len(files) == 2 * digests.TWIST_COUNT
    docs = [json.loads(Path(f.replace("$TMP", str(tmp_path))).read_text()) for f in files]
    for with_inverse, without in zip(docs[::2], docs[1::2]):
        assert "J_inv" not in without
        assert {k: v for k, v in with_inverse.items() if k != "J_inv"} == without

    argv = ["twist-check", "--twist", files[1], "--format", "json"]
    assert argv in commands
    line = digests.digest_line(argv, str(tmp_path))
    assert main([a.replace("$TMP", str(tmp_path)) for a in argv]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["is_twist"] is True
    assert line == " ".join([_digest(expected), _digest(""), "0", *argv])


def test_corrupted_doubles_name_their_witnesses(tmp_path, capsys):
    digests = _load_script()
    digests.write_corrupted_doubles(str(tmp_path))
    outputs = []
    for path in digests.corrupted_files():
        argv = ["validate", "--in", path, "--format", "text"]
        assert argv in digests.commands()
        assert main([a.replace("$TMP", str(tmp_path)) for a in argv]) == 2
        outputs.append(capsys.readouterr().out)
    # D(taft:2) with a comult scalar doubled, D(C[S3]) with a mult scalar doubled
    assert "  comultiplication is not multiplicative at (1,9)\n" in outputs[0]
    assert "  associativity fails at basis (8,35,35)\n" in outputs[1]
    assert "  comultiplication is not multiplicative at (5,5)\n" in outputs[1]


def test_conjugated_documents_name_their_witnesses(tmp_path, capsys):
    digests = _load_script()
    digests.write_conjugated(str(tmp_path))
    outputs = []
    for path in digests.conjugated_files():
        argv = ["validate", "--in", path, "--format", "text"]
        assert argv in digests.commands()
        assert main([a.replace("$TMP", str(tmp_path)) for a in argv]) == 2
        outputs.append(capsys.readouterr().out)
    # taft:3 with J = 1 (x) 1 + x (x) x, Sweedler with J = 1 (x) 1 + x (x) g
    assert outputs[0] == ("Taft(3): INVALID\n  coassociativity fails at basis 1\n"
                          "  antipode axiom fails at basis 3\n")
    assert outputs[1] == ("Sweedler: INVALID\n  coassociativity fails at basis 1\n"
                          "  counit axiom fails at basis 2\n  antipode axiom fails at basis 2\n")
