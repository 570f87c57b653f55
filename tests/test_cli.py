"""Command-line interface: exit codes, formats, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfqexp
from hopfqexp import cli as cli_module
from hopfqexp import qexp as qexp_module
from hopfqexp.cli import main
from hopfqexp.io import algebra_to_dict, dumps, twist_to_dict, write_algebra
from hopfqexp.linalg import ExactMatrix
from hopfqexp.presets import get_preset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_preset(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "sweedler")
    assert code == 0
    assert "valid" in out


def test_validate_broken_file_exit_2(capsys, tmp_path):
    H = get_preset("sweedler")
    path = tmp_path / "broken.json"
    write_algebra(H, path)
    doc = json.loads(path.read_text())
    doc["comult"][0][3] = ["2"]
    path.write_text(dumps(doc))
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 2
    assert "INVALID" in out  # the named axiom is in the report


def test_unknown_preset_exit_2(capsys):
    code, _, err = run(capsys, "qexp", "--preset", "nonsense:7")
    assert code == 2
    assert "error" in err


def test_qexp_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "qexp", "--preset", "taft:3",
                         "--format", "json")
    code2, out2, _ = run(capsys, "qexp", "--preset", "taft:3",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["schema"] == "hopf-qexp/1"
    assert doc["qexp"] == 3


def test_qexp_cross_check_flag(capsys):
    code, out, _ = run(capsys, "qexp", "--preset", "sweedler",
                       "--cross-check")
    assert code == 0
    assert "cross-checked" in out


def test_cross_check_past_envelope_exit_2(capsys, monkeypatch):
    # D(taft:9) has dimension 6561 > 4096: refused before any route runs
    def refuse(H):
        raise AssertionError("a route ran")

    monkeypatch.setattr(qexp_module, "u_min_poly_via_t", refuse)
    code, out, err = run(capsys, "qexp", "--preset", "taft:9", "--cross-check")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "envelope 4096" in err


def test_out_of_memory_exit_2(capsys, monkeypatch):
    # a double too large for the address space fails while its document is built
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_module, "algebra_chunks", exhaust)
    code, out, err = run(capsys, "double", "--preset", "sweedler", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory") and "Traceback" not in err


@pytest.mark.parametrize("error", [MemoryError, OSError])
def test_failed_out_leaves_no_truncated_file(capsys, monkeypatch, tmp_path, error):
    # the writer fails after its first chunk: an earlier --out file stays as
    # it was, a new one is never made, and no temporary file is left
    real = cli_module.algebra_chunks

    def fail_after_first(*args, **kwargs):
        yield next(real(*args, **kwargs))
        raise error("disk full")

    monkeypatch.setattr(cli_module, "algebra_chunks", fail_after_first)
    earlier, fresh = tmp_path / "earlier.json", tmp_path / "fresh.json"
    earlier.write_text("earlier document\n")
    for path in (earlier, fresh):
        code, out, err = run(capsys, "preset", "--preset", "sweedler",
                             "--format", "json", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
    assert earlier.read_text() == "earlier document\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["earlier.json"]


def test_out_replaces_a_file_whole(capsys, tmp_path):
    # a new file gets the mode open() would give it; an old one keeps its mode
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("x" * 10_000)
    old.chmod(0o640)
    for path in (new, old):
        assert run(capsys, "preset", "--preset", "sweedler", "--format", "json",
                   "--out", str(path))[0] == 0
        assert path.read_text() == dumps(algebra_to_dict(get_preset("sweedler")))
    umask = os.umask(0)
    os.umask(umask)
    assert new.stat().st_mode & 0o777 == 0o666 & ~umask
    assert old.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.json"]


def test_out_to_a_device_is_written_in_place(capsys):
    code, out, _ = run(capsys, "preset", "--preset", "sweedler", "--format", "json",
                       "--out", os.devnull)
    assert code == 0 and out == ""
    assert not Path(os.devnull).is_file()


def test_out_into_a_missing_directory_names_the_path(capsys, tmp_path):
    path = tmp_path / "missing" / "d.json"
    code, _, err = run(capsys, "preset", "--preset", "sweedler", "--format", "json",
                       "--out", str(path))
    assert code == 2
    assert err.startswith("error:") and f"'{path}'" in err


def test_preset_document_streams_in_bounded_memory(tmp_path):
    # the 108 MB document of uqsl2:5 is written row by row; the child
    # reports its own peak RSS (ru_maxrss is in KB on Linux)
    src = str(Path(hopfqexp.__file__).resolve().parent.parent)
    path = tmp_path / "uqsl2_5.json"
    script = (
        "import resource, sys\n"
        "from hopfqexp.cli import main\n"
        f"code = main(['preset', '--preset', 'uqsl2:5', '--format', 'json', '--out', {str(path)!r}])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    code, peak_kb = map(int, proc.stdout.split())
    size = path.stat().st_size
    path.unlink()  # 108 MB that the kept temporary directories need not hold
    assert code == 0
    assert size > 100_000_000
    assert peak_kb < 100 * 1024


def test_exponent_infinite(capsys):
    code, out, _ = run(capsys, "exponent", "--preset", "sweedler")
    assert code == 0
    assert "infinite" in out


def test_exponent_finite(capsys):
    code, out, _ = run(capsys, "exponent", "--preset", "group:builtin:Z6",
                       "--format", "json")
    assert json.loads(out)["exponent"] == 6


def test_bound_flag_exhaustion_exit_1(capsys):
    code, _, err = run(capsys, "qexp", "--preset", "group:builtin:Z6",
                       "--bound", "4")
    assert code == 1
    assert "not found" in err


def test_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("HOPFQEXP_BOUND", "4")
    code, _, err = run(capsys, "qexp", "--preset", "group:builtin:Z6")
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize("argv,env", [
    (["--bound", "-5"], None),
    (["--bound", "0"], None),
    ([], "abc"),
])
def test_bad_bound_exit_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("HOPFQEXP_BOUND", env)
    code, out, err = run(capsys, "qexp", "--preset", "group:builtin:Z6", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "positive integer" in err


def test_s2_order(capsys):
    code, out, _ = run(capsys, "s2-order", "--preset", "taft:4")
    assert code == 0 and "4" in out


def test_grouplikes(capsys):
    code, out, _ = run(capsys, "grouplikes", "--preset", "group:builtin:S3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6 and doc["exponent"] == 6


def test_double_emits_r_matrix(capsys):
    code, out, _ = run(capsys, "double", "--preset", "group:builtin:Z2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert "r_matrix" in doc


def test_double_text_builds_no_document(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text output must not build the JSON document")

    monkeypatch.setattr("hopfqexp.cli.algebra_chunks", refuse)
    code, out, _ = run(capsys, "double", "--preset", "taft:3")
    assert code == 0
    assert out == ("D(Taft(3)): dim 81, conductor 3; "
                   "use --format json for the full data\n")


def test_double_output_round_trips(capsys, tmp_path):
    out_path = tmp_path / "double.json"
    code, _, _ = run(capsys, "double", "--preset", "sweedler",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", "--in", str(out_path))
    assert code == 0


def _write_twist(tmp_path, twists, corrupt=False):
    doc = twist_to_dict(twists["bicharacter C[Z2xZ2]"])
    if corrupt:
        # swap a cocycle-relevant coefficient: stays invertible, not a twist
        doc["J"][0][1], doc["J"][1][2] = doc["J"][1][2], doc["J"][0][1]
        del doc["J_inv"]
    path = tmp_path / "twist.json"
    path.write_text(dumps(doc))
    return path


def test_twist_check_ok(capsys, tmp_path, suite_twists):
    path = _write_twist(tmp_path, suite_twists)
    code, out, _ = run(capsys, "twist-check", "--twist", str(path))
    assert code == 0
    assert "valid twist" in out


def test_twist_check_failure_exit_1(capsys, tmp_path, suite_twists):
    path = _write_twist(tmp_path, suite_twists, corrupt=True)
    code, out, _ = run(capsys, "twist-check", "--twist", str(path))
    assert code == 1
    assert "NOT a twist" in out


def test_twist_apply_failure_exit_1(capsys, tmp_path, suite_twists):
    path = _write_twist(tmp_path, suite_twists, corrupt=True)
    code, _, err = run(capsys, "twist-apply", "--twist", str(path))
    assert code == 1
    assert "cannot apply" in err


def _singular_twist_file(tmp_path) -> Path:
    # J = x (x) x on Sweedler has J^2 = 0: c_0 = 0 in its minimal polynomial
    rows = [[["1"] if (i, j) == (1, 1) else ["0"] for j in range(4)] for i in range(4)]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"algebra": "sweedler", "J": rows}))
    return path


def test_singular_twist_exit_1(capsys, tmp_path):
    path = _singular_twist_file(tmp_path)
    code, out, _ = run(capsys, "twist-check", "--twist", str(path))
    assert code == 1
    assert "  J is not invertible in H (x) H\n" in out
    code, out, err = run(capsys, "twist-apply", "--twist", str(path))
    assert (code, out) == (1, "")
    assert "  J is not invertible in H (x) H\n" in err


@pytest.mark.parametrize("command", ["twist-check", "twist-apply"])
def test_singular_twist_is_inverted_once(command, capsys, tmp_path, monkeypatch):
    # the reader's failed inverse is the verdict; is_twist does not search again
    from hopfqexp import io as io_module
    from hopfqexp import twist as twist_module

    calls = []

    def counted(a):
        calls.append(a)
        return hopfqexp.hopf.element_inverse(a)

    for module in (io_module, twist_module):
        monkeypatch.setattr(module, "element_inverse", counted)
    code, out, err = run(capsys, command, "--twist", str(_singular_twist_file(tmp_path)))
    assert code == 1
    assert "  J is not invertible in H (x) H\n" in out + err
    assert len(calls) == 1


def test_twist_apply(capsys, tmp_path, suite_twists):
    path = _write_twist(tmp_path, suite_twists)
    code, out, _ = run(capsys, "twist-apply", "--twist", str(path),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4


def test_no_command_forms_a_dense_matrix(capsys, tmp_path, monkeypatch, suite_twists):
    # the same exit codes and output with ExactMatrix made unconstructible
    twist = _write_twist(tmp_path, suite_twists)
    doc = json.loads(twist.read_text())
    del doc["J_inv"]
    no_inv = tmp_path / "twist_no_inv.json"
    no_inv.write_text(dumps(doc))
    double = tmp_path / "double.json"
    commands = [
        ["suite", "--max-dim", "8"],
        ["double", "--preset", "taft:3", "--format", "json", "--out", str(double)],
        ["validate", "--in", str(double)],
        ["qexp", "--cross-check", "--preset", "sweedler"],
    ] + [[command, "--twist", str(path)] for path in (twist, no_inv)
         for command in ("twist-check", "twist-apply")]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a command formed an ExactMatrix")

    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "__init__", refuse)
        refused = [run(capsys, *argv) for argv in commands]
    assert refused == [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in refused] == [0] * len(commands)


def _identity_j(n=4):
    return [[["1"] if i == j else ["0"] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("command", ["twist-check", "twist-apply"])
@pytest.mark.parametrize("payload", [
    {"algebra": "nosuch", "J": []},
    {"algebra": "taft:1000", "J": []},
    {"algebra": 5, "J": []},
    [{"algebra": "sweedler", "J": _identity_j()}],
    {"algebra": "sweedler", "J": 3},
    {"algebra": "sweedler", "J": _identity_j()[:3] + [[["0"]]]},
    {"algebra": "sweedler", "J": [[None] + row[1:] for row in _identity_j()]},
    {"algebra": "sweedler", "J": _identity_j(), "J_inv": 3},
    {"algebra": "sweedler", "J": [[["1/0"]] + row[1:] for row in _identity_j()]},
    {"algebra": "sweedler", "J": [["1"] + row[1:] for row in _identity_j()]},
    {"algebra": "sweedler", "J": [[[1.0]] + row[1:] for row in _identity_j()]},
    {"algebra": "sweedler", "J": [[[True]] + row[1:] for row in _identity_j()]},
    {"algebra": {**algebra_to_dict(get_preset("sweedler")), "dim": 4.7}, "J": _identity_j()},
], ids=["unknown-preset", "oversize-preset", "algebra-number", "top-level-list",
        "J-number", "ragged-J", "null-entry", "J_inv-number", "zero-denominator",
        "bare-string", "float-coordinate", "bool-coordinate", "float-dim"])
def test_malformed_twist_file_exit_2(capsys, tmp_path, command, payload):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, "--twist", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_preset_list_and_emit(capsys):
    code, out, _ = run(capsys, "preset")
    assert code == 0 and "taft:3" in out
    code, out, _ = run(capsys, "preset", "--preset", "taft:3",
                       "--format", "json")
    assert json.loads(out)["dim"] == 9


def test_suite_small(capsys):
    code, out, _ = run(capsys, "suite", "--max-dim", "4")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bad_max_dim_exit_2(capsys, value):
    code, out, err = run(capsys, "suite", "--max-dim", value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "positive integer" in err


def test_suite_json_shape(capsys):
    code, out, _ = run(capsys, "suite", "--max-dim", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "suite-report"
    assert doc["passed"] is True
    assert all("label" in item for item in doc["items"])


def test_missing_source_exit_2(capsys):
    code, _, err = run(capsys, "qexp")
    assert code == 2
    assert "preset" in err


@pytest.mark.parametrize("name", ["taft:1000", "uqsl2:11", "tensor:taft:20,taft:20"])
def test_preset_over_size_limit_exit_2(capsys, name):
    code, out, err = run(capsys, "qexp", "--preset", name)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the limit 512" in err


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["mult"].append([7, 0, doc["mult"][0][2]]),
    lambda doc: doc["mult"][0][2].append(["0"]),
    lambda doc: doc["comult"].append([0, 9, 0, ["1"]]),
    lambda doc: doc["comult"].append([-1, 0, 0, ["1"]]),
    lambda doc: doc["unit"].__setitem__(0, ["1/0"]),
    lambda doc: doc["unit"].__setitem__(0, "1"),
    lambda doc: doc["unit"].__setitem__(0, [1.0]),
    lambda doc: doc["unit"].__setitem__(0, [True]),
    lambda doc: doc.update(dim=4.7),
    lambda doc: doc.update(dim=10 ** 12),
    lambda doc: doc.update(conductor=2 ** 61 - 1),
    lambda doc: doc["antipode"][0].pop(),
    lambda doc: doc["antipode"].append(list(doc["antipode"][0])),
    lambda doc: doc["antipode"].__setitem__(0, 5),
    lambda doc: doc.update(name=None),
    lambda doc: doc["basis_labels"].__setitem__(0, ["1"]),
    lambda doc: doc.update(basis_labels={label: 0 for label in doc["basis_labels"]}),
], ids=["mult-key", "mult-coordinate", "comult-pair", "comult-index", "zero-denominator",
        "bare-string", "float-coordinate", "bool-coordinate", "float-dim", "huge-dim",
        "huge-conductor", "ragged-antipode-row", "extra-antipode-row", "non-list-antipode-row",
        "null-name", "list-label", "dict-labels"])
def test_out_of_range_index_exit_2(capsys, tmp_path, corrupt):
    path = tmp_path / "bad.json"
    write_algebra(get_preset("sweedler"), path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(dumps(doc))
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("payload", ['{"foo": 1}', '{"table": 3}', '[[0, 1], [1, 5]]',
                                     '{"table": [[0]], "labels": 5}', '[[0, 1.0], [1.0, 0]]',
                                     '[[0, true], [true, 0]]', '{"table": [[0]], "name": null}',
                                     '{"table": [[0]], "name": ["G"]}',
                                     '{"table": [[0, 1], [1, 0]], "labels": [null, null]}',
                                     '{"table": [[0, 1], [1, 0]], "labels": ["a", ["b"]]}',
                                     '{"table": [[0]], "labels": null}'])
def test_malformed_group_file_exit_2(capsys, tmp_path, payload):
    path = tmp_path / "group.json"
    path.write_text(payload)
    code, out, err = run(capsys, "preset", "--preset", f"group:{path}")
    if payload.endswith('"labels": null}'):  # null labels mean the default ones
        assert code == 0 and out.startswith("C[G]: dim 1")
        return
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


_SCALARS = st.sampled_from(["0", "1", "-1", "1/2", "1/0", 2, None])
_REPLACEMENTS = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.text(max_size=4), st.just("1/0"), st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text("ab0", max_size=4), _SCALARS | st.lists(_SCALARS, max_size=3),
                    max_size=4))


def _replacements(node):
    """_REPLACEMENTS, and for a list of n items also an object of n keys of
    length n, which has every length that a shape check on the list, or on
    a list of such lists, reads."""
    if not isinstance(node, list) or not node:
        return _REPLACEMENTS
    n = len(node)
    return _REPLACEMENTS | st.dictionaries(st.text("ab", min_size=n, max_size=n), _SCALARS,
                                           min_size=n, max_size=n)


def _mutate(data, doc):
    """A copy of doc with one random subtree replaced, or one key dropped."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 6))):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return data.draw(_REPLACEMENTS)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_replacements(node))
    return doc


def _run_captured(argv):
    """main(argv) in process, with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_crash(tmp_path_factory, suite_twists, data):
    algebra = algebra_to_dict(get_preset("sweedler"))
    twist = twist_to_dict(suite_twists["bicharacter C[Z2xZ2]"])
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    command = data.draw(st.sampled_from(["validate", "twist-check", "twist-apply"]))
    if command == "validate":
        path.write_text(json.dumps(_mutate(data, algebra)))
        argv = ["validate", "--in", str(path)]
    else:
        path.write_text(json.dumps(_mutate(data, twist)))
        argv = [command, "--twist", str(path)]
    code, out, err = _run_captured(argv)
    assert code in (0, 1, 2)
    if code == 2 and "INVALID" not in out:  # validate reports a parsed algebra's violations
        assert out == ""
        assert err.startswith("error:")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_group_files_never_crash(tmp_path_factory, data):
    group = {"table": [[(a + b) % 3 for b in range(3)] for a in range(3)],
             "labels": ["e", "a", "a2"], "name": "Z3"}
    path = tmp_path_factory.mktemp("fuzz") / "group.json"
    path.write_text(json.dumps(_mutate(data, group)))
    command = data.draw(st.sampled_from(["preset", "validate", "qexp", "grouplikes"]))
    code, out, err = _run_captured([command, "--preset", f"group:{path}"])
    assert code in (0, 1, 2)
    spec = json.loads(path.read_text())
    if code != 2 and isinstance(spec, dict):  # accepted: every field well typed
        assert isinstance(spec.get("name", ""), str)
        assert spec.get("labels") is None or all(isinstance(x, str) for x in spec["labels"])
    if code == 2:
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["preset", "--preset", "uqsl2:3", "--format", "json"],
    ["qexp", "--preset", "taft:4", "--format", "json"],
    ["double", "--preset", "taft:3", "--format", "json"],
])
def test_stdout_independent_of_hash_seed(argv):
    src = str(Path(hopfqexp.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "hopfqexp.cli", *argv],
                              env=env, capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]
