"""Serialization: bit-exact round trips and schema rejection."""

import json

import pytest
from helpers import same_structure

from hopfqexp.hopf import TensorElement
from hopfqexp.io import (
    SCHEMA,
    SchemaError,
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    read_algebra,
    read_twist,
    twist_from_dict,
    twist_to_dict,
    write_algebra,
)

ROUND_TRIP = ["sweedler", "uqb2:3", "dualgroup:builtin:Z3", "taft:3",
              "group:builtin:S3"]


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_algebra_round_trip_bit_exact(name, preset_cache, tmp_path):
    H = preset_cache(name)
    path = tmp_path / "algebra.json"
    write_algebra(H, path)
    H2 = read_algebra(path)
    assert same_structure(H2, H)
    # serializing again yields byte-identical output
    assert dumps(algebra_to_dict(H2)) == path.read_text()


def test_schema_field_required(preset_cache):
    doc = algebra_to_dict(preset_cache("sweedler"))
    doc["schema"] = "hopf-qexp/999"
    with pytest.raises(SchemaError, match="schema"):
        algebra_from_dict(doc)


def test_missing_field_rejected(preset_cache):
    doc = algebra_to_dict(preset_cache("sweedler"))
    del doc["antipode"]
    with pytest.raises(SchemaError, match="antipode"):
        algebra_from_dict(doc)


def test_tampered_comult_rejected_with_named_axiom(preset_cache):
    doc = json.loads(dumps(algebra_to_dict(preset_cache("sweedler"))))
    doc["comult"][0][3] = ["2"]  # break a coproduct coefficient
    with pytest.raises(SchemaError, match="axiom"):
        algebra_from_dict(doc)


def test_tampered_grouplike_rejected(preset_cache):
    doc = algebra_to_dict(preset_cache("group:builtin:Z2"))
    doc["grouplikes"] = [[["1"], ["1"]]]  # 1 + g is not grouplike
    with pytest.raises(SchemaError, match="grouplike"):
        algebra_from_dict(doc)


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(grading=[0]),
    lambda doc: doc.update(grouplikes=[g[:2] for g in doc["grouplikes"]]),
], ids=["grading", "grouplikes"])
@pytest.mark.parametrize("command", ["validate", "qexp"])
def test_wrong_length_grading_or_grouplikes_exit_2(preset_cache, tmp_path, capsys,
                                                   corrupt, command):
    from hopfqexp.cli import main

    doc = algebra_to_dict(preset_cache("sweedler"))
    corrupt(doc)
    with pytest.raises(SchemaError, match="for dim 4|length dim 4"):
        algebra_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    assert main([command, "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc["mult"][1].__setitem__(2, doc["mult"][1][2][:1]), "has 1 scalars"),
    (lambda doc: doc["mult"].append([0, 0, [["0"], ["1"], ["0"], ["0"]]]),
     r"mult pair \(0, 0\) is listed twice"),
    (lambda doc: doc["comult"].append([3, 3, 0, ["5"]]), "listed twice"),
], ids=["short-mult-row", "duplicate-mult-pair", "duplicate-comult-entry"])
def test_bad_mult_or_comult_entries_rejected(preset_cache, corrupt, message):
    # a short row was padded with zeros, and a later copy silently won
    doc = algebra_to_dict(preset_cache("sweedler"))
    corrupt(doc)
    with pytest.raises(SchemaError, match=message):
        algebra_from_dict(doc)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError):
        read_algebra(path)


def test_twist_round_trip(tmp_path, suite_twists):
    T = suite_twists["bicharacter C[Z2xZ2]"]
    path = tmp_path / "twist.json"
    path.write_text(dumps(twist_to_dict(T)))
    T2 = read_twist(path)
    assert same_structure(T2.parent, T.parent)
    assert T2.J == TensorElement(T2.parent, 2, T.J.data)


def test_twist_with_preset_reference(suite_twists):
    T = suite_twists["bicharacter C[Z2xZ2]"]
    doc = twist_to_dict(T)
    doc["algebra"] = algebra_to_dict(T.parent)  # inline algebra resolves
    T2 = twist_from_dict(doc)
    assert same_structure(T2.parent, T.parent)


@pytest.mark.parametrize("index", range(7), ids=[
    "bichar-Z2xZ2", "bichar-Z3xZ3", "sweedler-0", "sweedler-1", "sweedler-2",
    "cyclic-uqb2:3", "cyclic-uqsl2:3"])
def test_twist_j_inv_computed_when_absent(index, suite_twists):
    T = list(suite_twists.values())[index]
    doc = twist_to_dict(T)
    del doc["J_inv"]
    T2 = twist_from_dict(doc)
    # the inverse is unique, so it is the one the constructor built
    assert T2.J_inv == TensorElement(T2.parent, 2, T.J_inv.data)
    if T.parent.name == "Sweedler":  # J = 1 (x) 1 + t x (x) gx
        t = T.J.data[(1, 3)]
        assert T.J.data.keys() == {(0, 0), (1, 3)}
        assert T2.J_inv == TensorElement(T2.parent, 2, {(0, 0): 1, (1, 3): -t})


def _singular_sweedler_twist() -> dict:
    """A twist document with J = x (x) x on Sweedler: J^2 = 0, so J is singular."""
    rows = [[["1"] if (i, j) == (1, 1) else ["0"] for j in range(4)] for i in range(4)]
    return {"schema": SCHEMA, "kind": "twist", "algebra": "sweedler", "J": rows}


def test_singular_j_rejected_by_strict_loader():
    with pytest.raises(SchemaError, match="invertible"):
        twist_from_dict(_singular_sweedler_twist())
    assert twist_from_dict(_singular_sweedler_twist(), check=False).J_inv is None


def test_non_twist_rejected_by_strict_loader(suite_twists):
    T = suite_twists["bicharacter C[Z2xZ2]"]
    doc = twist_to_dict(T)
    # overwrite J with a non-twist (invertible but fails the cocycle law)
    H = T.parent
    bad = dict(T.J.data)
    key = (1, 2)
    bad[key] = bad.get(key, H.zero_scalar) + H.one_scalar
    from hopfqexp.io import scalar_to_json

    doc["J"] = [[scalar_to_json(bad.get((i, j), H.zero_scalar)) for j in range(H.dim)]
                for i in range(H.dim)]
    del doc["J_inv"]
    with pytest.raises(SchemaError, match="twist|invertible"):
        twist_from_dict(doc)
    # the lenient loader returns the candidate for inspection instead
    T2 = twist_from_dict(doc, check=False)
    assert T2.J is not None


def _object_matrix_twist(where: str) -> dict:
    """A Sweedler twist document (J = 1 (x) 1) with J, one row of J, or
    J_inv replaced by a JSON object of n keys of length n, which indexing
    by row or column reads as a missing key."""
    square = {"aaaa": ["1"], "bbbb": ["1"], "cccc": ["1"], "dddd": ["1"]}
    rows = [[["1"] if (i, j) == (0, 0) else ["0"] for j in range(4)] for i in range(4)]
    doc = {"schema": SCHEMA, "kind": "twist", "algebra": "sweedler", "J": rows}
    if where == "J":
        doc["J"] = square
    elif where == "row":
        rows[1] = square
    else:
        doc["J_inv"] = square
    return doc


@pytest.mark.parametrize("where", ["J", "row", "J_inv"])
@pytest.mark.parametrize("command", ["twist-check", "twist-apply"])
def test_twist_matrix_given_as_an_object_exits_2(tmp_path, capsys, where, command):
    # an object of n keys of length n passed the shape check, and the first
    # rows[i][j] then raised a KeyError out of the CLI
    from hopfqexp.cli import main

    doc = _object_matrix_twist(where)
    with pytest.raises(SchemaError, match="wrong shape"):
        twist_from_dict(doc)
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--twist", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: twist coefficient matrix has the wrong shape\n"


def test_r_matrix_embedding(preset_cache, tmp_path):
    from hopfqexp.double import drinfeld_double

    qt = drinfeld_double(preset_cache("group:builtin:Z2"))
    doc = algebra_to_dict(qt.algebra, r_matrix=qt.R)
    assert doc["schema"] == SCHEMA
    assert "r_matrix" in doc
    assert len(doc["r_matrix"]) == qt.algebra.dim
