"""The streamed document writer: the bytes of ``json.dumps(doc, indent=2)``.

`io.algebra_chunks` lays the document out itself, row by row.  Each test
reads the document back and compares it with one read straight off the
tables, every row dense, and lays it out again with `json` to compare
the bytes.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp.hopf import HopfAlgebraData, TensorElement
from hopfqexp.io import SCHEMA, algebra_chunks, algebra_to_dict
from hopfqexp.presets import ZOO
from hopfqexp.scalars import CyclotomicNumber, euler_phi, scalar_to_json
from hopfqexp.twist import twist_hopf

#: the zoo presets whose doubles have dimension at most 81
UP_TO_81 = ["trivial", "group:builtin:Z2", "group:builtin:Z3", "sweedler",
            "group:builtin:S3", "dualgroup:builtin:Z3", "group:builtin:Z4",
            "group:builtin:Z6", "group:builtin:Z2xZ2", "dualgroup:builtin:S3",
            "taft:2", "taft:3", "uqb2:3"]


def _reference(H: HopfAlgebraData, R: TensorElement | None = None) -> dict:
    """The document of H read off its tables, every row a dense list."""
    n, zero = H.dim, H.zero_scalar
    memo = {}

    def fmt(c):
        key = (c.num, c.den)
        if key not in memo:
            memo[key] = scalar_to_json(c)
        return memo[key]

    def dense(vec):
        return [fmt(vec.get(k, zero)) for k in range(n)]

    table = H.mult_table
    doc = {
        "schema": SCHEMA, "kind": "hopf-algebra", "name": H.name, "dim": n,
        "conductor": H.conductor, "basis_labels": list(H.basis_labels),
        "unit": [fmt(v) for v in H.unit],
        "counit": [fmt(v) for v in H.counit],
        "mult": [[i, j, dense(table[(i, j)])] for (i, j) in sorted(table)],
        "comult": [[k, i, j, fmt(d[(i, j)])]
                   for k, d in enumerate(H.comult) for (i, j) in sorted(d)],
        "antipode": [[fmt(col.get(i, zero)) for col in H.antipode] for i in range(n)],
    }
    if H.grouplike_vectors is not None:
        doc["grouplikes"] = [[fmt(v) for v in g] for g in H.grouplike_vectors]
    if H.grading is not None:
        doc["grading"] = list(H.grading)
    if R is not None:
        doc["r_matrix"] = [dense({j: c for (a, j), c in R.data.items() if a == i})
                           for i in range(n)]
    return doc


def _assert_written_as_json(H: HopfAlgebraData, R: TensorElement | None = None) -> None:
    text = "".join(algebra_chunks(H, R))
    doc = json.loads(text)
    assert doc == _reference(H, R)
    assert text == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", ZOO)
def test_zoo_preset_documents(name, preset_cache):
    _assert_written_as_json(preset_cache(name))


@pytest.mark.parametrize("name", UP_TO_81)
def test_double_documents_with_r(name, double_cache):
    qt = double_cache(name)
    _assert_written_as_json(qt.algebra, qt.R)


def test_twisted_algebra_documents(suite_twists):
    assert len(suite_twists) == 7
    for T in suite_twists.values():
        _assert_written_as_json(twist_hopf(T))


def test_algebra_to_dict_reads_the_chunks_back(preset_cache):
    H = preset_cache("taft:3")
    assert algebra_to_dict(H) == _reference(H)


@st.composite
def _algebras(draw):
    """Tables of the shapes the writer reads, with no axiom holding: empty
    tables, zero entries, any text in the name and labels, and the
    optional grouplikes, grading and R."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 3, 4, 5]))
    phi = euler_phi(m)
    scalar = st.builds(
        lambda nums, den: CyclotomicNumber(m, [Fraction(x, den) for x in nums]),
        st.lists(st.integers(-3, 3), min_size=phi, max_size=phi), st.integers(1, 4))
    index = st.integers(0, n - 1)
    vector = st.dictionaries(index, scalar, max_size=n)
    pairs = st.dictionaries(st.tuples(index, index), scalar, max_size=3)
    H = HopfAlgebraData._trusted(
        draw(st.text(max_size=6)), n, m,
        draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),
        draw(st.dictionaries(st.tuples(index, index), vector, max_size=n * n)),
        tuple(draw(st.lists(scalar, min_size=n, max_size=n))),
        draw(st.lists(pairs, min_size=n, max_size=n)),
        tuple(draw(st.lists(scalar, min_size=n, max_size=n))),
        draw(st.lists(vector, min_size=n, max_size=n)),
        draw(st.none() | st.lists(
            st.lists(scalar, min_size=n, max_size=n).map(tuple), max_size=2)),
        draw(st.none() | st.lists(st.integers(-2, 5), min_size=n, max_size=n)))
    R = draw(st.none() | pairs.map(lambda d: TensorElement(H, 2, d)))
    return H, R


@settings(max_examples=60, deadline=None)
@given(_algebras())
def test_random_tables_are_written_as_json(algebra):
    H, R = algebra
    assert "".join(algebra_chunks(H, R)) == json.dumps(_reference(H, R), indent=2) + "\n"
