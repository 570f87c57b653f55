"""The packed tensor-product kernel behind `TensorElement.__mul__` and
`placed_product`: equal to the scalar loop it replaced, and exact only
because its guard sets the width."""

import json
from fractions import Fraction
from hashlib import sha256

import pytest
from helpers import same_structure
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp import scalars
from hopfqexp.hopf import (HopfAlgebraData, TensorElement, _legwise_product, index_rows,
                           placed_product)
from hopfqexp.io import algebra_to_dict
from hopfqexp.linalg import dadd
from hopfqexp.scalars import CyclotomicNumber, _canonical, euler_phi
from hopfqexp.twist import twist_hopf


def _scalar_legwise_product(table, a, b, arity: int) -> dict:
    """The CyclotomicNumber loop that the packed kernel replaced."""
    out: dict = {}
    for tkey, tval in a:
        for skey, sval in b:
            partial = {(): tval * sval}
            dead = False
            for leg in range(arity):
                vec = table((tkey[leg], skey[leg]))
                if not vec:
                    dead = True
                    break
                nxt: dict = {}
                for pkey, pc in partial.items():
                    for k, c in vec.items():
                        dadd(nxt, pkey + (k,), pc * c)
                partial = nxt
                if not partial:
                    dead = True
                    break
            if not dead:
                for key, c in partial.items():
                    dadd(out, key, c)
    return out


def _rows(table):
    """A product table {(p, q): vec} by its left index: rows[p][q] = vec."""
    rows: dict = {}
    for (p, q), vec in table.items():
        rows.setdefault(p, {})[q] = vec
    return rows


def _decoded(table, m):
    """An indexed table (`index_rows`) back to scalar rows[p][q] = vec."""
    rows, values = table
    return {p: {q: {k: _canonical(m, values.coords[i], values.den) for k, i in entries}
                for q, entries in row.items()} for p, row in rows.items()}


def _lookup(rows):
    return lambda pair: rows.get(pair[0], {}).get(pair[1])


def _assert_same_product(rows, a, b, arity, m):
    table = index_rows(((p, q), vec) for p, row in rows.items() for q, vec in row.items())
    got = _legwise_product(table, a.items(), b.items(), arity, m)
    assert got == _scalar_legwise_product(_lookup(rows), a.items(), b.items(), arity)
    assert all(not c.is_zero() and c.conductor == m for c in got.values())


def _scalars(m: int):
    coordinate = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    return (st.lists(coordinate, min_size=euler_phi(m), max_size=euler_phi(m))
            .map(lambda cs: CyclotomicNumber(m, cs)).filter(bool))


@st.composite
def _products(draw):
    """A random table of conductor 1, 3, 4, 5, 7 or 8 on n indices, with
    some pairs absent, and two random elements of arity 1 to 3."""
    m = draw(st.sampled_from([1, 3, 4, 5, 7, 8]))
    n = draw(st.integers(1, 4))
    arity = draw(st.integers(1, 3))
    index, value = st.integers(0, n - 1), _scalars(m)
    rows: dict = {}
    for p in range(n):
        for q in range(n):
            if draw(st.booleans()):
                rows.setdefault(p, {})[q] = draw(
                    st.dictionaries(index, value, min_size=1, max_size=3))
    keys = st.tuples(*[index] * arity)
    a = draw(st.dictionaries(keys, value, max_size=5))
    b = draw(st.dictionaries(keys, value, max_size=5))
    return rows, a, b, arity, m


@settings(max_examples=120, deadline=None)
@given(_products())
def test_packed_kernel_matches_scalar_loop(case):
    _assert_same_product(*case)


def _sweedler_with_broken_unit(preset_cache) -> HopfAlgebraData:
    H = preset_cache("sweedler")
    # the unit 2 + x is not a unit of this algebra, so e_k 1 != e_k
    return HopfAlgebraData(
        name="sweedler with unit 2 + x", dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=H.mult, unit=[2, 1, 0, 0],
        comult=H.comult, counit=list(H.counit), antipode=H.antipode)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_kernel_on_the_unit_columns_of_placed_product(preset_cache, data):
    # the rows placed_product multiplies with: leg index -1 is the unit
    # (2 + x here), so rows[k][-1] = e_k 1 and rows[-1][k] = 1 e_k
    A = _sweedler_with_broken_unit(preset_cache)
    R = TensorElement(A, 2, {(a, b): a + 2 * b + 1 for a in range(4) for b in range(4)})
    placed_product(R, (0, 1), R, (1, 2))
    rows = _decoded(A._cache["placed_rows"], A.conductor)
    assert rows[-1] and all(-1 in rows[k] for k in range(A.dim))
    one, unit = A.one_scalar, A.unit_element().data
    assert rows == {**{p: {**row, -1: A.mul_dicts({p: one}, unit)}
                       for p, row in _rows(A.mult_table).items()},
                    -1: {k: A.mul_dicts(unit, {k: one}) for k in range(A.dim)}}
    arity = data.draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(-1, A.dim - 1)] * arity)
    value = _scalars(A.conductor)
    a = data.draw(st.dictionaries(keys, value, max_size=6))
    b = data.draw(st.dictionaries(keys, value, max_size=6))
    _assert_same_product(rows, a, b, arity, A.conductor)


# -- the exactness guard -------------------------------------------------------

#: sha256 of json.dumps(io.algebra_to_dict(twist_hopf(T))) for the suite's
#: cyclic twists, the only suite twists that change Delta; recorded on the
#: CyclotomicNumber loop that the packed kernel replaced
TWISTED_DIGESTS = {
    "uqb2:3": "df01cc5d6bab0f326d87a13e4feaea086929bf72948c56d25819534b6b270f07",
    "uqsl2:3": "cec0b1fefedd68913984852493088158c63836641c2929e8e181ec98ca3e84cd",
}


def _twisted_digest(T) -> str:
    return sha256(json.dumps(algebra_to_dict(twist_hopf(T))).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TWISTED_DIGESTS))
def test_twisted_structure_is_pinned(name, suite_twists):
    T = suite_twists[f"cyclic twist on {name}"]
    assert not same_structure(twist_hopf(T), T.parent)
    assert _twisted_digest(T) == TWISTED_DIGESTS[name]


def test_exactness_guard_sets_the_packed_width(monkeypatch, suite_twists):
    # with 1-bit steps every product J^-1 Delta(e_k) J of the cyclic twist on
    # uqsl2:3 runs at the least width its bound allows, far below 32 bits
    # for the smallest bounds, and the twisted structure stays exact there
    T = suite_twists["cyclic twist on uqsl2:3"]
    chosen, least = [], scalars._width_for

    def width_for(bound):
        chosen.append((bound, least(bound)))
        return chosen[-1][1]

    monkeypatch.setattr(scalars, "_WIDTH_QUANTUM", 1)
    monkeypatch.setattr(scalars, "_width_for", width_for)
    assert _twisted_digest(T) == TWISTED_DIGESTS["uqsl2:3"]
    assert chosen and all(width == bound.bit_length() + 1 for bound, width in chosen)
    bound, width = min(chosen)
    assert bound >= 1 << 7 and width < 32


def test_narrow_packed_width_without_the_guard_decodes_wrongly(monkeypatch, suite_twists):
    # the same products with the guard switched off: their digits pass what
    # 2 bits hold, so the width is what keeps them exact
    T = suite_twists["cyclic twist on uqsl2:3"]
    monkeypatch.setattr(scalars, "_width_for", lambda bound: 2)
    assert _twisted_digest(T) != TWISTED_DIGESTS["uqsl2:3"]


# -- canonical results: the operations store their data unchecked ----------------

SMALL_ZOO = ["group:builtin:Z2", "sweedler", "group:builtin:S3", "dualgroup:builtin:Z3",
             "taft:3", "uqb2:3"]


def _assert_canonical(r) -> None:
    """r equals itself rebuilt through the checked entry, and every scalar
    has the parent's conductor (rationals of two conductors compare equal)."""
    if isinstance(r, TensorElement):
        assert r == TensorElement(r.parent, r.arity, r.data)
        assert all(type(k) is tuple and len(k) == r.arity for k in r.data)
    assert all(c.conductor == r.parent.conductor and c for c in r.data.values())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_operations_return_canonical_data(preset_cache, data):
    H = preset_cache(data.draw(st.sampled_from(SMALL_ZOO)))
    m, n = H.conductor, H.dim
    arity = data.draw(st.integers(1, 3))
    value = st.just(0) | _scalars(m)
    keys = st.tuples(*[st.integers(0, n - 1)] * arity)
    x, y = (TensorElement(H, arity, data.draw(st.dictionaries(keys, value, max_size=6)))
            for _ in "xy")
    c = data.draw(_scalars(m))
    leg = data.draw(st.integers(0, arity - 1))
    other = data.draw(st.integers(0, arity - 1))
    # x at a permutation of legs 0..arity-1, y at one of t-arity..t-1
    t = data.draw(st.integers(arity, min(2 * arity, 3)))
    x_legs = data.draw(st.permutations(range(arity)))
    y_legs = data.draw(st.permutations(range(t - arity, t)))
    a = H.element(data.draw(st.lists(value, min_size=n, max_size=n)))
    results = [
        x + y, x.scale(c), x.scale(0), x + x.scale(-1), x * y,
        x.apply_leg(leg, H.antipode), x.comult_leg(leg), x.counit_leg(leg),
        x.swap_legs(leg, other), placed_product(x, x_legs, y, y_legs),
        TensorElement.from_elements(a, a), TensorElement.unit(H, arity), a.comul(),
    ]
    if arity > 1:
        results.append(x.multiply_legs(leg % (arity - 1)))
    assert results[2].is_zero() and results[3].is_zero()
    for r in results:
        if isinstance(r, CyclotomicNumber):
            assert r.conductor == m
        else:
            _assert_canonical(r)
