"""Hopf algebra structure layer: axioms, constructions, grouplikes."""

from fractions import Fraction
from itertools import product

import pytest
from helpers import same_structure
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp import hopf
from hopfqexp.double import regular_representation
from hopfqexp.hopf import (
    AlgebraElement,
    GrouplikeSet,
    _generators,
    HopfAlgebraData,
    OrderSearchExhausted,
    TensorElement,
    apply_columns,
    dadd,
    dual,
    element_inverse,
    element_order,
    first_failure,
    is_grouplike,
    placed_product,
    s2_order,
    subalgebra_closure,
    tensor,
    validate,
    variant,
)
from hopfqexp.linalg import ExactMatrix, SpanSolver, dense, sparse
from hopfqexp.presets import ZOO, get_preset, preset_grouplikes, sweedler
from hopfqexp.scalars import CyclotomicNumber, euler_phi


def test_sweedler_validates(preset_cache):
    assert validate(preset_cache("sweedler")) == []


def _with_antipode(H, antipode):
    return HopfAlgebraData(
        name=H.name, dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=H.mult, unit=list(H.unit),
        comult=H.comult, counit=list(H.counit), antipode=antipode)


def test_corrupted_antipode_fails_validate():
    H = sweedler()
    bad = [dict(col) for col in H.antipode]
    bad[1][1] = bad[1].get(1, H.zero_scalar) + H.one_scalar  # perturb S(x)
    violations = validate(_with_antipode(H, bad))
    assert violations
    assert any("antipode" in v for v in violations)
    # S(x) = 0: the columns of S are dependent
    singular = [dict(col) for col in H.antipode]
    singular[1] = {}
    assert "antipode is not invertible" in validate(_with_antipode(H, singular))


def test_corrupted_comult_fails_validate():
    H = sweedler()
    comult = [dict(d) for d in H.comult]
    (i, j), c = next(iter(comult[1].items()))
    comult[1][(i, j)] = c + c
    corrupt = HopfAlgebraData(
        name=H.name, dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=H.mult, unit=list(H.unit),
        comult=comult, counit=list(H.counit), antipode=H.antipode)
    assert validate(corrupt)


def _with_comult(H, comult):
    return HopfAlgebraData(
        name=H.name, dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=H.mult, unit=list(H.unit),
        comult=comult, counit=list(H.counit), antipode=H.antipode)


def test_multiplicativity_check_is_certified(double_cache, preset_cache):
    # D(Sweedler): one comult entry of a basis element outside the generating set
    D = double_cache("sweedler").algebra
    gens = _generators(D)
    assert gens is not None and len(gens) < D.dim
    k = next(k for k in range(1, D.dim) if k not in gens)
    comult = [dict(d) for d in D.comult]
    pair, c = next(iter(comult[k].items()))
    comult[k][pair] = c + c
    assert validate(_with_comult(D, comult))
    # C[Z2xZ2] with basis 1, a, b, ab and the coalgebra moved along the
    # bijection theta: b -> b + 2(1 - a), ab -> ab + 2(a - 1), which fixes
    # 1 and a and commutes with left multiplication by a.  Coassociativity,
    # the counit and Delta(1) still hold, and Delta(a y) = Delta(a)Delta(y)
    # for every y, so only a generating set that reaches b sees the failure.
    H = preset_cache("group:builtin:Z2xZ2")
    t = H.scalar(2)
    rows = [list(r) for r in ExactMatrix.identity(4, 1).entries]
    rows[0][2], rows[1][2], rows[0][3], rows[1][3] = t, -t, -t, t
    theta = ExactMatrix(rows, 1)
    columns = [sparse(theta.column(j)) for j in range(4)]
    moved = [TensorElement(H, 2, d).apply_leg(0, columns).apply_leg(1, columns)
             for d in H.comult]
    back = theta.inverse()
    comult = []
    for k in range(4):
        acc = TensorElement(H, 2, {})
        for j in range(4):
            acc = acc + moved[j].scale(back.entries[j][k])
        comult.append(acc.data)
    violations = validate(_with_comult(H, comult))
    assert "comultiplication is not multiplicative at (2,2)" in violations
    assert not any("coassociativity" in v or "counit" in v for v in violations)


@pytest.mark.parametrize("name, k, expected", [
    ("sweedler", 2, ["coassociativity fails at basis 1", "counit axiom fails at basis 2",
                     "comultiplication is not multiplicative at (1,2)",
                     "antipode axiom fails at basis 2"]),
    ("taft:3", 4, ["coassociativity fails at basis 2", "counit axiom fails at basis 4",
                   "comultiplication is not multiplicative at (1,3)",
                   "antipode axiom fails at basis 4"]),
])
def test_rescaled_comult_entry_names_first_witnesses(name, k, expected, preset_cache):
    # the last entry of Delta(e_k) doubled: coassociativity first fails at an
    # earlier basis element, the counit axiom and the antipode axiom at e_k
    H = preset_cache(name)
    comult = [dict(d) for d in H.comult]
    pair, c = list(comult[k].items())[-1]
    comult[k][pair] = c + c
    assert validate(_with_comult(H, comult)) == expected


@pytest.mark.parametrize("name, j, expected", [
    ("sweedler", 2, ["antipode axiom fails at basis 1"]),
    ("taft:3", 6, ["antipode axiom fails at basis 2"]),
])
def test_rescaled_antipode_column_names_first_witness(name, j, expected, preset_cache):
    # S(e_j) doubled keeps S invertible; the axiom first fails at an earlier
    # basis element whose coproduct has e_j on a leg
    H = preset_cache(name)
    antipode = [dict(col) for col in H.antipode]
    antipode[j] = {i: c + c for i, c in antipode[j].items()}
    assert validate(_with_antipode(H, antipode)) == expected


def _with_mult(H, mult):
    return HopfAlgebraData(
        name=H.name, dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=mult, unit=list(H.unit),
        comult=H.comult, counit=list(H.counit), antipode=H.antipode)


def _associativity_failures(H):
    """Every basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in
    order, by products of basis elements."""
    e = [H.basis_element(k) for k in range(H.dim)]
    return [(i, j, k) for i in range(H.dim) for j in range(H.dim) for k in range(H.dim)
            if (e[i] * e[j]) * e[k] != e[i] * (e[j] * e[k])]


def test_associativity_check_is_certified(double_cache, monkeypatch):
    # D(Sweedler) with e_k e_j moved by e_j, for k and j outside G and off the
    # support of the unit (f_1 (x) 1 + f_g (x) 1), so unitality still holds
    D = double_cache("sweedler").algebra
    gens = _generators(D)
    unit_support = {k for k, u in enumerate(D.unit) if not u.is_zero()}
    k, j = [i for i in range(D.dim) if i not in gens and i not in unit_support][:2]
    mult = {pair: dict(vec) for pair, vec in D.mult.items()}
    vec = mult.setdefault((k, j), {})
    vec[j] = vec.get(j, D.zero_scalar) + D.one_scalar
    corrupt = _with_mult(D, mult)
    failures = _associativity_failures(corrupt)
    assert failures and not any("unitality" in v for v in validate(corrupt))
    # Light's test on the certified G reports the first witness of the full scan
    assert f"associativity fails at basis ({','.join(map(str, failures[0]))})" \
        in validate(corrupt)
    # a set that passes the restricted check but generates nothing lets the
    # corruption through: the certificate carries the proof
    passing = sorted(set(range(D.dim)) - {i for i, _, _ in failures})
    monkeypatch.setattr(hopf, "_generators", lambda H: passing)
    assert not any("associativity" in v for v in validate(corrupt))


def test_first_failure_falls_back_to_the_full_scan():
    def check(i):
        return f"fails at {i}" if i in (2, 5) else None

    everything = list(product(range(8)))
    assert first_failure(check, everything) == "fails at 2"
    # a failure on the certified set is confirmed by the full scan's first witness
    assert first_failure(check, everything, [(5,)]) == "fails at 2"
    # a certified set that passes ends the check
    assert first_failure(check, everything, [(0,), (1,)]) is None


def _embedded(t, arity, positions):
    """Reference for placed products: t at the given legs, the unit expanded
    on every other leg."""
    H = t.parent
    terms = {(): H.one_scalar}
    for p in range(arity):
        if p in positions:
            continue
        terms = {key + (q,): c * u for key, c in terms.items()
                 for q, u in enumerate(H.unit) if not u.is_zero()}
    free = [p for p in range(arity) if p not in positions]
    out = TensorElement(H, arity, {})
    for key, v in t.data.items():
        for fill, c in terms.items():
            legs = dict(zip(positions, key)) | dict(zip(free, fill))
            out = out + TensorElement(H, arity, {tuple(legs[p] for p in range(arity)): v * c})
    return out


#: (legs of x, legs of y) for placed products of two tensor squares, the
#: last one the plain product
PLACEMENTS = [((0, 2), (1, 2)), ((0, 2), (0, 1)), ((1, 0), (0, 2)), ((0, 1), (0, 1))]


def test_placed_product_matches_embedded_products(preset_cache, double_cache):
    H = preset_cache("sweedler")
    # the unit 2 + x is not a unit of this algebra, so e_k 1 != e_k
    broken = HopfAlgebraData(
        name="sweedler with unit 2 + x", dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=H.mult, unit=[2, 1, 0, 0],
        comult=H.comult, counit=list(H.counit), antipode=H.antipode)
    cases = [(qt.algebra, qt.R) for qt in map(double_cache, (
        "trivial", "group:builtin:Z2", "group:builtin:S3", "sweedler",
        "dualgroup:builtin:S3", "taft:2"))]
    for A in (H, broken):
        cases.append((A, TensorElement(A, 2, {(a, b): a + 2 * b + 1
                                              for a in range(4) for b in range(4)})))
    for A, R in cases:
        for xl, yl in PLACEMENTS:
            arity = len(set(xl) | set(yl))
            expect = _embedded(R, arity, xl) * _embedded(R, arity, yl)
            assert placed_product(R, xl, R, yl) == expect, (A.name, xl, yl)
        x = TensorElement(A, 3, {(a, a, 0): a + 1 for a in range(A.dim)})
        assert placed_product(x, (0, 1, 2), R, (1, 2)) == x * _embedded(R, 3, (1, 2))
        g = TensorElement(A, 1, {(A.dim - 1,): 3})
        assert placed_product(R, (0, 1), g, (2,)) == \
            _embedded(R, 3, (0, 1)) * _embedded(g, 3, (2,))
    with pytest.raises(ValueError):
        placed_product(R, (0, 1), R, (0, 1, 2))
    with pytest.raises(ValueError):
        placed_product(R, (0, 2), R, (2, 3))


def test_dual_validates_and_is_involutive(preset_cache):
    H = preset_cache("sweedler")
    D = dual(H)
    assert validate(D) == []
    assert same_structure(dual(D), H)


def test_variant_op_cop(preset_cache):
    H = preset_cache("sweedler")
    for which in ("op", "cop", "op_cop"):
        V = variant(H, which)
        assert validate(V) == []
    assert same_structure(variant(variant(H, "op"), "op"), H)


def test_tensor_product_validates(preset_cache):
    T = tensor(preset_cache("sweedler"), preset_cache("group:builtin:Z2"))
    assert validate(T) == []
    assert T.dim == 8


def test_antipode_order_sweedler(preset_cache):
    # S^2 = conjugation by g has order 2 on the Sweedler algebra
    assert s2_order(preset_cache("sweedler")) == 2


def test_antipode_involutive_on_group_algebra(preset_cache):
    assert s2_order(preset_cache("group:builtin:S3")) == 1


def _dense_order(a):
    """The least k >= 1 with a^k = Id, by dense matrix powers."""
    power, k = a, 1
    while not power.is_identity():
        power, k = power @ a, k + 1
    return k


def _matrix(H, columns):
    """The dense ExactMatrix with the given sparse columns."""
    return ExactMatrix.from_columns([dense(c, H.dim, H.conductor) for c in columns],
                                    H.conductor)


#: the zoo, a tensor product and a double: the algebras whose derived powers
#: of S are compared with dense references
DERIVED = ZOO + ["tensor:sweedler,group:builtin:Z2", "D(sweedler)"]


def _derived_algebra(name, preset_cache, double_cache):
    if name.startswith("D("):
        return double_cache(name[2:-1]).algebra
    return preset_cache(name)


@pytest.mark.parametrize("name", DERIVED)
def test_orders_match_dense_power_scans(preset_cache, double_cache, name):
    H = _derived_algebra(name, preset_cache, double_cache)
    s = _matrix(H, H.antipode)
    assert s2_order(H) == _dense_order(s @ s)
    assert _matrix(H, H.s2_columns) == s @ s
    assert _matrix(H, H.sinv2_columns) == (s @ s).inverse()
    if H.grouplike_vectors is not None:
        for g in preset_grouplikes(H).elements:
            assert element_order(g) == _dense_order(regular_representation(H, g))


def _random_element(data, H):
    """An element of H with small cyclotomic coefficients, many of them zero."""
    phi = euler_phi(H.conductor)
    coords = st.lists(st.integers(-2, 2), min_size=phi, max_size=phi)
    entries = data.draw(st.lists(st.none() | coords, min_size=H.dim, max_size=H.dim))
    return H.element([0 if c is None else CyclotomicNumber(H.conductor, c) for c in entries])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sweedler", "taft:3", "D(sweedler)"]), st.data())
def test_sparse_elements_match_dense_reference(preset_cache, double_cache, name, data):
    H = _derived_algebra(name, preset_cache, double_cache)
    a, b = _random_element(data, H), _random_element(data, H)
    c = H.scalar(data.draw(st.sampled_from([0, 1, -2, Fraction(3, 5)])))
    n = data.draw(st.integers(min_value=0, max_value=4))

    def vec(x):
        return dense(x.data, H.dim, H.conductor)

    def left(x):  # the dense reference of left multiplication by x
        return regular_representation(H, x).apply

    power = vec(H.unit_element())
    for _ in range(n):
        power = left(a)(power)
    cases = [
        (a + b, [x + y for x, y in zip(vec(a), vec(b))]),
        (a - b, [x - y for x, y in zip(vec(a), vec(b))]),
        (a - a, [H.zero_scalar] * H.dim),
        (-a, [-x for x in vec(a)]),
        (a.scale(c), [x * c for x in vec(a)]),
        (a.scale(0), [H.zero_scalar] * H.dim),
        (a * b, left(a)(vec(b))),
        (a ** n, power),
        (a.antipode(), _matrix(H, H.antipode).apply(vec(a))),
    ]
    for result, reference in cases:
        assert vec(result) == reference
        assert not any(v.is_zero() for v in result.data.values())
    elements = [a, b, b + a - b] + [result for result, _ in cases]
    for x in elements:
        for y in elements:
            assert (x == y) == (vec(x) == vec(y))
            if x == y:
                assert hash(x) == hash(y)


def test_order_scans_stop_at_theorem_bounds():
    # scaling S(x) by 2 makes S^2(x) = -2x: S^2 has infinite order
    H = sweedler()
    columns = list(H.antipode)
    columns[1] = {i: c * 2 for i, c in columns[1].items()}
    broken = _with_antipode(H, columns)
    with pytest.raises(OrderSearchExhausted, match="Radford"):
        s2_order(broken)
    with pytest.raises(OrderSearchExhausted, match="Nichols-Zoeller"):
        element_order(H.unit_element().scale(2))


def test_grouplikes_of_sweedler(preset_cache):
    H = preset_cache("sweedler")
    gset = GrouplikeSet.build(H, H.grouplike_vectors)
    assert len(gset) == 2
    assert gset.exponent() == 2
    assert sorted(element_order(g) for g in gset.elements) == [1, 2]


def test_is_grouplike_rejects_non_grouplike(preset_cache):
    H = preset_cache("sweedler")
    assert not is_grouplike(H.basis_element(1))  # x is not grouplike
    assert is_grouplike(H.unit_element())


def test_element_arithmetic(preset_cache):
    H = preset_cache("sweedler")
    x = H.basis_element(1)
    g = H.basis_element(2)
    assert (x * x).is_zero()          # x^2 = 0
    assert g * g == H.unit_element()  # g^2 = 1
    assert g * x == -(x * g)          # gx = -xg
    assert x.counit().is_zero()
    assert x.antipode() == -(x * g)   # S(x) = -x g^{-1} = -xg


def test_antipode_inverse(preset_cache, double_cache):
    for name in DERIVED:
        H = _derived_algebra(name, preset_cache, double_cache)
        assert _matrix(H, H.antipode_inv) == _matrix(H, H.antipode).inverse(), name
    H = preset_cache("taft:3")
    for k in range(H.dim):
        b = H.basis_element(k)
        assert b.antipode().antipode_inv() == b


def test_element_inverse_on_taft(preset_cache):
    # taft:3 basis g^i x^j: a grouplike inverts to its antipode, and the
    # nilpotent x and 0 have minimal polynomials with c_0 = 0
    H = preset_cache("taft:3")
    for k in (3, 6):
        g = H.basis_element(k)
        assert element_inverse(g) == g.antipode()
    one, x, x2 = (H.basis_element(k) for k in range(3))
    assert element_inverse(one + x) == one - x + x2  # (1 + x)^-1, as x^3 = 0
    assert element_inverse(x) is None
    assert element_inverse(AlgebraElement(H, {})) is None


def test_tensor_element_legs(preset_cache):
    H = preset_cache("sweedler")
    g = H.basis_element(2)
    t = TensorElement.unit(H, 2)
    assert t.counit_leg(0) == H.unit_element()
    d = g.comul()  # g (x) g
    assert d.multiply_legs(0) == g * g
    assert d.swap_legs(0, 1) == d
    # (g (x) 1 (x) g)(1 (x) g (x) g) = g (x) g (x) g^2, and g^2 = 1
    assert placed_product(d, (0, 2), d, (1, 2)) == TensorElement(H, 3, {(2, 2, 0): 1})


@pytest.mark.parametrize("name", ["sweedler", "dualgroup:builtin:S3"])
def test_tensor_unit_is_pinned(name, preset_cache):
    # 1 (x) ... (x) 1 holds unit[k_1] ... unit[k_n] at (k_1, ..., k_n); the
    # unit of C^S3 is the sum of all six delta functions
    H = preset_cache(name)
    support = [k for k, u in enumerate(H.unit) if not u.is_zero()]
    assert support == ([0] if name == "sweedler" else list(range(6)))
    for n in (1, 2, 3):
        expected = {}
        for key in product(support, repeat=n):
            c = H.one_scalar
            for k in key:
                c = c * H.unit[k]
            expected[key] = c
        t = TensorElement.unit(H, n)
        assert (t.parent, t.arity, t.data) == (H, n, expected)
        assert len(t.data) == len(support) ** n


def test_pure_tensors_are_pinned(preset_cache):
    # a (x) b (x) c holds a_i b_j c_k at (i, j, k), and nothing where a
    # factor's coefficient is zero
    H = preset_cache("taft:3")
    a = H.element([Fraction(k + 1, 2) for k in range(H.dim)])
    b = H.element([0 if k % 3 else (-1) ** k * (k + 2) for k in range(H.dim)])
    c = H.basis_element(4).scale(3) + H.basis_element(7).scale(CyclotomicNumber.zeta(3))
    for factors in ([a], [b, a], [a, b, c]):
        expected = {}
        for terms in product(*(sorted(f.data.items()) for f in factors)):
            coeff = H.one_scalar
            for _, x in terms:
                coeff = coeff * x
            expected[tuple(k for k, _ in terms)] = coeff
        t = TensorElement.from_elements(*factors)
        assert (t.parent, t.arity, t.data) == (H, len(factors), expected)
    assert len(TensorElement.from_elements(a, b, c).data) == 9 * 3 * 2


def test_subalgebra_closure_group_part(preset_cache):
    for name, dim in (("sweedler", 2), ("uqb2:3", 3)):
        H = preset_cache(name)
        gens = [H.element(v) for v in H.grouplike_vectors]
        sub = subalgebra_closure(H, gens)
        assert sub.dim == dim, name
        assert validate(sub) == [], name


def test_subalgebra_closure_full(preset_cache):
    for name in ("sweedler", "uqb2:3"):
        H = preset_cache(name)
        sub = subalgebra_closure(H, [H.basis_element(k) for k in range(H.dim)])
        assert sub.dim == H.dim, name
        assert validate(sub) == [], name


def _naive_closure_basis(H, generators):
    """The closure basis with every pair multiplied in every pass."""
    space, basis = SpanSolver(H.conductor), []

    def insert(vec):
        if space.insert(vec) is not None:
            return False
        basis.append(vec)
        return True

    for vec in [H.unit_element().data] + [g.data for g in generators]:
        insert(vec)
    changed = True
    while changed:
        candidates = []
        for a in basis:
            candidates += [H.mul_dicts(a, b) for b in basis]
            candidates.append(apply_columns(H.antipode, a))
            lefts, rights = {}, {}
            for (i, j), c in H.comul_dict(a).items():
                dadd(lefts.setdefault(j, {}), i, c)
                dadd(rights.setdefault(i, {}), j, c)
            candidates += [*lefts.values(), *rights.values()]
        changed = False
        for cand in candidates:
            changed |= insert(cand)
    return basis


@pytest.mark.parametrize("name, generators", [
    ("sweedler", [1]), ("taft:3", [1]), ("taft:3", [8]), ("uqb2:3", [3]),
    ("group:builtin:S3", [1, 3]), ("dualgroup:builtin:S3", [1]), ("uqsl2:3", [3, 9]),
])
def test_semi_naive_closure_keeps_the_basis_and_its_order(name, generators, preset_cache):
    H = preset_cache(name)
    gens = [H.basis_element(k) for k in generators]
    _, basis = hopf._closure_basis(H, gens)
    assert basis == _naive_closure_basis(H, gens)


def test_all_preset_axioms_hold_with_witness_messages():
    H = get_preset("uqb2:3")
    assert validate(H) == []


def test_invalid_variant_name(preset_cache):
    with pytest.raises(ValueError):
        variant(preset_cache("sweedler"), "nonsense")


def _one_dim(mult, comult=None, antipode=None):
    return HopfAlgebraData(
        name="k", dim=1, conductor=1, basis_labels=["1"], mult=mult, unit=[1],
        comult=comult or [{(0, 0): 1}], counit=[1], antipode=antipode or [{0: 1}])


@pytest.mark.parametrize("order", [(0, 3), (3, 0)])
def test_shared_scalar_out_of_range_keeps_its_message(order):
    # the coercion cache is keyed by object: a value seen at a valid key is
    # still checked at an invalid one, whichever comes first
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^mult \(0, 0\) has coordinate 3 out of range\(1\)$"):
        _one_dim({(0, 0): {k: half for k in order}})
    with pytest.raises(ValueError, match=r"^comult of 0 has pair \(0, 2\) out of range\(1\)$"):
        _one_dim({(0, 0): {0: half}}, comult=[{(0, 0): half, (0, 2): half}])
    with pytest.raises(ValueError,
                       match=r"^antipode column 0 has coordinate 1 out of range\(1\)$"):
        _one_dim({(0, 0): {0: half}}, antipode=[{0: half, 1: half}])


def test_shared_zero_is_dropped_everywhere():
    zero, one = Fraction(0), Fraction(1)
    H = HopfAlgebraData(
        name="Z2", dim=2, conductor=3, basis_labels=["1", "g"],
        mult={(0, 0): {0: one, 1: zero}, (0, 1): {1: one, 0: zero},
              (1, 0): {1: one}, (1, 1): {0: one, 1: zero}},
        unit=[one, zero], comult=[{(0, 0): one, (0, 1): zero}, {(1, 1): one, (1, 0): zero}],
        counit=[one, one], antipode=[{0: one, 1: zero}, {1: one, 0: zero}])
    assert H.mult == {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    assert H.comult == [{(0, 0): 1}, {(1, 1): 1}]
    assert H.antipode == [{0: 1}, {1: 1}]
    assert H.unit == (1, 0) and H.unit[1].is_zero()
    assert validate(H) == []
