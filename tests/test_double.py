"""Drinfeld doubles: axioms, quasitriangularity, the Drinfeld element."""

import random
from hashlib import sha256
from itertools import product

import pytest
from helpers import same_structure

from hopfqexp import cli, scalars
from hopfqexp import double as dmod
from hopfqexp import hopf as hmod
from hopfqexp.double import (
    QuasitriangularData,
    drinfeld_double,
    drinfeld_element,
    r_inverse,
    regular_representation,
    u_inverse,
    verify_quasitriangular,
    verify_s2_conjugation,
)
from hopfqexp.hopf import (HopfAlgebraData, TensorElement, dual, element_minimal_polynomial,
                           index_rows, lift_algebra, subalgebra_closure, tensor, validate,
                           variant)
from hopfqexp.linalg import dense, sparse
from hopfqexp.presets import ZOO, get_preset
from hopfqexp.qexp import quasi_exponent
from hopfqexp.twist import twist_hopf

SMALL = ["trivial", "group:builtin:Z2", "group:builtin:Z3", "sweedler",
         "group:builtin:S3", "dualgroup:builtin:Z3"]
#: the zoo presets whose doubles have dimension at most 81
UP_TO_81 = SMALL + ["group:builtin:Z4", "group:builtin:Z6", "group:builtin:Z2xZ2",
                    "dualgroup:builtin:S3", "taft:2", "taft:3", "uqb2:3"]


@pytest.mark.parametrize("name", SMALL)
def test_double_is_hopf(name, double_cache):
    qt = double_cache(name)
    assert validate(qt.algebra) == []


@pytest.mark.parametrize("name", SMALL)
def test_double_is_quasitriangular(name, double_cache):
    assert verify_quasitriangular(double_cache(name)) == []


@pytest.mark.parametrize("name", SMALL)
def test_s2_is_conjugation_by_u(name, double_cache):
    qt = double_cache(name)
    u = drinfeld_element(qt)
    assert verify_s2_conjugation(qt, u)


def test_r_inverse_is_two_sided(double_cache):
    qt = double_cache("sweedler")
    rinv = r_inverse(qt)
    unit = TensorElement.unit(qt.algebra, 2)
    assert qt.R * rinv == unit
    assert rinv * qt.R == unit


def test_u_inverse(double_cache):
    for name in ("sweedler", "group:builtin:S3"):
        qt = double_cache(name)
        u = drinfeld_element(qt)
        uinv = u_inverse(qt)
        one = qt.algebra.unit_element()
        assert u * uinv == one and uinv * u == one, name


def test_s2_conjugation_needs_invertible_u(double_cache):
    # zero commutes with everything, so only the invertibility check fails
    qt = double_cache("sweedler")
    zero = qt.algebra.element([0] * qt.algebra.dim)
    assert not verify_s2_conjugation(qt, zero)


def test_u_counit_is_one(double_cache):
    qt = double_cache("sweedler")
    assert drinfeld_element(qt).counit() == 1


def test_double_dimension_is_square(preset_cache):
    H = preset_cache("group:builtin:Z3")
    qt = drinfeld_double(H)
    assert qt.algebra.dim == H.dim * H.dim


def test_embeddings_are_algebra_maps(preset_cache, double_cache):
    H = preset_cache("sweedler")
    qt = double_cache("sweedler")
    for i in range(H.dim):
        for j in range(H.dim):
            a, b = H.basis_element(i), H.basis_element(j)
            assert qt.iota_primal(a * b) == qt.iota_primal(a) * qt.iota_primal(b)
    assert qt.iota_primal(H.unit_element()) == qt.algebra.unit_element()


def test_regular_representation_faithful(double_cache):
    qt = double_cache("group:builtin:Z2")
    u = drinfeld_element(qt)
    m = regular_representation(qt.algebra, u)
    D = qt.algebra
    assert sparse(m.apply(dense(D.unit_element().data, D.dim, D.conductor))) == u.data


def test_r_normalization(double_cache):
    # (eps (x) eps)(R) = 1 follows from the hexagons; check it directly
    qt = double_cache("group:builtin:Z3")
    val = qt.R.counit_leg(0).counit()
    assert val == 1


def test_double_coefficients_are_interned(double_cache):
    # one object per distinct value across mult, comult and antipode
    for name in ("taft:3", "taft:4"):
        D = double_cache(name).algebra
        coeffs = [c for vec in D.mult.values() for c in vec.values()]
        coeffs += [c for pairs in D.comult for c in pairs.values()]
        coeffs += [c for col in D.antipode for c in col.values()]
        assert len({id(c) for c in coeffs}) == len(set(coeffs)), name


#: sha256 of the mult, comult, antipode and R tables of each double (see
#: `_table_digest`), recorded on the CyclotomicNumber product loop that the
#: packed build replaced
TABLE_DIGESTS = {
    "trivial": "9310c663a17f01f0a2b1d694b909822390e74e77b2d8645fa6da5e658b97fb79",
    "group:builtin:Z2": "45352e4368abad37bbbaf82c6d85c47f228960b1fb101bb9f0cfebf0d3f43a40",
    "group:builtin:Z3": "094af77421f1d39875ba3c2bc33739d67f22f4927adf1f4f1e003b09bdb4982d",
    "sweedler": "0feee8147ea925f264ab30d551336629f4c780f5582880a9614333accd3ca972",
    "group:builtin:S3": "9f0ccc264fed3116e9741eb13354c8a66bee363c7983beef963e8c65c7187e0f",
    "dualgroup:builtin:Z3": "d072eb3b18c57ddd57eb21c9932861c266242dba527c0edb4a629244b3bbccdf",
    "group:builtin:Z4": "8c22b717f69b2051130639fc0990193818c96537a62626c38ed669019da22d43",
    "group:builtin:Z6": "0f985cb69e8cf9ab1f397945711cfc38537d9e7da7e12bcde8c01849308f4661",
    "group:builtin:Z2xZ2": "c8484ef96371cf7d90b116b79aba8593890228e33aa3ba80683344f4a9db1c7b",
    "dualgroup:builtin:S3": "2f0f3a5683140da33179bd0d88b68db106dd185806bfd4fdd0331d10472ed9aa",
    "taft:2": "0feee8147ea925f264ab30d551336629f4c780f5582880a9614333accd3ca972",
    "taft:3": "3262678d57f598b195cd4aeb62e40de8b0e567a5ecc75cdaf8b6522820fa3dcf",
    "uqb2:3": "68c7cb2770f594126fc869cd68bb8e0ce9787d8a38488b6e138662193698c493",
    "taft:4": "750f332d3bb7f6356a4aa0209aab493286627a5fcacb5a4b32bd87ad1963c24d",
    "taft:5": "0ba60b3944f9ef236cdb75229cbafaf8606b95e524961139172d5a10275f41e0",
}


def _table_digest(qt) -> str:
    """sha256 of the double's tables as sorted (key, num, den) tuples, so the
    order of the rows and of the entries within a row does not count."""
    D = qt.algebra
    rows = [(("mult",) + key + (k,), c.num, c.den)
            for key, vec in D.mult.items() for k, c in vec.items()]
    rows += [(("comult", k) + pair, c.num, c.den)
             for k, pairs in enumerate(D.comult) for pair, c in pairs.items()]
    rows += [(("antipode", j, k), c.num, c.den)
             for j, col in enumerate(D.antipode) for k, c in col.items()]
    rows += [(("R",) + pair, c.num, c.den) for pair, c in qt.R.data.items()]
    return sha256(repr(sorted(rows)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_double_tables_are_pinned(name, double_cache):
    assert _table_digest(double_cache(name)) == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_double_tables_are_pinned_after_the_t_route(name):
    # D read from the index that the T-route left on a fresh H
    H = get_preset(name)
    quasi_exponent(H)
    assert _table_digest(drinfeld_double(H)) == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", ["taft:3", "group:builtin:S3"])
@pytest.mark.parametrize("order", [("qexp", "double", "tensor"), ("tensor", "double", "qexp")])
def test_one_index_per_algebra(name, order, monkeypatch):
    # the T-route, the double build and a tensor product all read one index
    # of H's products, built once (by the preset build for taft:3), and its
    # values are packed once per width
    tables, packings = [], []
    at = scalars._Packed.at

    def counting(table, values=None):
        tables.append(table)
        return index_rows(table, values)

    def packing(values, width):
        packings.append((values, width, width not in values._packed))
        return at(values, width)

    monkeypatch.setattr(hmod, "index_rows", counting)
    monkeypatch.setattr(scalars._Packed, "at", packing)
    H = get_preset(name)
    x = TensorElement._trusted(H, 2, H.comult[1])
    runs = {"qexp": lambda: quasi_exponent(H), "double": lambda: drinfeld_double(H),
            "tensor": lambda: x * x}
    index = None
    for step in order:
        start = len(packings)
        runs[step]()
        index = index or H.mult_index
        assert H.mult_index is index
        assert any(values is index[1] for values, _, _ in packings[start:]), step
    # the preset build leaves the index of taft:3 without running index_rows
    assert sum(getattr(table, "mapping", None) == H.mult for table in tables) == (
        name != "taft:3")
    widths = [width for values, width, new in packings if values is index[1] and new]
    assert len(widths) == len(set(widths))


def _checks_with_and_without_certificate(qt):
    """verify_quasitriangular and verify_s2_conjugation on the generating set
    that validate certified for the double, then on the whole basis."""
    D = qt.algebra
    assert validate(D) == []
    certified = (verify_quasitriangular(qt), verify_s2_conjugation(qt))
    gens = D._cache.pop("certified_generators")
    try:
        return certified, (verify_quasitriangular(qt), verify_s2_conjugation(qt))
    finally:
        D._cache["certified_generators"] = gens


@pytest.mark.parametrize("name", UP_TO_81)
def test_double_checks_on_generators_agree(name, double_cache):
    certified, full = _checks_with_and_without_certificate(double_cache(name))
    assert certified == full == ([], True)


@pytest.mark.parametrize("name", ["sweedler", "group:builtin:S3"])
def test_corrupted_r_keeps_its_witness_on_generators(name, double_cache):
    # R with its last term doubled: the generator check fails, and the full
    # scan names the same first witness as without a certificate
    qt = double_cache(name)
    key, c = max(qt.R.data.items())
    bad = QuasitriangularData(
        algebra=qt.algebra, R=TensorElement(qt.algebra, 2, {**qt.R.data, key: c + c}),
        source=qt.source)
    certified, full = _checks_with_and_without_certificate(bad)
    assert certified == full
    assert any("intertwining fails" in v for v in certified[0]), certified


@pytest.mark.parametrize("name", ["taft:3", "taft:4"])
def test_exactness_guard_sets_the_packed_width(name, monkeypatch, preset_cache):
    # with 1-bit steps the guard picks the least width its bound allows, far
    # past 2^3, and the tables stay exact there
    chosen = []

    def width_for(bound):
        chosen.append((bound, scalars._width_for(bound)))
        return chosen[-1][1]

    monkeypatch.setattr(scalars, "_WIDTH_QUANTUM", 1)
    monkeypatch.setattr(dmod, "_width_for", width_for)
    qt = drinfeld_double(preset_cache(name))
    [(bound, width)] = chosen
    narrow = 4
    assert bound >= 1 << (narrow - 1)
    assert width == bound.bit_length() + 1 > narrow
    assert _table_digest(qt) == TABLE_DIGESTS[name]


def test_narrow_packed_width_without_the_guard_decodes_wrongly(monkeypatch, preset_cache):
    # the same build with the guard switched off: the products of D(taft:3)
    # reach digit 2, past what 2 bits hold, so the width is what keeps it exact
    monkeypatch.setattr(dmod, "_width_for", lambda bound: 2)
    assert _table_digest(drinfeld_double(preset_cache("taft:3"))) != TABLE_DIGESTS["taft:3"]


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_products_read_on_demand_equal_the_full_build(name, preset_cache):
    # every pair read through get, in a seeded order, forms every unit once
    # and gives the table that iteration gives, in the order of a build
    # that read nothing first
    H = preset_cache(name)
    mult = drinfeld_double(H).algebra.mult
    n = H.dim ** 2
    keys = list(product(range(n), repeat=2))
    random.Random(name).shuffle(keys)
    read = {key: vec for key in keys if (vec := mult.get(key)) is not None}
    assert mult.units_formed == H.dim ** 3
    full = drinfeld_double(H).algebra.mult
    assert read == dict(full.items()) == dict(mult.items())
    assert list(mult) == list(full)
    assert mult.units_formed == full.units_formed == H.dim ** 3


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_in_and_getitem_agree_with_get(name, preset_cache):
    # on a fresh build, each way of reading is the first read of some units;
    # then again on the complete table, and on keys that are no pair of D
    H = preset_cache(name)
    mult = drinfeld_double(H).algebra.mult
    n = H.dim ** 2
    keys = list(product(range(n), repeat=2))
    random.Random(name).shuffle(keys)
    keys = keys[:300] + [(n, 0), (0, n), (-1, 0), (0,), "x"]

    def agree(key, first):
        if first == 0:
            vec = mult.get(key)
        elif first == 1:
            vec = mult[key] if key in mult else None
        else:
            try:
                vec = mult[key]
            except KeyError:
                vec = None
        assert (key in mult) is (vec is not None)
        assert mult.get(key) is vec
        if vec is None:
            with pytest.raises(KeyError):
                mult[key]
        else:
            assert mult[key] is vec

    for k, key in enumerate(keys):
        agree(key, k % 3)
    # iteration keeps the order of a full build after reads on demand
    assert list(mult) == list(drinfeld_double(H).algebra.mult)
    assert mult.units_formed == H.dim ** 3
    for k, key in enumerate(keys):
        agree(key, k % 3)


@pytest.mark.parametrize("name", ["sweedler", "group:builtin:S3", "taft:3", "uqb2:3"])
def test_each_unit_is_formed_once(name, preset_cache, monkeypatch):
    # units_formed counts the units held, so it cannot see a unit formed
    # twice; count the kernel's calls instead
    formed = []
    kernel = dmod.DoubleProducts._unit

    def spy(self, i, l, j):
        formed.append((i, l, j))
        return kernel(self, i, l, j)

    monkeypatch.setattr(dmod.DoubleProducts, "_unit", spy)
    H = preset_cache(name)
    N, n = H.dim, H.dim ** 2
    mult = drinfeld_double(H).algebra.mult
    keys = list(product(range(n), repeat=2))
    random.Random(name).shuffle(keys)
    read = keys[:len(keys) // 3]
    zeros = [key for key in read if mult.get(key) is None]
    on_demand = len(formed)
    assert 0 < on_demand < N ** 3 and zeros
    # reads of zero products on formed units, in every way, form nothing
    for key in zeros * 2:
        assert mult.get(key) is None and key not in mult
    assert len(formed) == on_demand
    # iteration forms the rest, and every unit has been formed exactly once
    assert len(list(mult)) == len(mult)
    assert sorted(formed) == sorted(product(range(N), repeat=3))
    for key in zeros:
        assert mult.get(key) is None
    assert len(formed) == N ** 3


def test_text_double_forms_no_product(monkeypatch, capsys):
    built = []

    def spy(H):
        built.append(drinfeld_double(H))
        return built[-1]

    monkeypatch.setattr(dmod, "drinfeld_double", spy)
    assert cli.main(["double", "--preset", "uqsl2:3"]) == 0
    assert capsys.readouterr().out.startswith("D(uq_sl2(3)): dim 729, conductor 3;")
    [qt] = built
    assert qt.algebra.mult.units_formed == 0


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_coproduct_rows_read_on_demand_equal_the_full_build(name, preset_cache):
    # rows read one at a time, in a seeded order, are the rows that
    # iteration forms on a fresh build, each formed once and then kept
    H = preset_cache(name)
    comult = drinfeld_double(H).algebra.comult
    n = H.dim ** 2
    assert len(comult) == n and comult.rows_formed == 0
    order = list(range(n))
    random.Random(name).shuffle(order)
    read = {r: comult[r] for r in order}
    assert comult.rows_formed == n
    assert all(comult[r] is read[r] for r in range(n))
    full = drinfeld_double(H).algebra.comult
    assert list(full) == [read[r] for r in range(n)]
    assert comult == full and comult == list(full) and list(full) == comult
    assert comult[-1] is read[n - 1]
    assert comult[:2] == [read[r] for r in range(min(n, 2))]
    with pytest.raises(IndexError):
        comult[n]


def test_u_and_its_minimal_polynomial_form_no_coproduct_row(preset_cache):
    qt = drinfeld_double(preset_cache("uqb2:3"))
    element_minimal_polynomial(drinfeld_element(qt))
    assert qt.algebra.comult.rows_formed == 0


def _closure_by_grouplikes(H):
    return subalgebra_closure(H, [H.element(g) for g in H.grouplike_vectors])


#: every internal construction beside the doubles, from presets p and the
#: suite's twists t (by their index, as in test_io)
BUILDERS = {
    "dual sweedler": lambda p, t: dual(p("sweedler")),
    "dual dualgroup:builtin:S3": lambda p, t: dual(p("dualgroup:builtin:S3")),
    **{f"{which} taft:3": lambda p, t, which=which: variant(p("taft:3"), which)
       for which in ("op", "cop", "op_cop")},
    "lift taft:3 to 6": lambda p, t: lift_algebra(p("taft:3"), 6),
    "lift dualgroup:builtin:Z2xZ2 to 12": lambda p, t: lift_algebra(
        p("dualgroup:builtin:Z2xZ2"), 12),
    "tensor group:builtin:Z2,taft:3": lambda p, t: tensor(p("group:builtin:Z2"), p("taft:3")),
    "closure taft:3": lambda p, t: _closure_by_grouplikes(p("taft:3")),
    "closure uqsl2:3": lambda p, t: _closure_by_grouplikes(p("uqsl2:3")),
    "closure sweedler by x": lambda p, t: subalgebra_closure(
        p("sweedler"), [p("sweedler").basis_element(1)]),
    **{f"twist {k}": lambda p, t, k=k: twist_hopf(list(t.values())[k]) for k in range(7)},
    # the presets built by _from_generators, dual_group_algebra and tensor
    **{f"preset {name}": lambda p, t, name=name: get_preset(name)
       for name in ZOO if name.split(":")[0] not in ("trivial", "group")},
}


@pytest.mark.parametrize("name", UP_TO_81 + list(BUILDERS))
def test_trusted_double_passes_the_checked_constructor(name, double_cache, preset_cache,
                                                      suite_twists):
    # internal constructions store their tables unchecked; the checked
    # constructor range-checks every index and drops zeros, and each table,
    # fully formed, must come out of it unchanged
    if name in BUILDERS:
        D = BUILDERS[name](preset_cache, suite_twists)
    else:
        D = double_cache(name).algebra
    checked = HopfAlgebraData(
        name=D.name, dim=D.dim, conductor=D.conductor, basis_labels=D.basis_labels,
        mult=D.mult_table, unit=D.unit, comult=D.comult, counit=D.counit,
        antipode=D.antipode, grouplike_vectors=D.grouplike_vectors, grading=D.grading)
    assert same_structure(checked, D)
    assert checked.grouplike_vectors == D.grouplike_vectors
    assert checked.grading == D.grading
    # equal rationals of two conductors compare equal, so check the conductor
    assert type(D.unit) is tuple and type(D.counit) is tuple
    values = [*D.unit, *D.counit, *(c for g in D.grouplike_vectors or () for c in g),
               *(c for vec in D.mult_table.values() for c in vec.values()),
               *(c for pairs in D.comult for c in pairs.values()),
               *(c for col in D.antipode for c in col.values())]
    assert all(type(c) is scalars.CyclotomicNumber and c.conductor == D.conductor for c in values)
