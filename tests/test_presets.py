"""The preset zoo: constructions, relations, and the name grammar."""

import hashlib

import pytest
from helpers import same_structure

from hopfqexp import cli
from hopfqexp.hopf import index_rows, validate
from hopfqexp.io import algebra_chunks
from hopfqexp.presets import (
    ZOO,
    _from_generators,
    get_preset,
    group_algebra_from_table,
    parse_preset_name,
    preset_grouplikes,
    taft,
    uq_borel_sl2,
    uq_sl2,
)
from hopfqexp.scalars import CyclotomicNumber

EXPECTED_DIMS = {
    "trivial": 1, "group:builtin:Z2": 2, "group:builtin:Z3": 3,
    "group:builtin:Z4": 4, "group:builtin:Z6": 6, "group:builtin:Z2xZ2": 4,
    "group:builtin:S3": 6, "dualgroup:builtin:Z3": 3,
    "dualgroup:builtin:S3": 6, "sweedler": 4, "taft:2": 4, "taft:3": 9,
    "taft:4": 16, "taft:5": 25, "uqb2:3": 9, "uqsl2:3": 27,
    "tensor:sweedler,group:builtin:Z3": 12,
}


@pytest.mark.parametrize("name", ZOO)
def test_zoo_member_validates(name, preset_cache):
    H = preset_cache(name)
    assert H.dim == EXPECTED_DIMS[name]
    assert validate(H) == []


def test_taft_relations(preset_cache):
    H = preset_cache("taft:3")
    n = 3
    q = CyclotomicNumber.zeta(n)
    g = H.basis_element(1 * n + 0)  # g^1 x^0
    x = H.basis_element(0 * n + 1)  # g^0 x^1
    assert g ** n == H.unit_element()
    assert (x ** n).is_zero()
    assert g * x == (x * g).scale(q)  # gx = q xg


def test_uqb2_relations(preset_cache):
    H = preset_cache("uqb2:3")
    p = 3
    q = CyclotomicNumber.zeta(p)
    e = H.basis_element(1 * p + 0)  # E
    k = H.basis_element(0 * p + 1)  # K
    assert k ** p == H.unit_element()
    assert (e ** p).is_zero()
    assert k * e == (e * k).scale(q * q)  # KE = q^2 EK


def test_uqsl2_relations(preset_cache):
    H = preset_cache("uqsl2:3")
    p = 3
    q = CyclotomicNumber.zeta(p)
    e = H.basis_element((1 * p + 0) * p + 0)
    f = H.basis_element((0 * p + 1) * p + 0)
    k = H.basis_element((0 * p + 0) * p + 1)
    assert k ** p == H.unit_element()
    assert (e ** p).is_zero() and (f ** p).is_zero()
    assert k * e == (e * k).scale(q * q)
    assert k * f == (f * k).scale((q * q).inverse())
    # [E, F] = (K - K^-1) / (q - q^-1)
    lam = (q - q.inverse()).inverse()
    assert e * f - f * e == (k - k.antipode()).scale(lam)


def test_group_algebra_grouplikes(preset_cache):
    for name, expected in (("group:builtin:Z6", 6), ("group:builtin:S3", 6),
                           ("group:builtin:Z2xZ2", 2)):
        gset = preset_grouplikes(preset_cache(name))
        assert gset.exponent() == expected


def test_dual_group_algebra_characters(preset_cache):
    H = preset_cache("dualgroup:builtin:Z3")
    gset = preset_grouplikes(H)
    assert len(gset) == 3  # all characters of Z3
    assert gset.exponent() == 3


def test_group_algebra_from_table_rejects_non_group():
    # a magma table without associativity
    table = [[0, 1], [1, 1]]
    with pytest.raises(ValueError):
        group_algebra_from_table(table)


def test_parse_preset_name_grammar():
    assert parse_preset_name("taft:4").parameters == {"n": 4}
    assert parse_preset_name("uqsl2:5").parameters == {"p": 5}
    d = parse_preset_name("tensor:sweedler,group:builtin:Z2")
    assert d.kind == "tensor"
    with pytest.raises(ValueError):
        parse_preset_name("nonsense:thing")
    with pytest.raises(ValueError):
        parse_preset_name("group:builtin:Z7")


@pytest.mark.parametrize("name", ["taft:1_0", "taft:+3", "uqb2: 5", "taft:\u0663"])
def test_malformed_preset_parameter_exits_2(name, capsys):
    # int() reads each of these parameters as a number
    assert cli.main(["exponent", "--preset", name]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


@pytest.mark.parametrize("name", [" taft:3", "tensor:taft:3, sweedler", "dualgroup:S3"])
def test_malformed_preset_name_exits_2(name, capsys):
    # the grammar strips no whitespace and names dualgroup:builtin:<NAME> only
    assert cli.main(["exponent", "--preset", name]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


def test_quantum_presets_require_odd_prime():
    for p in (2, 4, 9, 15):
        with pytest.raises(ValueError, match="odd prime"):
            uq_borel_sl2(p)
        with pytest.raises(ValueError, match="odd prime"):
            uq_sl2(p)


def test_taft_requires_n_at_least_two():
    with pytest.raises(ValueError):
        taft(1)


def test_sweedler_is_taft_2(preset_cache):
    assert same_structure(preset_cache("sweedler"), preset_cache("taft:2"))


#: sha256 of the JSON document of each generated preset, as the hand-written
#: builders produced it before the presets were derived from their generators;
#: taft:12 (a composite even conductor) and uqb2:11 as the build in scalar
#: arithmetic produced them, before it formed its products on value indices
PINNED_DIGESTS = {
    "taft:2": "a485b20a60e179d3a6f942a63eacf560500642d26374bba7fdda32aaf70b1e2f",
    "taft:3": "8ebe8e342fdb143524b3bea9de8dc35b26fd95e367f5c2938c6ab458baf02779",
    "taft:4": "8ca7622ca94aadb05d8d950922bbc82fc5d1ddedf84f78d738675384ebe4c539",
    "taft:5": "e0a78540fcb4b4c9c3e5a2863745b93838f52e93a61faa99eb541e00c0eeee6e",
    "taft:6": "32bff9bea6bec8d6288cf4ff3a6a5b31cc762de2f27b98c4d5d866a786827c01",
    "taft:7": "2a2ebdac20999c7662c29168c00169ff30d3e5d3023061102de1e0bcad009ca4",
    "taft:8": "a11504216cf1f25a3f4e13a8882a83674b663ea5da3e322535d6e6c5c3dfe507",
    "uqb2:3": "517f7990c735ec0fd28ebfc7e177509ab827cbac3eb1d7060b9bedd550e6ba1f",
    "uqb2:5": "2ef9cd8c1ca51d6961777f8db146acd2c807759c40ae9e7f6221602409e86a0e",
    "uqb2:7": "87d5b07ddbb27c22c557f5c3f2127c51c65d825d4be78d0e77429a445c9fc9d8",
    "uqsl2:3": "a384ed5dd3f0bc5a2112a9ae834e8276c3edc8c943f1b2d6fb858c1fbcfbe7e4",
    "uqsl2:5": "5ec0dc7a89dff473744470f37b7559c7b9168acf57665fc5e7b95d726379ff27",
    "taft:12": "cf2a3ae50ace5a2bf72c7a3c8fddd30d89245d5cda1275289b43e9132d993bc1",
    "uqb2:11": "98b81eb767b98e0f19547e10a71d7830c18564c7f75be04b604b83597d2dc3f1",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generated_preset_matches_pinned_digest(name):
    # the sha256 of io.dumps(algebra_to_dict(H)), fed chunk by chunk as the
    # writer streams it, so the 108 MB document of uqsl2:5 is never held whole
    digest = hashlib.sha256()
    for chunk in algebra_chunks(get_preset(name)):
        digest.update(chunk.encode())
    assert digest.hexdigest() == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_build_leaves_the_canonical_index(name):
    # the index the build keeps is index_rows over its products, up to the
    # numbering of the values, with the den and height the T-route's widths read
    H = get_preset(name)
    built, canonical = H.mult_index, index_rows(H.mult.items())

    def by_scalar(rows, values):
        keys = list(values.index)
        return {p: {q: tuple((k, keys[i]) for k, i in entries) for q, entries in row.items()}
                for p, row in rows.items()}

    assert by_scalar(*built) == by_scalar(*canonical)
    assert built[1].index.keys() == canonical[1].index.keys()
    assert (built[1].den, built[1].height) == (canonical[1].den, canonical[1].height)


@pytest.mark.parametrize("name, bound", [("taft:8", 1024), ("uqb2:7", 600), ("uqsl2:5", 15625)])
def test_build_forms_each_distinct_product_once(name, bound, monkeypatch):
    # under N^2/4 for taft:8 and under N^2 for uqsl2:5; forming every term of
    # the N^2 products in scalar arithmetic takes 4,901, 2,928 and 79,885
    calls = 0
    mul = CyclotomicNumber.__mul__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counting)
    get_preset(name)
    assert calls < bound


@pytest.mark.parametrize("name", ["taft:8", "uqb2:7", "uqsl2:5"])
def test_build_reads_roots_of_unity_off_the_table(name, monkeypatch):
    # zeta^e comes from CyclotomicNumber.zeta, not from repeated squaring
    def no_power(a, n):
        raise AssertionError(f"CyclotomicNumber.__pow__({a!r}, {n})")

    monkeypatch.setattr(CyclotomicNumber, "__pow__", no_power)
    get_preset(name)


def test_from_generators_rejects_unreached_basis():
    # basis 1, a, b, ab of C[Z2 x Z2] with only a as a generator
    one = CyclotomicNumber.one(1)
    generators = {1: (lambda k: {k ^ 1: one}, {(1, 1): one}, 1, {1: one})}
    with pytest.raises(ValueError):
        _from_generators("Z2xZ2", 1, ["1", "a", "b", "ab"], generators, [0, 1], [0] * 4)
