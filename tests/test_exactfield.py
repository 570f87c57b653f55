"""Exact cyclotomic scalar arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp.scalars import (
    ConductorMismatch,
    CyclotomicNumber,
    _canonical,
    _Packed,
    _ring,
    _zeta_powers,
    as_scalar,
    cyclotomic_int_coeffs,
    euler_phi,
    format_rational,
    lift_conductor,
    pack,
    parse_rational,
    scalar_from_json,
    scalar_to_json,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=1, max_value=50))
conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12])


def cyclotomics(cond):
    dim = euler_phi(cond)
    coeff = st.integers(min_value=-20, max_value=20)
    return st.tuples(
        st.lists(coeff, min_size=dim, max_size=dim),
        st.integers(min_value=1, max_value=12),
    ).map(lambda t: CyclotomicNumber(
        cond, [Fraction(c, t[1]) for c in t[0]]))


@settings(max_examples=60)
@given(conductors.flatmap(lambda m: st.tuples(
    cyclotomics(m), cyclotomics(m), cyclotomics(m))))
def test_field_axioms(triple):
    a, b, c = triple
    zero = CyclotomicNumber.zero(a.conductor)
    one = CyclotomicNumber.one(a.conductor)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero
    if not a.is_zero():
        assert a * a.inverse() == one


@settings(max_examples=40)
@given(conductors.flatmap(cyclotomics))
def test_json_round_trip(a):
    assert scalar_from_json(scalar_to_json(a), a.conductor) == a


@given(rationals)
def test_rational_text_round_trip(r):
    assert parse_rational(format_rational(r)) == r


def test_primitive_root_order():
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        z = CyclotomicNumber.zeta(m)
        powers = [z ** k for k in range(1, m + 1)]
        assert powers[-1] == CyclotomicNumber.one(m)
        assert all(p != CyclotomicNumber.one(m) for p in powers[:-1])


def test_cyclotomic_relation():
    # 1 + z3 + z3^2 = 0
    z = CyclotomicNumber.zeta(3)
    assert (CyclotomicNumber.one(3) + z + z * z).is_zero()


def test_lift_conductor():
    z3 = CyclotomicNumber.zeta(3)
    lifted = lift_conductor(z3, 12)
    assert lifted.conductor == 12
    assert lifted == CyclotomicNumber.zeta(12) ** 4


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(4)


def test_as_scalar_coercions():
    assert as_scalar(3, 4) == CyclotomicNumber.rational(3, 4)
    assert as_scalar(Fraction(1, 2), 1) + as_scalar(Fraction(1, 2), 1) \
        == CyclotomicNumber.one(1)


def test_inverse_of_one_minus_zeta():
    z = CyclotomicNumber.zeta(5)
    a = CyclotomicNumber.one(5) - z
    assert a * a.inverse() == CyclotomicNumber.one(5)


def operands(m):
    """Elements of Q(zeta_m) with denominators, rationals among them."""
    phi = euler_phi(m)
    genuine = st.lists(st.integers(min_value=-20, max_value=20), min_size=phi, max_size=phi)
    rational = st.integers(min_value=-20, max_value=20).map(lambda c: [c] + [0] * (phi - 1))
    return st.tuples(st.one_of(genuine, rational), st.sampled_from([1, 1, 2, 3, 12])).map(
        lambda t: CyclotomicNumber(m, [Fraction(c, t[1]) for c in t[0]]))


def reference_product(a, b):
    """a*b as a Fraction polynomial product reduced mod the cyclotomic polynomial."""
    cyc = cyclotomic_int_coeffs(a.conductor)
    phi = len(cyc) - 1
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, phi - 1, -1):
        c = prod[k]
        for i, d in enumerate(cyc):
            prod[k - phi + i] -= c * d
    return tuple(prod[:phi])


@settings(max_examples=150)
@given(st.sampled_from([1, 3, 4, 5, 8]).flatmap(lambda m: st.tuples(operands(m), operands(m))))
def test_arithmetic_matches_polynomial_reference(pair):
    a, b = pair
    product, total = a * b, a + b
    assert product.coeffs == reference_product(a, b)
    assert total.coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    for r in (product, total, -a):  # canonical: positive denominator coprime to the content
        assert r.den > 0 and gcd(r.den, *r.num) == 1


def _height(coords):
    return max(map(abs, coords))


@settings(max_examples=150)
@given(st.sampled_from([1, 3, 4, 5, 7, 8]).flatmap(
    lambda m: st.tuples(operands(m), operands(m), operands(m))))
def test_packed_arithmetic_matches_cyclotomic(triple):
    # a b c + a b + c on packed numerators over da db dc, at the narrowest width
    # the digit bound allows; a b is folded but never reduced mod Phi_m
    a, b, c = triple
    m = a.conductor
    bound = (m * m * _height(a.num) * _height(b.num) * _height(c.num)
             + m * _height(a.num) * _height(b.num) * c.den + _height(c.num) * a.den * b.den)
    width = bound.bit_length() + 1
    shift = width * m
    modulus = (1 << shift) - 1

    def fold(z):
        return (z & modulus) + (z >> shift)

    pa, pb, pc = (pack(x.num, width) for x in triple)
    ab = fold(pa * pb)
    z = fold(ab * pc) + ab * c.den + pc * (a.den * b.den)
    den = a.den * b.den * c.den
    got = CyclotomicNumber(m, [Fraction(x, den) for x in _ring(width, m).unpack(z)])
    assert got == a * b * c + a * b + c


@settings(max_examples=100)
@given(st.sampled_from([1, 3, 4, 5, 7, 8]), st.sampled_from([2, 3, 8, 32]), st.data())
def test_unpack_is_exact_up_to_the_digit_bound(m, width, data):
    # every digit vector of Z[x]/(x^m - 1) below 2^(width-1), under any
    # multiple of M = 2^(width m) - 1 and after a fold, decodes to its image
    # in Z[zeta_m]; for m = 8 that needs zeta^7
    top = (1 << width - 1) - 1
    digit = st.sampled_from([-top, top, 0]) | st.integers(min_value=-top, max_value=top)
    digits = data.draw(st.lists(digit, min_size=m, max_size=m))
    modulus = (1 << width * m) - 1
    z = pack(digits, width) + data.draw(st.integers(min_value=-3, max_value=3)) * modulus
    expected = [0] * euler_phi(m)
    for e, d in enumerate(digits):
        for i, v in enumerate(_zeta_powers(m)[e]):
            expected[i] += d * v
    assert _ring(width, m).unpack(z) == expected
    assert _ring(width, m).unpack((z & modulus) + (z >> width * m)) == expected


def test_constants_are_shared():
    for m in (1, 3, 8):
        assert CyclotomicNumber.zero(m) is CyclotomicNumber.zero(m)
        assert CyclotomicNumber.one(m) is CyclotomicNumber.one(m)
        assert CyclotomicNumber.zero(m).is_zero() and CyclotomicNumber.one(m) == 1


@settings(max_examples=100)
@given(st.sampled_from([1, 3, 4, 5, 12]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(cyclotomics(m), max_size=12))),
    st.sampled_from([8, 32, 64]))
def test_packed_value_set_holds_each_scalar_once(case, width):
    # the one value-set of the packed kernels: distinct scalars over their
    # common denominator, their height, and their packing once per width
    m, values = case
    packed = _Packed((v.num, v.den) for v in values)
    assert len(packed.coords) == len({(v.num, v.den) for v in values})
    for v in values:
        assert _canonical(m, packed.coords[packed.index[v.num, v.den]], packed.den) == v
    assert packed.height == max((abs(x) for c in packed.coords for x in c), default=0)
    assert packed.heights == [max(map(abs, c)) for c in packed.coords]
    at = packed.at(width)
    assert at == [pack(c, width) for c in packed.coords]
    assert packed.at(width) is at
    # extended by more values, the first set keeps its indices
    extra = [v + 1 for v in values] + values[::-1]
    more = _Packed(list(packed.index) + [(v.num, v.den) for v in extra])
    assert all(more.index[key] == i for key, i in packed.index.items())
    for v in values + extra:
        assert _canonical(m, more.coords[more.index[v.num, v.den]], more.den) == v
