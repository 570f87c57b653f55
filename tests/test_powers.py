"""The power sequence of an algebra element: right multiplication on packed ints."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_double import TABLE_DIGESTS
from test_qexp import MU_U

from hopfqexp import hopf as hmod
from hopfqexp import scalars
from hopfqexp.double import DoubleProducts, drinfeld_double, drinfeld_element
from hopfqexp.hopf import AlgebraElement, element_minimal_polynomial
from hopfqexp.linalg import ExactPolynomial, SpanSolver
from hopfqexp.presets import ZOO, get_preset
from hopfqexp.scalars import CyclotomicNumber


def _scalar_powers(a, count):
    """1, a, ..., a^(count-1) by repeated `mul_dicts`."""
    x, out = a.parent.unit_element().data, []
    for _ in range(count):
        out.append(x)
        x = a.parent.mul_dicts(x, a.data)
    return out


def _span_minimal_polynomial(a):
    """The first dependence among 1, a, a^2, ... by `SpanSolver` alone."""
    m = a.parent.conductor
    solver, x = SpanSolver(m), a.parent.unit_element().data
    while (coeffs := solver.insert(x)) is None:
        x = a.parent.mul_dicts(x, a.data)
    return ExactPolynomial([-c for c in coeffs] + [1], m)


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_powers_of_u_equal_repeated_products(name, double_cache):
    u = drinfeld_element(double_cache(name))
    f = element_minimal_polynomial(u)
    count = f.degree + 1
    assert list(islice(hmod._right_powers(u), count)) == _scalar_powers(u, count)
    assert f == _span_minimal_polynomial(u)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_powers_of_sparse_elements_equal_repeated_products(preset_cache, data):
    H = preset_cache(data.draw(st.sampled_from(ZOO)))
    m = H.conductor
    scalar = st.builds(lambda e, k: CyclotomicNumber.zeta(m, e) * k,
                       st.integers(0, m - 1), st.sampled_from([-3, -1, 1, 2]))
    a = AlgebraElement(H, data.draw(st.dictionaries(st.integers(0, H.dim - 1), scalar,
                                                    max_size=4)))
    f = element_minimal_polynomial(a)
    assert f == _span_minimal_polynomial(a)
    assert list(islice(hmod._right_powers(a), f.degree + 1)) == _scalar_powers(a, f.degree + 1)


def test_powers_read_each_product_once(monkeypatch, preset_cache):
    # each column e_p u is formed once, so no product e_p e_q is read twice
    reads = []
    get = DoubleProducts.get

    def spy(self, key, default=None):
        reads.append(key)
        return get(self, key, default)

    u = drinfeld_element(drinfeld_double(preset_cache("uqb2:3")))
    monkeypatch.setattr(DoubleProducts, "get", spy)
    element_minimal_polynomial(u)
    assert reads and len(reads) == len(set(reads))


def test_minimal_polynomial_of_u_forms_only_the_units_it_reads(monkeypatch):
    # D(uqsl2:3) has 19,683 units; the powers of u read at most 3,351 of them
    def no_table(self):
        raise AssertionError("the whole product table was formed")

    monkeypatch.setattr(DoubleProducts, "table", no_table)
    qt = drinfeld_double(get_preset("uqsl2:3"))
    assert element_minimal_polynomial(drinfeld_element(qt)) == MU_U["uqsl2:3"]
    assert qt.algebra.mult.units_formed <= 3351


def test_exactness_guard_widens_a_narrow_width(monkeypatch, double_cache):
    # the powers of 2u on D(taft:3) reach 256, far past 2^3: with 4-bit
    # steps the sequence starts at 4 bits, the guard widens to its least
    # multiple of 4 bits, and stays exact
    widths = []
    width_for = scalars._width_for

    def recording(bound):
        widths.append((bound, width_for(bound)))
        return widths[-1][1]

    monkeypatch.setattr(scalars, "_WIDTH_QUANTUM", 4)
    monkeypatch.setattr(scalars, "_width_for", recording)
    a = drinfeld_element(double_cache("taft:3")).scale(2)
    count = MU_U["taft:3"].degree + 1
    assert list(islice(hmod._right_powers(a), count)) == _scalar_powers(a, count)
    (_, start), (bound, width) = widths[:2]
    assert start == 4 and bound >= 1 << 3 and width > start and width % 4 == 0


def test_narrow_width_without_the_guard_decodes_wrongly(monkeypatch, double_cache):
    # the same sequence with the widening switched off: the guard keeps it exact
    monkeypatch.setattr(scalars, "_width_for", lambda bound: 4)
    a = drinfeld_element(double_cache("taft:3")).scale(2)
    count = MU_U["taft:3"].degree + 1
    assert list(islice(hmod._right_powers(a), count)) != _scalar_powers(a, count)
