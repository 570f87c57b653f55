"""Drinfeld doubles: axioms, quasitriangularity, the Drinfeld element."""

import pytest

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
from hopfqexp.hopf import TensorSquareElement, tensor_unit, validate

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
    unit = tensor_unit(qt.algebra)
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
    assert m.apply(qt.algebra.unit_element().coeffs) == list(u.coeffs)


def test_r_normalization(double_cache):
    # (eps (x) eps)(R) = 1 follows from the hexagons; check it directly
    qt = double_cache("group:builtin:Z3")
    val = qt.R.counit_leg(0).counit()
    assert val == 1


def test_double_coefficients_are_interned(double_cache):
    D = double_cache("taft:3").algebra
    coeffs = [c for vec in D.mult.values() for c in vec.values()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


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
        algebra=qt.algebra, R=TensorSquareElement(qt.algebra, {**qt.R.data, key: c + c}),
        basis_split=qt.basis_split, source=qt.source)
    certified, full = _checks_with_and_without_certificate(bad)
    assert certified == full
    assert any("intertwining fails" in v for v in certified[0]), certified
