"""Drinfeld twists: axioms, twisted structures, and invariance."""

import functools
import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp.double import drinfeld_double, drinfeld_element
from hopfqexp.hopf import TensorElement, element_order, is_grouplike, s2_order, validate
from hopfqexp.io import twist_to_dict
from hopfqexp.qexp import quasi_exponent
from hopfqexp.scalars import CyclotomicNumber
from hopfqexp.twist import (
    _ansatz_solution,
    bicharacter_twist,
    build_bicharacter_element,
    cyclic_grouplike_twist,
    grouplike_from_twist,
    is_twist,
    make_twist,
    q_elements,
    sweedler_ansatz_solution,
    sweedler_ansatz_twists,
    twist_hopf,
    twisted_drinfeld_element,
    verify_eq4,
)


def z2z2_twist():
    return bicharacter_twist([2, 2], lambda a, b: (-1) ** (a[0] * b[1]))


def z3z3_twist():
    z3 = CyclotomicNumber.zeta(3)
    return bicharacter_twist([3, 3], lambda a, b: z3 ** ((a[0] * b[1]) % 3))


def test_trivial_twist_is_identity(preset_cache):
    H = preset_cache("sweedler")
    T = make_twist(H, TensorElement.unit(H, 2), TensorElement.unit(H, 2))
    assert twist_hopf(T).same_structure(H)


def test_bicharacter_twists_are_twists():
    for T in (z2z2_twist(), z3z3_twist()):
        ok, details = is_twist(T.parent, T.J, T.J_inv)
        assert ok, details


def test_non_bicharacter_fails():
    # beta(a, b) = (-1)^(a0 b0 b1) is not linear in b: not a twist
    H, j, j_inv = build_bicharacter_element(
        [2, 2], lambda a, b: (-1) ** (a[0] * b[0] * b[1]))
    ok, details = is_twist(H, j, j_inv)
    assert not ok
    assert any("cocycle" in d for d in details)


def test_twisted_algebra_validates_and_qexp_invariant(report_cache):
    for T in (z2z2_twist(), z3z3_twist()):
        HJ = twist_hopf(T)
        assert validate(HJ) == []
        assert quasi_exponent(HJ).qexp == quasi_exponent(T.parent).qexp


def test_eq4_on_bicharacter_twists():
    assert verify_eq4(z2z2_twist())
    assert verify_eq4(z3z3_twist())


def test_q_elements_invertible():
    T = z2z2_twist()
    q, q_inv = q_elements(T)
    one = T.parent.unit_element()
    assert q * q_inv == one and q_inv * q == one


def test_double_twist_restores_original():
    T = z2z2_twist()
    HJ = twist_hopf(T)
    back = make_twist(HJ, TensorElement(HJ, 2, T.J_inv.data),
                      TensorElement(HJ, 2, T.J.data))
    assert twist_hopf(back).same_structure(T.parent)


def test_drinfeld_element_powers_agree_at_qexp():
    T = z2z2_twist()
    H = T.parent
    q = quasi_exponent(H).qexp
    qt = drinfeld_double(H)
    u = drinfeld_element(qt)
    uj = twisted_drinfeld_element(H, T, qt)
    assert u ** q == uj ** q


def _twisted_drinfeld_reference(H, T, qt):
    """u^J = Q^-1 S(Q) u, with J and J^-1 mapped into D(H) (x) D(H) term by
    term through iota_primal and Q, Q^-1 formed in D(H)."""
    D = qt.algebra

    def embed(t):
        out = TensorElement(D, 2, {})
        for (i, j), c in t.data.items():
            a = qt.iota_primal(H.basis_element(i)).data
            b = qt.iota_primal(H.basis_element(j)).data
            out = out + TensorElement(D, 2, {(p, q): c * x * y for p, x in a.items()
                                             for q, y in b.items()})
        return out

    q = embed(T.J).apply_leg(0, D.antipode).multiply_legs(0)
    q_inv = embed(T.J_inv).apply_leg(1, D.antipode).multiply_legs(0)
    assert q * q_inv == D.unit_element() == q_inv * q
    return q_inv * q.antipode() * drinfeld_element(qt)


@functools.cache
def _suite_twists_with_u():
    """The suite's twists whose u^J it checks, each with the double of its parent."""
    twists = [z2z2_twist(), z3z3_twist(), *sweedler_ansatz_twists()]
    doubles = {}
    for T in twists:
        if id(T.parent) not in doubles:
            doubles[id(T.parent)] = drinfeld_double(T.parent)
    return [(T, doubles[id(T.parent)]) for T in twists]


@pytest.mark.parametrize("index", range(5))
def test_twisted_drinfeld_element_matches_reference(index):
    T, qt = _suite_twists_with_u()[index]
    H = T.parent
    assert twisted_drinfeld_element(H, T, qt) == _twisted_drinfeld_reference(H, T, qt)


def test_grouplike_from_twist():
    T = z2z2_twist()
    H = T.parent
    g = grouplike_from_twist(H, T, s2_order(H))
    q = quasi_exponent(H).qexp
    assert q % element_order(g) == 0


def test_sweedler_ansatz_family():
    # independent derivation: the only cocycle solutions on the ansatz
    # span have a = c = d = 0 with b free
    sol = sweedler_ansatz_solution()
    assert {str(k): v for k, v in sol.items()} == {"a": 0, "c": 0, "d": 0}


def test_sweedler_ansatz_rejects_a_quadratic_system(preset_cache):
    # with g (x) g in the ansatz, the cocycle defect gains the quadratic
    # term t^2 (1 (x) 1 (x) g - g (x) 1 (x) 1), so the linear solve must not run
    slots = [(1, 1), (1, 3), (3, 1), (3, 3), (2, 2)]
    with pytest.raises(AssertionError, match="not linear"):
        _ansatz_solution(preset_cache("sweedler"), slots)


def test_sweedler_ansatz_needs_no_sympy():
    sweedler_ansatz_twists()
    assert "sympy" not in sys.modules


def test_sweedler_ansatz_twists_verify(report_cache):
    twists = sweedler_ansatz_twists()
    assert len(twists) == 3
    for T in twists:
        ok, details = is_twist(T.parent, T.J, T.J_inv)
        assert ok, details
        assert verify_eq4(T)
        HJ = twist_hopf(T)
        assert validate(HJ) == []
        assert quasi_exponent(HJ).qexp == report_cache("sweedler").qexp


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([1, -2, Fraction(1, 3), Fraction(-7, 2), 5]))
def test_sweedler_ansatz_any_parameter(b):
    T = sweedler_ansatz_twists(samples=(b,))[0]
    assert validate(twist_hopf(T)) == []


@pytest.mark.parametrize("name", ["uqb2:3", "uqsl2:3"])
def test_cyclic_grouplike_twist_on_quantum_presets(name, preset_cache,
                                                   report_cache):
    H = preset_cache(name)
    g = H.element(H.grouplike_vectors[1])
    T = cyclic_grouplike_twist(H, g, 3)
    HJ = twist_hopf(T)
    assert validate(HJ) == []
    assert quasi_exponent(HJ).qexp == report_cache(name).qexp == 3
    gj = grouplike_from_twist(H, T, s2_order(H))
    assert 3 % element_order(gj) == 0


def test_twisted_grouplikes_survive(preset_cache):
    # K stays grouplike after a twist supported on the group part
    H = preset_cache("uqb2:3")
    g = H.element(H.grouplike_vectors[1])
    HJ = twist_hopf(cyclic_grouplike_twist(H, g, 3))
    for gv in H.grouplike_vectors:
        cand = HJ.element(list(gv))
        assert is_grouplike(cand)


#: sha256 of json.dumps([J rows, J_inv rows]) of twist_to_dict for the
#: twists of the suite, recorded from their earlier dense construction:
#: building them from the sparse idempotents must not change a byte
TWIST_DIGESTS = {
    "bicharacter Z2xZ2": "66c0662a274408812439f617c1a356776a4559a938f3a3cb455e9268b8126640",
    "bicharacter Z3xZ3": "dba335fa813a75b4b9e3a65325f42bc36c174f880a630cbb56619d760fa65072",
    "cyclic uqb2:3": "b619e6907413384443d3e169d95caf10efb01071298d71a423f7809b4a6bbd63",
    "cyclic uqsl2:3": "2e89d85833d5e3b9169d04153f576921e1e1d8172fbcd1a9d0739b822ab21d5b",
    "Sweedler ansatz 0": "d95003bbe5960f6579a121f7f5e5999977cf1dc76d4fdd2bd3e4090d331ab934",
    "Sweedler ansatz 1": "0d442a485d4564b4b7638714dee76e90426c0611134faf674b82237d951ab9d0",
    "Sweedler ansatz 2": "4188099dfec9de49187b8b3aae2f74e37060ba9dcf3fd846ca954604e70afada",
}


def test_twist_data_is_pinned(preset_cache):
    twists = {"bicharacter Z2xZ2": z2z2_twist(), "bicharacter Z3xZ3": z3z3_twist()}
    for name in ("uqb2:3", "uqsl2:3"):
        H = preset_cache(name)
        twists[f"cyclic {name}"] = cyclic_grouplike_twist(
            H, H.element(H.grouplike_vectors[1]), 3)
    for i, T in enumerate(sweedler_ansatz_twists()):
        twists[f"Sweedler ansatz {i}"] = T
    digests = {}
    for name, T in twists.items():
        doc = twist_to_dict(T)
        digests[name] = hashlib.sha256(json.dumps([doc["J"], doc["J_inv"]]).encode()).hexdigest()
    assert digests == TWIST_DIGESTS
