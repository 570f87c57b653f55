"""Drinfeld twists: axioms, twisted structures, and invariance."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest
from helpers import same_structure
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp.double import drinfeld_double, drinfeld_element
from hopfqexp.hopf import (TensorElement, element_order, is_grouplike, lift_algebra, s2_order,
                           validate)
from hopfqexp.io import twist_to_dict
from hopfqexp.qexp import quasi_exponent
from hopfqexp.scalars import CyclotomicNumber, lift_conductor
from hopfqexp.suite import _generators
from hopfqexp.twist import (
    _ansatz_solution,
    grouplike_from_twist,
    grouplike_subgroup_twist,
    is_twist,
    make_twist,
    q_elements,
    sweedler_ansatz_solution,
    sweedler_ansatz_twists,
    twist_hopf,
    twisted_drinfeld_element,
    verify_eq4,
)


@pytest.fixture(scope="module")
def z2z2_twist(suite_twists):
    return suite_twists["bicharacter C[Z2xZ2]"]


@pytest.fixture(scope="module")
def z3z3_twist(suite_twists):
    return suite_twists["bicharacter C[Z3xZ3]"]


def _twist_on_legs(H, n):
    """beta(a, b) = zeta_n^(a_0 b_1) on the grouplikes g|1 and 1|g of H = A (x) A."""
    generators = [H.basis_element(H.basis_labels.index(label)) for label in ("g|1", "1|g")]
    return grouplike_subgroup_twist(H, generators, lambda a, b: CyclotomicNumber.zeta(n, a[0] * b[1]))


#: preset A (x) A -> order n of g in A, for the twist of `_twist_on_legs`;
#: unlike the suite's twists on C[G] and on Sweedler, these change Delta
LEG_TWISTS = {"tensor:sweedler,sweedler": 2, "tensor:taft:3,taft:3": 3}


@pytest.fixture(scope="module")
def leg_twists(preset_cache):
    return {name: _twist_on_legs(preset_cache(name), n) for name, n in LEG_TWISTS.items()}


def test_trivial_twist_is_identity(preset_cache):
    H = preset_cache("sweedler")
    T = make_twist(H, TensorElement.unit(H, 2), TensorElement.unit(H, 2))
    assert same_structure(twist_hopf(T), H)


def test_bicharacter_twists_are_twists(z2z2_twist, z3z3_twist):
    for T in (z2z2_twist, z3z3_twist):
        ok, details = is_twist(T.parent, T.J, T.J_inv)
        assert ok, details


def test_non_bicharacter_fails(z2z2_twist):
    # beta(a, b) = (-1)^(a0 b0 b1) is not linear in b: not a twist
    G = z2z2_twist.parent
    with pytest.raises(ValueError, match="the cocycle identity fails"):
        grouplike_subgroup_twist(G, _generators(G), lambda a, b: (-1) ** (a[0] * b[0] * b[1]))


def test_non_commuting_generators_fail(preset_cache):
    # two transpositions of S3 do not commute, so the e_a are not orthogonal
    # idempotents and J is no twist; the constructor leaves that to make_twist
    H = preset_cache("group:builtin:S3")
    generators = [H.basis_element(H.basis_labels.index(label)) for label in ("102", "021")]
    with pytest.raises(ValueError, match="cocycle"):
        grouplike_subgroup_twist(H, generators, lambda a, b: (-1) ** (a[0] * b[1]))


def test_missing_root_of_unity_fails(preset_cache):
    # C[Z3] has rational structure constants: no zeta_3 for the idempotents
    H = preset_cache("group:builtin:Z3")
    g = H.basis_element(H.basis_labels.index("g1"))
    with pytest.raises(ValueError, match="root of unity"):
        grouplike_subgroup_twist(H, [g], lambda a, b: CyclotomicNumber.zeta(3, a[0] * b[0]))


def test_order_six_twist_over_the_third_roots_of_unity(preset_cache):
    # Q(zeta_3) = Q(zeta_6) holds the primitive 6th root -zeta_3^2: the twist
    # on the generator of C[Z6] is built at conductor 3, and at conductor 6
    # it is the same element
    w = -CyclotomicNumber.zeta(3, 2)
    twists = []
    for m in (3, 6):
        H = lift_algebra(preset_cache("group:builtin:Z6"), m)
        g = H.basis_element(H.basis_labels.index("g1"))
        twists.append(grouplike_subgroup_twist(H, [g], lambda a, b: w ** (a[0] * b[0])))
    low, high = twists
    assert element_order(low.parent.basis_element(1)) == 6
    assert {key: lift_conductor(c, 6) for key, c in low.J.data.items()} == high.J.data
    twisted = twist_hopf(low)
    assert validate(twisted) == []
    assert quasi_exponent(twisted).qexp == 6


def test_dependent_generators_give_the_same_twist(suite_twists):
    # [g, g] spans the exponent pairs (a, a): the e_(a, b) with a != b vanish
    cyclic = suite_twists["cyclic twist on uqb2:3"]
    H = cyclic.parent
    g = H.element(H.grouplike_vectors[1])
    T = grouplike_subgroup_twist(H, [g, g], lambda a, b: CyclotomicNumber.zeta(3, a[0] * b[0]))
    assert T.J == cyclic.J and T.J_inv == cyclic.J_inv


def test_twisted_algebra_validates_and_qexp_invariant(z2z2_twist, z3z3_twist):
    for T in (z2z2_twist, z3z3_twist):
        HJ = twist_hopf(T)
        assert validate(HJ) == []
        assert quasi_exponent(HJ).qexp == quasi_exponent(T.parent).qexp


def test_eq4_on_bicharacter_twists(z2z2_twist, z3z3_twist):
    assert verify_eq4(z2z2_twist)
    assert verify_eq4(z3z3_twist)


def test_q_elements_invertible(z2z2_twist):
    T = z2z2_twist
    q, q_inv = q_elements(T)
    one = T.parent.unit_element()
    assert q * q_inv == one and q_inv * q == one


def test_double_twist_restores_original(z2z2_twist):
    T = z2z2_twist
    HJ = twist_hopf(T)
    back = make_twist(HJ, TensorElement(HJ, 2, T.J_inv.data),
                      TensorElement(HJ, 2, T.J.data))
    assert same_structure(twist_hopf(back), T.parent)


def test_drinfeld_element_powers_agree_at_qexp(z2z2_twist, leg_twists):
    """Thm 3.3: u^n = (u^J)^n at n = qexp.

    The second twist changes Delta, and its D(H) has dimension 256.  There
    u^J = u already (Q^-1 S(Q) = 1), so this check is not the evidence that
    Delta changed; `test_twist_on_legs_changes_delta_and_keeps_qexp` is.
    """
    for T in (z2z2_twist, leg_twists["tensor:sweedler,sweedler"]):
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


@pytest.fixture(scope="module")
def twists_with_u(suite_twists):
    """The suite's twists whose u^J it checks, each with the double of its parent."""
    twists = [T for name, T in suite_twists.items() if not name.startswith("cyclic")]
    doubles = {}
    for T in twists:
        if id(T.parent) not in doubles:
            doubles[id(T.parent)] = drinfeld_double(T.parent)
    return [(T, doubles[id(T.parent)]) for T in twists]


@pytest.mark.parametrize("index", range(5))
def test_twisted_drinfeld_element_matches_reference(index, twists_with_u):
    T, qt = twists_with_u[index]
    H = T.parent
    assert twisted_drinfeld_element(H, T, qt) == _twisted_drinfeld_reference(H, T, qt)


def test_grouplike_from_twist(z2z2_twist):
    T = z2z2_twist
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
def test_cyclic_grouplike_twist_on_quantum_presets(name, suite_twists, report_cache):
    T = suite_twists[f"cyclic twist on {name}"]
    H = T.parent
    HJ = twist_hopf(T)
    assert validate(HJ) == []
    assert quasi_exponent(HJ).qexp == report_cache(name).qexp == 3
    gj = grouplike_from_twist(H, T, s2_order(H))
    assert 3 % element_order(gj) == 0


def test_twisted_grouplikes_survive(suite_twists):
    # K stays grouplike after a twist supported on the group part
    T = suite_twists["cyclic twist on uqb2:3"]
    H, HJ = T.parent, twist_hopf(T)
    for gv in H.grouplike_vectors:
        cand = HJ.element(list(gv))
        assert is_grouplike(cand)


#: sha256 of json.dumps([J rows, J_inv rows]) of twist_to_dict for the
#: twists of the suite, recorded from their earlier dense construction
#: (building them from the sparse idempotents, and from one constructor for
#: C[G] and the cyclic twists, must not change a byte), and for the two
#: twists of `_twist_on_legs`
TWIST_DIGESTS = {
    "bicharacter C[Z2xZ2]": "66c0662a274408812439f617c1a356776a4559a938f3a3cb455e9268b8126640",
    "bicharacter C[Z3xZ3]": "dba335fa813a75b4b9e3a65325f42bc36c174f880a630cbb56619d760fa65072",
    "cyclic twist on uqb2:3": "b619e6907413384443d3e169d95caf10efb01071298d71a423f7809b4a6bbd63",
    "cyclic twist on uqsl2:3": "2e89d85833d5e3b9169d04153f576921e1e1d8172fbcd1a9d0739b822ab21d5b",
    "Sweedler ansatz sample 0": "d95003bbe5960f6579a121f7f5e5999977cf1dc76d4fdd2bd3e4090d331ab934",
    "Sweedler ansatz sample 1": "0d442a485d4564b4b7638714dee76e90426c0611134faf674b82237d951ab9d0",
    "Sweedler ansatz sample 2": "4188099dfec9de49187b8b3aae2f74e37060ba9dcf3fd846ca954604e70afada",
    "tensor:sweedler,sweedler": "d4708aba42ccd76fbcf25adf617dcdd739a237bdf9e9b93440f8b0755914f1fe",
    "tensor:taft:3,taft:3": "041d92fcc757ef45533bb6bbae8d5f9b89f7e5aec76088262a5caa466f8b5d7e",
}


def test_twist_data_is_pinned(suite_twists, leg_twists):
    digests = {}
    for name, T in {**suite_twists, **leg_twists}.items():
        doc = twist_to_dict(T)
        digests[name] = hashlib.sha256(json.dumps([doc["J"], doc["J_inv"]]).encode()).hexdigest()
    assert digests == TWIST_DIGESTS


# -- twists that change Delta -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(LEG_TWISTS))
def test_twist_on_legs_changes_delta_and_keeps_qexp(name, leg_twists, report_cache):
    """Thm 3.3, qexp(H^J) = qexp(H), and Eq. (4) on a twist that changes Delta.

    The suite's twists on C[G] and on Sweedler leave H unchanged, and its
    cyclic ones live on a cyclic group; these two twist a tensor square
    along its two copies of g, so H^J is a new Hopf structure.
    """
    T = leg_twists[name]
    HJ = twist_hopf(T)
    assert not same_structure(HJ, T.parent)
    assert validate(HJ) == []
    assert verify_eq4(T)
    assert quasi_exponent(HJ).qexp == report_cache(name).qexp == LEG_TWISTS[name]

