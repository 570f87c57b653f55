"""Metamorphic tests: a relabelled basis leaves every reported invariant.

A permutation sigma of the basis and signs s_k = +-1 give the new basis
f_sigma(k) = s_k e_k, and e_k -> s_k f_sigma(k) is an isomorphism of Hopf
algebras onto the relabelled structure table.  Every number the calculator
reports is an invariant of the isomorphism class, so none may move; what
changes is every index path through the tables, and the unit and the
grouplikes land away from e_0.
"""

import pytest
from helpers import same_structure
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfqexp.double import drinfeld_double
from hopfqexp.hopf import HopfAlgebraData, element_order, validate
from hopfqexp.presets import ZOO, get_preset, preset_grouplikes
from hopfqexp.qexp import quasi_exponent

#: the zoo presets of dimension at most 9
SMALL = [name for name in ZOO if get_preset(name).dim <= 9]


def relabel(H: HopfAlgebraData, sigma, signs) -> HopfAlgebraData:
    """H in the basis f_sigma(k) = s_k e_k, with its grouplikes and grading."""
    n = H.dim

    def vec(v):  # the f coordinates of sum_k v_k e_k = sum_k v_k s_k f_sigma(k)
        return {sigma[k]: c * signs[k] for k, c in v.items()}

    def dense(v):
        f = vec(dict(enumerate(v)))
        return [f.get(k, H.zero_scalar) for k in range(n)]

    def at_sigma(values):  # out[sigma(k)] = values[k]
        out = [None] * n
        for k, x in enumerate(values):
            out[sigma[k]] = x
        return out

    return HopfAlgebraData(
        name=f"{H.name} relabelled", dim=n, conductor=H.conductor,
        basis_labels=at_sigma(H.basis_labels),
        mult={(sigma[i], sigma[j]): {k: c * signs[i] * signs[j] for k, c in vec(v).items()}
              for (i, j), v in H.mult.items()},
        unit=dense(H.unit),
        comult=at_sigma([{(sigma[i], sigma[j]): c * signs[i] * signs[j] * signs[k]
                          for (i, j), c in H.comult[k].items()} for k in range(n)]),
        counit=at_sigma([c * s for c, s in zip(H.counit, signs)]),
        antipode=at_sigma([{i: c * signs[k] for i, c in vec(H.antipode[k]).items()}
                           for k in range(n)]),
        grouplike_vectors=(None if H.grouplike_vectors is None
                           else [dense(g) for g in H.grouplike_vectors]),
        grading=None if H.grading is None else at_sigma(H.grading),
    )


@st.composite
def relabelled(draw):
    """(preset name, relabelled algebra) for a small zoo preset."""
    name = draw(st.sampled_from(SMALL))
    n = get_preset(name).dim
    sigma = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return name, relabel(get_preset(name), sigma, signs)


def test_relabel_is_an_isomorphism_and_not_the_identity():
    # a transposition with a sign moves the unit of taft:3 off e_0, and
    # relabelling back by the inverse permutation restores the table
    H = get_preset("taft:3")
    sigma, signs = [3, 1, 2, 0, 4, 5, 6, 7, 8], [-1] + [1] * 8
    K = relabel(H, sigma, signs)
    assert not same_structure(K, H)
    assert K.unit_element().data.keys() == {3}
    back = relabel(K, sigma, [signs[sigma[k]] for k in range(9)])
    assert same_structure(back, H)


@settings(max_examples=40, deadline=None)
@given(relabelled())
def test_relabelling_keeps_qexp_and_exponent(report_cache, case):
    """qexp and the exponent are read off u in D(H) (Sec. 2), and an
    isomorphism H -> K carries D(H) onto D(K) and u onto u, so both are
    invariants of the isomorphism class.  Thm 3.3 (qexp(H^J) = qexp(H))
    is this invariance carried from isomorphisms to twists."""
    name, K = case
    rep, rep_k = report_cache(name), quasi_exponent(K)
    assert (rep_k.qexp, rep_k.exponent) == (rep.qexp, rep.exponent)


@settings(max_examples=40, deadline=None)
@given(relabelled())
def test_relabelling_keeps_s2_order_grouplikes_and_validity(report_cache, case):
    """The isomorphism conjugates S^2 and maps G(H) onto G(K), so the order
    of S^2 and the grouplike count stay, and the divisibilities of Prop 2.5
    hold on K with the same qexp: S^(2 qexp) = Id (2.5(5)) and the
    grouplike orders divide qexp (2.5(2)).  It also carries every Hopf
    axiom, so `validate` gives the same verdict."""
    name, K = case
    H, rep = get_preset(name), report_cache(name)
    assert validate(K) == [] and validate(H) == []
    rep_k = quasi_exponent(K)
    assert rep_k.s2_order == rep.s2_order
    assert rep.qexp % rep_k.s2_order == 0
    grouplikes = preset_grouplikes(K)
    assert len(grouplikes) == len(preset_grouplikes(H))
    assert all(rep.qexp % element_order(g) == 0 for g in grouplikes.elements)


@pytest.mark.parametrize("name", SMALL)
def test_every_small_preset_relabels(name, report_cache):
    # the reversal with alternating signs, once on each preset the draws use
    n = get_preset(name).dim
    K = relabel(get_preset(name), list(reversed(range(n))), [(-1) ** k for k in range(n)])
    assert validate(K) == []
    assert quasi_exponent(K).qexp == report_cache(name).qexp


@st.composite
def permuted(draw):
    """(preset name, sigma) for a small zoo preset and a permutation of its basis."""
    name = draw(st.sampled_from(SMALL))
    return name, draw(st.permutations(range(get_preset(name).dim)))


@settings(max_examples=12, deadline=None)
@given(permuted())
def test_relabelling_relabels_the_double(double_cache, case):
    """e_k -> e_sigma(k) carries the dual basis along, f_k -> f_sigma(k), so
    D(sigma H) is D(H) in the basis f_j (x) e_i -> f_sigma(j) (x) e_sigma(i),
    index j N + i -> sigma(j) N + sigma(i): the products, read pair by pair
    in the order of D(H)'s table, the coproduct, the antipode and R."""
    name, sigma = case
    n = len(sigma)
    qt, qk = double_cache(name), drinfeld_double(relabel(get_preset(name), sigma, [1] * n))
    D, K = qt.algebra, qk.algebra
    tau = [sigma[r // n] * n + sigma[r % n] for r in range(n * n)]

    def vec(v):
        return {tau[k]: c for k, c in v.items()}

    def pairs(v):
        return {(tau[a], tau[b]): c for (a, b), c in v.items()}

    for (r, c), v in D.mult.items():
        assert K.mult.get((tau[r], tau[c])) == vec(v)
    assert len(K.mult) == len(D.mult)
    assert [K.comult[tau[k]] for k in range(n * n)] == list(map(pairs, D.comult))
    assert [K.antipode[tau[k]] for k in range(n * n)] == list(map(vec, D.antipode))
    assert qk.R.data == pairs(qt.R.data)
