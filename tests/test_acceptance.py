"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every check is exact (zero tolerance); each test prints a single
"ACCEPTANCE n: PASS" line once all of its assertions hold.  Timing
limits are asserted with freshly built objects so caches cannot hide
slow paths.
"""

import time
from math import lcm

import pytest

from hopfqexp.double import (
    drinfeld_double,
    drinfeld_element,
    verify_quasitriangular,
    verify_s2_conjugation,
)
from hopfqexp.hopf import (
    element_order,
    dual,
    s2_order,
    subalgebra_closure,
    tensor,
    validate,
    variant,
)
from hopfqexp.linalg import ExactMatrix, ExactPolynomial, dense, root_of_unity_order
from hopfqexp.presets import ZOO, get_preset, preset_grouplikes, sweedler
from hopfqexp.qexp import (
    check_corollary_24,
    is_unipotent_element,
    quasi_exponent,
    t_map,
    u_min_poly_via_regular,
    u_min_poly_via_t,
)
from hopfqexp.suite import _generators, run_suite
from hopfqexp.twist import (
    grouplike_from_twist,
    grouplike_subgroup_twist,
    is_twist,
    twist_hopf,
    twisted_drinfeld_element,
    verify_eq4,
)


def passed(n: int):
    print(f"ACCEPTANCE {n}: PASS")


def test_acceptance_1_sweedler_flagship():
    start = time.perf_counter()
    H = sweedler()  # fresh: the timing covers construction and analysis
    rep = quasi_exponent(H)
    assert rep.qexp == 2
    assert rep.exponent == "infinite"
    assert preset_grouplikes(H).exponent() == 2
    combo = t_map(H, 0) - t_map(H, 2).scale(2) + t_map(H, 4)
    assert combo.is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"
    passed(1)


def test_acceptance_2_route_equivalence():
    start = time.perf_counter()
    for name in ("sweedler", "group:builtin:Z2", "group:builtin:Z3",
                 "group:builtin:S3", "taft:3"):
        H = get_preset(name)
        assert u_min_poly_via_t(H) == u_min_poly_via_regular(H), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    passed(2)


def test_acceptance_3_alternating_sums(double_cache, report_cache):
    for name in ("sweedler", "group:builtin:Z3"):
        qt = double_cache(name)
        q = report_cache(name).qexp
        for n in range(1, 13):
            assert check_corollary_24(qt, n, 6) == (n % q == 0), (name, n)
    passed(3)


def test_acceptance_4_qexp_invariants(preset_cache, report_cache):
    # (2) grouplike orders divide qexp
    for name in ZOO:
        H = preset_cache(name)
        if H.grouplike_vectors is None:
            continue
        q = report_cache(name).qexp
        for g in preset_grouplikes(H).elements:
            assert q % element_order(g) == 0, name
    # (3) duality invariance
    for name in ZOO:
        H = preset_cache(name)
        assert quasi_exponent(dual(H)).qexp == report_cache(name).qexp, name
    # (4) tensor products take lcms
    T = tensor(preset_cache("sweedler"), preset_cache("group:builtin:Z3"))
    assert quasi_exponent(T).qexp == 6 == lcm(2, 3)
    # (5) S^(2 qexp) = Id
    for name in ZOO:
        H = preset_cache(name)
        rep = report_cache(name)
        assert rep.qexp % rep.s2_order == 0, name
        s = ExactMatrix.from_columns(
            [dense(col, H.dim, H.conductor) for col in H.antipode], H.conductor)
        assert ((s @ s) ** rep.qexp).is_identity(), name
    # (6) qexp 1 characterizes the trivial algebra
    for name in ZOO:
        assert (report_cache(name).qexp == 1) == (preset_cache(name).dim == 1)
    # (7) invariance under (*, cop)
    for name in ZOO:
        star_cop = variant(dual(preset_cache(name)), "cop")
        assert quasi_exponent(star_cop).qexp == report_cache(name).qexp, name
    passed(4)


def test_acceptance_5_doubles(preset_cache, double_cache):
    for name in ZOO:
        H = preset_cache(name)
        if H.dim > 9:
            continue
        qt = double_cache(name)
        assert validate(qt.algebra) == [], name
        assert verify_quasitriangular(qt) == [], name
        u = drinfeld_element(qt)
        assert verify_s2_conjugation(qt, u), name
    assert quasi_exponent(double_cache("sweedler").algebra).qexp == 2
    passed(5)


def test_acceptance_6_twist_suite(suite_twists):
    # the suite's twists whose u^J it checks: all but the two cyclic ones
    for name, T in suite_twists.items():
        if name.startswith("cyclic"):
            continue
        H = T.parent
        rep = quasi_exponent(H)
        # twist axioms and the antipode identity
        ok, details = is_twist(H, T.J, T.J_inv)
        assert ok, details
        assert verify_eq4(T)
        # qexp invariance
        HJ = twist_hopf(T)
        assert validate(HJ) == []
        assert quasi_exponent(HJ).qexp == rep.qexp
        # u^n = (uJ)^n at n = qexp
        qt = drinfeld_double(H)
        u = drinfeld_element(qt)
        uj = twisted_drinfeld_element(H, T, qt)
        assert u ** rep.qexp == uj ** rep.qexp
        # the twist grouplike has order dividing qexp
        g = grouplike_from_twist(H, T, s2_order(H))
        assert rep.qexp % element_order(g) == 0
        # contrapositive: g u^qexp is not unipotent for nontrivial grouplikes
        if H.grouplike_vectors is not None:
            u_pow = u ** rep.qexp
            unit = H.unit_element()
            for gv in H.grouplike_vectors:
                elt = H.element(gv)
                if elt == unit:
                    continue
                assert not is_unipotent_element(qt.iota_primal(elt) * u_pow)
    passed(6)


def test_acceptance_7_taft_family(preset_cache, report_cache):
    for n in (2, 3, 4, 5):
        name = f"taft:{n}"
        H = preset_cache(name)
        rep = report_cache(name)
        exp_g = preset_grouplikes(H).exponent()
        assert rep.qexp == n == exp_g, name
        # the antipode-square order divides the grouplike group exponent
        assert exp_g % rep.s2_order == 0, name
        # graded formula: qexp = lcm(qexp of the degree-0 part, s2_order)
        h0 = subalgebra_closure(H, [H.element(g) for g in H.grouplike_vectors])
        assert rep.qexp == lcm(quasi_exponent(h0).qexp, rep.s2_order), name
    passed(7)


def test_acceptance_8_quantum_groups(report_cache, suite_twists):
    assert report_cache("uqb2:3").qexp == 3
    assert report_cache("uqsl2:3").qexp == 3
    for name in ("uqb2:3", "uqsl2:3"):
        T = suite_twists[f"cyclic twist on {name}"]
        H = T.parent
        gj = grouplike_from_twist(H, T, s2_order(H))
        assert 3 % element_order(gj) == 0, name
    # the default suite finishes inside its five-minute budget
    start = time.perf_counter()
    items = run_suite()
    elapsed = time.perf_counter() - start
    failed = [i.label for i in items if not i.passed]
    assert not failed, failed
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s, limit 300s"
    passed(8)


def test_acceptance_9_negative_controls(suite_twists):
    # corrupted antipode is caught by the axiom checker
    from hopfqexp.hopf import HopfAlgebraData

    H = sweedler()
    bad = [dict(col) for col in H.antipode]
    bad[1][1] = bad[1].get(1, H.zero_scalar) + H.one_scalar
    corrupt = HopfAlgebraData(
        name=H.name, dim=H.dim, conductor=H.conductor,
        basis_labels=H.basis_labels, mult=H.mult, unit=list(H.unit),
        comult=H.comult, counit=list(H.counit), antipode=bad)
    assert validate(corrupt) != []
    # a non-bicharacter table is rejected by the twist axioms
    G = suite_twists["bicharacter C[Z2xZ2]"].parent
    with pytest.raises(ValueError, match="cocycle"):
        grouplike_subgroup_twist(G, _generators(G), lambda a, b: (-1) ** (a[0] * b[0] * b[1]))
    # x - 2 has no root of unity among its roots: the search reports nothing
    assert root_of_unity_order(ExactPolynomial([-2, 1], 1), 10000) is None
    passed(9)
