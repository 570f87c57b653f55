"""Quasi-exponent engine: frozen oracle values and route agreement.

The expected quasi-exponents below were derived independently before
the engine was written: for a group algebra the Drinfeld element acts
through the group, so qexp(C[G]) is the exponent of G; for the Taft
algebras the value equals the order of the grouplike g; tensor
products take least common multiples.
"""

import pytest

from hopfqexp import qexp as qmod
from hopfqexp import scalars
from hopfqexp.hopf import (
    HopfAlgebraData,
    OrderSearchExhausted,
    apply_columns,
    dadd,
    tensor,
)
from hopfqexp.linalg import ExactMatrix, ExactPolynomial, SpanSolver, dense, sparse
from hopfqexp.presets import ZOO, get_preset
from hopfqexp.qexp import (
    check_corollary_24,
    element_minimal_polynomial,
    is_unipotent_element,
    quasi_exponent,
    t_map,
    u_min_poly_via_regular,
    u_min_poly_via_t,
    unipotency_index,
)

QEXP_ORACLE = {
    "trivial": 1,
    "group:builtin:Z2": 2,
    "group:builtin:Z3": 3,
    "group:builtin:Z4": 4,
    "group:builtin:Z6": 6,
    "group:builtin:Z2xZ2": 2,
    "group:builtin:S3": 6,
    "dualgroup:builtin:Z3": 3,
    "sweedler": 2,
    "taft:2": 2,
    "taft:3": 3,
    "taft:4": 4,
    "taft:5": 5,
    "uqb2:3": 3,
    "uqsl2:3": 3,
    "tensor:sweedler,group:builtin:Z3": 6,
}


@pytest.mark.parametrize("name,expected", sorted(QEXP_ORACLE.items()))
def test_qexp_oracle(name, expected, report_cache):
    assert report_cache(name).qexp == expected


def test_group_algebra_exponent_finite(report_cache):
    rep = report_cache("group:builtin:S3")
    assert rep.exponent == 6
    assert rep.unipotency_index == 1


def test_sweedler_report(report_cache):
    rep = report_cache("sweedler")
    assert rep.exponent == "infinite"
    assert rep.s2_order == 2
    assert rep.unipotency_index == 2
    # min poly of u is (x^2 - 1)^2
    f = ExactPolynomial([-1, 0, 1], rep.min_poly_u.conductor)
    assert rep.min_poly_u == f * f
    assert rep.squarefree == f


def test_sweedler_t_map_combination(preset_cache):
    H = preset_cache("sweedler")
    combo = t_map(H, 0) - t_map(H, 2).scale(2) + t_map(H, 4)
    assert combo.is_zero()
    # and no shorter relation exists: T0, T1, T2, T3 are independent
    assert not (t_map(H, 0) - t_map(H, 2)).is_zero()


@pytest.mark.parametrize("name, conductor, coeffs", [
    ("taft:3", 3, [1, 0, 0, -2, 0, 0, 1]),
    ("uqb2:3", 3, [1, 0, 0, -2, 0, 0, 1]),
    ("uqsl2:3", 3, [-1, 0, 0, 3, 0, 0, -3, 0, 0, 1]),
    ("group:builtin:S3", 1, [-1, -1, 0, 1, 1]),
])
def test_t_route_needs_no_antipode_inverse(monkeypatch, name, conductor, coeffs):
    # S^-2 comes from the S^2 order scan; a dense inverse of S is never formed
    H = get_preset(name)

    def refuse(self):
        raise AssertionError("the T-route inverted the antipode")

    monkeypatch.setattr(HopfAlgebraData, "antipode_inv", property(refuse))
    assert u_min_poly_via_t(H) == ExactPolynomial(coeffs, conductor)


def _x_power_minus_one(n, power=1):
    f = ExactPolynomial([-1] + [0] * (n - 1) + [1], 1)
    out = ExactPolynomial([1], 1)
    for _ in range(power):
        out = out * f
    return out


MU_U = {
    "trivial": _x_power_minus_one(1),
    "group:builtin:Z2": _x_power_minus_one(2),
    "group:builtin:Z3": _x_power_minus_one(3),
    "group:builtin:Z4": _x_power_minus_one(4),
    "group:builtin:Z6": _x_power_minus_one(6),
    "group:builtin:Z2xZ2": _x_power_minus_one(2),
    "group:builtin:S3": _x_power_minus_one(3) * ExactPolynomial([1, 1], 1),
    "dualgroup:builtin:Z3": _x_power_minus_one(3),
    "dualgroup:builtin:S3": _x_power_minus_one(3) * ExactPolynomial([1, 1], 1),
    "sweedler": _x_power_minus_one(2, 2),
    "uqsl2:3": _x_power_minus_one(3, 3),
    "tensor:sweedler,group:builtin:Z3": _x_power_minus_one(6, 2),
    **{f"taft:{n}": _x_power_minus_one(n, 2) for n in range(2, 9)},
    **{f"uqb2:{n}": _x_power_minus_one(n, 2) for n in (3, 5, 7)},
}


@pytest.mark.parametrize("name", ZOO + ["taft:6", "taft:7", "taft:8", "uqb2:5", "uqb2:7"])
def test_t_route_decided_mod_p(name, preset_cache, monkeypatch):
    # the modular pass of first_dependence and its exact check decide alone
    def refuse(self, vec):
        raise AssertionError("the exact elimination ran")

    H = preset_cache(name)
    monkeypatch.setattr(SpanSolver, "insert", refuse)
    g = u_min_poly_via_t(H)
    assert g.conductor == H.conductor and g == MU_U[name]


def test_t_map_t1_is_identity(preset_cache):
    assert t_map(preset_cache("taft:3"), 1).is_identity()


def _dense_t_maps(H, n_max):
    """T_0..T_n_max by the defining recursion T_{n+1} = m (T_n (x) S^-2n) Delta."""
    N, cond = H.dim, H.conductor
    sinv = ExactMatrix.from_columns([dense(c, N, cond) for c in H.antipode], cond).inverse()
    sinv2 = sinv @ sinv
    s_pow = ExactMatrix.identity(N, cond)
    t = ExactMatrix([[H.unit[i] * H.counit[k] for k in range(N)] for i in range(N)], cond)
    out = [t]
    for _ in range(n_max):
        cols = []
        for k in range(N):
            col = H.element([0] * N)
            for (a, b), c in H.comult[k].items():
                col = col + (H.element(t.column(a)) * H.element(s_pow.column(b))).scale(c)
            cols.append(dense(col.data, N, cond))
        t = ExactMatrix.from_columns(cols, cond)
        out.append(t)
        s_pow = s_pow @ sinv2
    return out


@pytest.mark.parametrize("name", ["sweedler", "taft:3", "uqb2:3", "uqsl2:3",
                                  "group:builtin:S3", "dualgroup:builtin:S3"])
def test_sparse_t_map_matches_dense_reference(name, preset_cache):
    H = preset_cache(name)
    for n, ref in enumerate(_dense_t_maps(H, 4)):
        assert t_map(H, n) == ref, f"T_{n} of {name}"


@pytest.mark.parametrize("name", ["group:builtin:S3", "group:builtin:Z6",
                                  "dualgroup:builtin:S3",
                                  "tensor:sweedler,group:builtin:Z3"])
def test_uncertified_projection_falls_back(name, preset_cache, double_cache, monkeypatch):
    # all-ones weights give a wrong first dependence on these algebras
    verdicts = []
    certify = qmod._annihilates

    def spy(H, g):
        verdicts.append(certify(H, g))
        return verdicts[-1]

    monkeypatch.setattr(qmod, "_projection", lambda H: dict.fromkeys(range(H.dim), H.one_scalar))
    monkeypatch.setattr(qmod, "_annihilates", spy)
    H = preset_cache(name)
    assert u_min_poly_via_t(H) == u_min_poly_via_regular(H, double_cache(name))
    assert verdicts == [False]


def _cyclotomic_t_columns(H, n_max):
    """T_0..T_n_max by T_{n+1}(h) = h_1 S^-2(T_n(h_2)) in CyclotomicNumber arithmetic."""
    one = sparse(H.unit)
    t = [{i: v * e for i, v in one.items()} if not e.is_zero() else {} for e in H.counit]
    out = [t]
    for _ in range(n_max):
        images = [apply_columns(H.sinv2_columns, col) for col in t]
        t = []
        for k in range(H.dim):
            col = {}
            for (a, b), c in H.comult[k].items():
                for i, v in H.mul_dicts({a: c}, images[b]).items():
                    dadd(col, i, v)
            t.append(col)
        out.append(t)
    return out


@pytest.mark.parametrize("name", ZOO + ["taft:6", "taft:7", "taft:8", "uqb2:5", "uqb2:7"])
def test_packed_t_columns_match_cyclotomic_recursion(name, preset_cache):
    H = preset_cache(name)
    w = qmod._projection(H)
    for n, ref in enumerate(_cyclotomic_t_columns(H, MU_U[name].degree)):
        assert qmod._t_columns(H, n) == ref, f"T_{n} of {name}"
        assert qmod._projected(H, n, w) == apply_columns(ref, w)


def test_exactness_guard_widens_a_narrow_width():
    # T_3 of uq_sl2(3) has height 18: the step to T_4 needs digits far past 2^3
    H = get_preset("uqsl2:3")
    seq = qmod._t_sequence(H)
    _, _, height = seq.term(3)
    narrow = 4
    assert seq.m ** 3 * height * seq.mass >= 1 << (narrow - 1)
    seq.width = narrow
    for n, ref in enumerate(_cyclotomic_t_columns(H, 9)):
        assert qmod._t_columns(H, n) == ref, f"T_{n}"
    assert seq.width > narrow and seq.width % qmod._WIDTH_QUANTUM == 0
    assert u_min_poly_via_t(H) == MU_U["uqsl2:3"]


def test_narrow_width_without_the_guard_decodes_wrongly(monkeypatch):
    # the same step with the widening switched off: the guard is what keeps T_4 exact
    H = get_preset("uqsl2:3")
    seq = qmod._t_sequence(H)
    seq.term(3)
    seq.width = 4
    monkeypatch.setattr(qmod, "_width_for", lambda bound: 4)
    assert qmod._t_columns(H, 4) != _cyclotomic_t_columns(H, 4)[4]


def test_combination_drops_entries_that_vanish_mod_phi_m():
    # for m = 3, (1 + zeta) zeta + 1 = 1 + zeta + zeta^2 = 0, though its digit
    # vector (1, 1, 1) is not zero in Z[x]/(x^3 - 1); entry 1 is 2
    terms = [((1, 1), {0: (0, 1)}, 1), ((1, 0), {0: (1, 0), 1: (2, 0)}, 2)]
    assert qmod._combination(3, terms) == {1: [2, 0]}
    width = qmod._width_for(3 * (1 * 1 + 1 * 2))
    assert scalars._ring(width, 3) is scalars._ring(width, 3)


ROUTE_PRESETS = ["sweedler", "group:builtin:Z2", "group:builtin:Z3",
                 "group:builtin:S3", "taft:3"]


@pytest.mark.parametrize("name", ROUTE_PRESETS)
def test_route_equivalence(name, preset_cache, double_cache):
    H = preset_cache(name)
    assert u_min_poly_via_t(H) == u_min_poly_via_regular(H, double_cache(name))


def test_cross_check_flag(preset_cache):
    rep = quasi_exponent(preset_cache("sweedler"), cross_check=True)
    assert rep.cross_checked
    assert rep.qexp == 2


def test_regular_route_envelope(preset_cache):
    # dim 27 squared is within the envelope; a fabricated huge bound is not
    H = preset_cache("uqsl2:3")
    old = qmod.REGULAR_ROUTE_ENVELOPE
    qmod.REGULAR_ROUTE_ENVELOPE = 100
    try:
        with pytest.raises(ValueError):
            u_min_poly_via_regular(H)
    finally:
        qmod.REGULAR_ROUTE_ENVELOPE = old


def test_exhausted_bound_reports_not_found(preset_cache):
    with pytest.raises(OrderSearchExhausted, match="not found"):
        quasi_exponent(preset_cache("group:builtin:Z6"), bound=4)


def test_unipotency_index_pure_polynomial():
    # f = (x^2 - 1)^2, q = 2: (1 - x^2)^2 = f, so the index is 2
    f2 = ExactPolynomial([-1, 0, 1], 1)
    assert unipotency_index(f2 * f2, 2) == 2
    assert unipotency_index(ExactPolynomial([-1, 1], 1), 1) == 1


def test_tensor_lcm_property(preset_cache, report_cache):
    T = tensor(preset_cache("group:builtin:Z2"), preset_cache("group:builtin:Z3"))
    assert quasi_exponent(T).qexp == 6


def test_corollary_24_detects_exact_multiples(double_cache, report_cache):
    for name in ("sweedler", "group:builtin:Z3"):
        qt = double_cache(name)
        q = report_cache(name).qexp
        hits = [n for n in range(1, 13) if check_corollary_24(qt, n, 6)]
        assert hits == [n for n in range(1, 13) if n % q == 0]


def test_element_minimal_polynomial_oracle(preset_cache):
    H = preset_cache("sweedler")
    g = H.basis_element(2)
    assert element_minimal_polynomial(g) == ExactPolynomial([-1, 0, 1], 1)
    x = H.basis_element(1)
    assert element_minimal_polynomial(x) == ExactPolynomial([0, 0, 1], 1)


def test_is_unipotent_element(preset_cache):
    H = preset_cache("sweedler")
    one = H.unit_element()
    x = H.basis_element(1)
    assert is_unipotent_element(one + x)
    assert not is_unipotent_element(H.basis_element(2))  # g has order 2


def test_qexp_of_double_matches(double_cache, report_cache):
    qt = double_cache("sweedler")
    assert quasi_exponent(qt.algebra).qexp == report_cache("sweedler").qexp
