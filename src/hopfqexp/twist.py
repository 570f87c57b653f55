"""Drinfeld twists.

A twist is an invertible J in H (x) H with

    (Delta (x) Id)(J) (J (x) 1) = (Id (x) Delta)(J) (1 (x) J)

and both counit legs equal to 1.  Twisting conjugates the
comultiplication by J and the antipode by Q = m (S (x) Id)(J).
Bicharacter twists on abelian group algebras and an exactly solved
ansatz family on the Sweedler algebra supply nontrivial test cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .double import QuasitriangularData, drinfeld_double, drinfeld_element
from .hopf import (
    AlgebraElement,
    HopfAlgebraData,
    TensorSquareElement,
    is_grouplike,
    lift_algebra,
    s2_order,
    tensor_unit,
)
from .linalg import ExactMatrix, solve_linear_system
from .presets import abelian_group_algebra, _root_conductor, _zeta, sweedler
from .scalars import CyclotomicNumber, as_scalar


@dataclass
class TwistData:
    parent: HopfAlgebraData
    J: TensorSquareElement
    J_inv: TensorSquareElement


def invert_in_tensor_square(H: HopfAlgebraData,
                            J: TensorSquareElement) -> TensorSquareElement | None:
    """Two-sided inverse of J in the algebra H (x) H, by an exact linear solve."""
    N = H.dim
    cols = []
    for p in range(N):
        for q in range(N):
            col = J * TensorSquareElement(H, {(p, q): H.one_scalar})
            dense = [H.zero_scalar] * (N * N)
            for (i, j), v in col.data.items():
                dense[i * N + j] = v
            cols.append(dense)
    m = ExactMatrix.from_columns(cols, H.conductor)
    unit = tensor_unit(H)
    rhs = [H.zero_scalar] * (N * N)
    for (i, j), v in unit.data.items():
        rhs[i * N + j] = v
    x = solve_linear_system(m, rhs)
    if x is None:
        return None
    cand = TensorSquareElement(
        H, {(k // N, k % N): v for k, v in enumerate(x) if not v.is_zero()})
    if cand * J != unit or J * cand != unit:
        return None
    return cand


def is_twist(H: HopfAlgebraData, J: TensorSquareElement,
             J_inv: TensorSquareElement | None = None) -> tuple[bool, list[str]]:
    """Exact check of the twist axioms; returns (ok, violation details)."""
    details = []
    unit2 = tensor_unit(H)
    if J_inv is not None and (J * J_inv != unit2 or J_inv * J != unit2):
        details.append("declared J_inv is not a two-sided inverse of J")
    if J_inv is None and invert_in_tensor_square(H, J) is None:
        details.append("J is not invertible in H (x) H")
    one = H.unit_element()
    if J.counit_leg(0) != one or J.counit_leg(1) != one:
        details.append("counit legs of J are not 1")
    lhs = J.comult_leg(0) * J.embed(3, [0, 1])
    rhs = J.comult_leg(1) * J.embed(3, [1, 2])
    if lhs != rhs:
        details.append("the cocycle identity fails")
    return (not details, details)


def make_twist(H: HopfAlgebraData, J: TensorSquareElement,
               J_inv: TensorSquareElement | None = None) -> TwistData:
    """Build verified TwistData; inverts J if no inverse is supplied."""
    if J_inv is None:
        J_inv = invert_in_tensor_square(H, J)
        if J_inv is None:
            raise ValueError(f"J is not invertible in {H.name} (x) {H.name}")
    ok, details = is_twist(H, J, J_inv)
    if not ok:
        raise ValueError(f"not a twist of {H.name}: " + "; ".join(details))
    return TwistData(parent=H, J=J, J_inv=J_inv)


def q_elements(T: TwistData) -> tuple[AlgebraElement, AlgebraElement]:
    """Q = m (S (x) Id)(J) and Q^-1 = m (Id (x) S)(J^-1), verified inverse."""
    H = T.parent
    q = T.J.apply_leg(0, H.antipode).multiply_legs(0)
    q_inv = T.J_inv.apply_leg(1, H.antipode).multiply_legs(0)
    one = H.unit_element()
    if q * q_inv != one or q_inv * q != one:
        raise ValueError("Q and its declared inverse do not multiply to 1; "
                         "the J/J_inv pair is inconsistent")
    return q, q_inv


def twist_hopf(T: TwistData) -> HopfAlgebraData:
    """The twisted Hopf algebra H^J."""
    H = T.parent
    q, q_inv = q_elements(T)
    comult = []
    for k in range(H.dim):
        d = T.J_inv * H.basis_element(k).comul() * T.J
        comult.append(d.data)
    lq = H.left_mult_matrix(q)
    # x -> Q^-1 S(x) Q as a matrix: right multiplication by Q after left by Q^-1
    rq_cols = [list((H.basis_element(k) * q).coeffs) for k in range(H.dim)]
    rq = ExactMatrix.from_columns(rq_cols, H.conductor)
    lq_inv = H.left_mult_matrix(q_inv)
    antipode = lq_inv @ rq @ H.antipode
    return HopfAlgebraData(
        name=f"{H.name}^J", dim=H.dim, conductor=H.conductor,
        basis_labels=list(H.basis_labels),
        mult={pair: dict(vec) for pair, vec in H.mult.items()},
        unit=list(H.unit), comult=comult, counit=list(H.counit),
        antipode=antipode,
    )


def verify_eq4(T: TwistData) -> bool:
    """Delta(Q^-1 S(Q)) = J (Q^-1S(Q) (x) Q^-1S(Q)) (S^2 (x) S^2)(J^-1)."""
    H = T.parent
    q, q_inv = q_elements(T)
    w = q_inv * q.antipode()
    lhs = w.comul()
    s2 = H.s_squared
    rhs = T.J * TensorSquareElement.from_elements(w, w) * \
        T.J_inv.apply_leg(0, s2).apply_leg(1, s2)
    return lhs == rhs


def twisted_drinfeld_element(H: HopfAlgebraData, T: TwistData,
                             qt: QuasitriangularData | None = None) -> AlgebraElement:
    """u^J = Q^-1 S(Q) u inside D(H), with J through the primal embedding."""
    if T.parent is not H:
        raise ValueError("the twist does not belong to this algebra")
    if qt is None:
        qt = drinfeld_double(H)
    D = qt.algebra
    N = H.dim

    def embed_tensor(t: TensorSquareElement) -> TensorSquareElement:
        out = TensorSquareElement(D, {})
        for (i, j), c in t.data.items():
            a = qt.iota_primal(H.basis_element(i))
            b = qt.iota_primal(H.basis_element(j))
            out = out + TensorSquareElement.from_elements(a, b).scale(c)
        return TensorSquareElement(D, out.data)

    jd = embed_tensor(T.J)
    jd_inv = embed_tensor(T.J_inv)
    q = jd.apply_leg(0, D.antipode).multiply_legs(0)
    q_inv = jd_inv.apply_leg(1, D.antipode).multiply_legs(0)
    if q * q_inv != D.unit_element():
        raise ValueError("embedded Q is not invertible; convention error")
    u = drinfeld_element(qt)
    return q_inv * q.antipode() * u


def grouplike_from_twist(H: HopfAlgebraData, T: TwistData, n: int) -> AlgebraElement:
    """g = S^(2n-1)(Q^-1) S^(2n-2)(Q) ... S(Q^-1) Q, verified grouplike in H^J.

    Requires S^(2n) = Id on H (n a multiple of the order of S^2).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % s2_order(H):
        raise ValueError("S^(2n) is not the identity; "
                         "n must be a multiple of the order of S^2")
    q, q_inv = q_elements(T)
    s_pows = [ExactMatrix.identity(H.dim, H.conductor)]
    for _ in range(2 * n - 1):
        s_pows.append(s_pows[-1] @ H.antipode)
    g = H.unit_element()
    for k in range(2 * n - 1, -1, -1):
        factor = q_inv if k % 2 == 1 else q
        g = g * AlgebraElement(H, s_pows[k].apply(list(factor.coeffs)))
    hj = twist_hopf(T)
    g_in_hj = AlgebraElement(hj, list(g.coeffs))
    if not is_grouplike(g_in_hj):
        raise ValueError("the alternating product is not grouplike in H^J; "
                         "this signals a convention error")
    return g_in_hj


# -- bicharacter twists on abelian group algebras -----------------------------


def build_bicharacter_element(orders, beta):
    """(H, J, J_inv-candidate) for J = sum beta(chi, psi) e_chi (x) e_psi.

    beta maps a pair of character-exponent tuples to a scalar.  No twist
    axioms are checked here; the candidate inverse uses the pointwise
    inverse of beta, valid because the e_chi are orthogonal idempotents.
    """
    orders = list(orders)
    e = lcm(*orders) if len(orders) > 1 else orders[0]
    cond = _root_conductor(e)
    H = lift_algebra(abelian_group_algebra(orders), cond)
    elems = list(itertools.product(*[range(n) for n in orders]))
    size = len(elems)
    inv_size = as_scalar(Fraction(1, size), cond)
    # E[a][g] = e_chi_a coefficient at group element g = (1/|G|) chi_a(g^-1)
    emat = []
    for a in elems:
        row = []
        for g in elems:
            acc = CyclotomicNumber.one(cond)
            for n_s, ai, gi in zip(orders, a, g):
                z = _zeta(n_s)
                acc = acc * z ** ((-ai * gi) % n_s)
            row.append(acc * inv_size)
        emat.append(row)
    emat = ExactMatrix(emat, cond)

    def assemble(bfun):
        bmat = ExactMatrix(
            [[as_scalar(bfun(a, b), cond) for b in elems] for a in elems], cond)
        return TensorSquareElement(H, emat.transpose() @ bmat @ emat)

    j = assemble(beta)
    j_inv = assemble(lambda a, b: as_scalar(beta(a, b), cond).inverse())
    return H, j, j_inv


def bicharacter_twist(orders, beta) -> TwistData:
    """A verified bicharacter twist on C[G] for abelian G of the given orders.

    beta(a, b) must be a bicharacter of the character group; a
    non-bicharacter table is rejected by the exact twist axiom check.
    """
    H, j, j_inv = build_bicharacter_element(orders, beta)
    return make_twist(H, j, j_inv)


def cyclic_grouplike_twist(H: HopfAlgebraData, g: AlgebraElement, p: int,
                           beta_exp: int = 1) -> TwistData:
    """A bicharacter twist supported on the cyclic grouplike subgroup <g>.

    With e_a = (1/p) sum_c zeta_p^(-ac) g^c the orthogonal idempotents
    of C[<g>], builds J = sum_{a,b} zeta_p^(beta_exp*a*b) e_a (x) e_b
    and verifies the twist axioms inside H.  Requires zeta_p in the
    scalar field of H.
    """
    if H.conductor % _root_conductor(p) != 0:
        raise ValueError("the scalar field lacks the needed root of unity")
    z = as_scalar(_zeta(p), H.conductor)
    inv_p = as_scalar(Fraction(1, p), H.conductor)
    powers = [H.unit_element()]
    for _ in range(p - 1):
        powers.append(powers[-1] * g)
    if powers[-1] * g != H.unit_element():
        raise ValueError("g does not have order dividing p")
    idem = []
    for a in range(p):
        e = AlgebraElement(H, [H.zero_scalar] * H.dim)
        for c in range(p):
            e = e + powers[c].scale(z ** ((-a * c) % p) * inv_p)
        idem.append(e)
    j = TensorSquareElement(H, {})
    j_inv = TensorSquareElement(H, {})
    for a in range(p):
        for b in range(p):
            term = TensorSquareElement.from_elements(idem[a], idem[b])
            j = TensorSquareElement(H, (j + term.scale(z ** ((beta_exp * a * b) % p))).data)
            j_inv = TensorSquareElement(
                H, (j_inv + term.scale(z ** ((-beta_exp * a * b) % p))).data)
    return make_twist(H, j, j_inv)


# -- the Sweedler ansatz family ---------------------------------------------------


def sweedler_ansatz_solution():
    """Solve the twist equations for J = 1(x)1 + a x(x)x + b x(x)gx + c gx(x)x
    + d gx(x)gx on the Sweedler algebra, exactly, with no assumed formula.

    Returns (solution dict mapping symbol name -> solved value or None if
    free).  The cocycle and counit equations are assembled over the
    rational structure constants and solved symbolically.
    """
    import sympy

    H = sweedler()
    a, b, c, d = sympy.symbols("a b c d")
    # basis indices: 0 = 1, 1 = x, 2 = g, 3 = gx
    coeffs = {(1, 1): a, (1, 3): b, (3, 1): c, (3, 3): d}

    def frac(x):
        return sympy.Rational(x.as_fraction())

    mult = {pair: {k: frac(v) for k, v in vec.items()} for pair, vec in H.mult.items()}
    comult = [{pq: frac(v) for pq, v in dd.items()} for dd in H.comult]
    counit = [frac(v) for v in H.counit]

    jterms = {(0, 0): sympy.Integer(1), **coeffs}

    def tensor3_mul(t1, t2):
        out = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                parts = [(sympy.Integer(1), ())]
                dead = False
                for leg in range(3):
                    vec = mult.get((k1[leg], k2[leg]))
                    if not vec:
                        dead = True
                        break
                    parts = [(pc * mc, pk + (mk,))
                             for pc, pk in parts for mk, mc in vec.items()]
                if dead:
                    continue
                for pc, pk in parts:
                    out[pk] = out.get(pk, 0) + c1 * c2 * pc
        return out

    def comult_leg(t, leg):
        out = {}
        for key, cval in t.items():
            for (p, q), m in comult[key[leg]].items():
                nk = key[:leg] + (p, q) + key[leg + 1:]
                out[nk] = out.get(nk, 0) + cval * m
        return out

    j1 = {k + (0,): v for k, v in jterms.items()}   # J (x) 1
    j3 = {(0,) + k: v for k, v in jterms.items()}   # 1 (x) J
    lhs = tensor3_mul(comult_leg(jterms, 0), j1)
    rhs = tensor3_mul(comult_leg(jterms, 1), j3)
    eqs = []
    keys = set(lhs) | set(rhs)
    for k in keys:
        eqs.append(sympy.expand(lhs.get(k, 0) - rhs.get(k, 0)))
    for leg in (0, 1):
        img = {}
        for (i, j), v in jterms.items():
            key = (i, j)[1 - leg]
            img[key] = img.get(key, 0) + v * counit[(i, j)[leg]]
        for k, v in img.items():
            target = 1 if k == 0 else 0
            eqs.append(sympy.expand(v - target))
    sols = sympy.solve([e for e in eqs if e != 0], [a, b, c, d], dict=True)
    if len(sols) != 1:
        raise AssertionError(f"expected a single solution family, got {sols}")
    return sols[0]


def sweedler_ansatz_twists(samples=(1, -2, Fraction(3, 5))) -> list[TwistData]:
    """Verified Sweedler twists from the solved ansatz, at rational samples."""
    import sympy

    sol = sweedler_ansatz_solution()
    H = sweedler()
    a, b, c, d = sympy.symbols("a b c d")
    free = [s for s in (a, b, c, d) if s not in sol]
    twists = []
    for val in samples:
        subs = {s: sympy.Rational(Fraction(val)) for s in free}
        data = {(0, 0): H.one_scalar}
        for (i, j), sym in (((1, 1), a), ((1, 3), b), ((3, 1), c), ((3, 3), d)):
            expr = sympy.Rational((sol[sym] if sym in sol else sym).subs(subs))
            v = Fraction(int(expr.p), int(expr.q))
            if v != 0:
                data[(i, j)] = H.scalar(v)
        twists.append(make_twist(H, TensorSquareElement(H, data)))
    return twists
