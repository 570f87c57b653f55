"""Drinfeld twists.

A twist is an invertible J in H (x) H with

    (Delta (x) Id)(J) (J (x) 1) = (Id (x) Delta)(J) (1 (x) J)

and both counit legs equal to 1.  Twisting conjugates the
comultiplication by J and the antipode by Q = m (S (x) Id)(J).
Twists come from two constructions: `grouplike_subgroup_twist`, the one
constructor of J = sum beta(a, b) e_a (x) e_b on an abelian subgroup of
grouplikes (a bicharacter twist on C[G], a cyclic twist on a quantum
group, or a twist on the two legs of a tensor square), and an exactly
solved ansatz family on the Sweedler algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from typing import Callable

from .double import QuasitriangularData, drinfeld_double, drinfeld_element
from .hopf import (
    AlgebraElement,
    HopfAlgebraData,
    SparsePairs,
    TensorElement,
    apply_columns,
    dadd,
    element_inverse,
    element_order,
    placed_product,
    s2_order,
)
from .linalg import SpanSolver
from .presets import sweedler
from .scalars import CyclotomicNumber


@dataclass
class TwistData:
    parent: HopfAlgebraData
    J: TensorElement
    J_inv: TensorElement


def is_twist(H: HopfAlgebraData, J: TensorElement, J_inv: TensorElement | None = None,
             singular: bool = False) -> tuple[bool, list[str]]:
    """Exact check of the twist axioms; returns (ok, violation details).
    Without a declared J_inv, `element_inverse` decides if J is invertible,
    unless singular says that the caller's `element_inverse(J)` was None."""
    details = []
    unit2 = TensorElement.unit(H, 2)
    if J_inv is not None and (J * J_inv != unit2 or J_inv * J != unit2):
        details.append("declared J_inv is not a two-sided inverse of J")
    if J_inv is None and (singular or element_inverse(J) is None):
        details.append("J is not invertible in H (x) H")
    one = H.unit_element()
    if J.counit_leg(0) != one or J.counit_leg(1) != one:
        details.append("counit legs of J are not 1")
    lhs = placed_product(J.comult_leg(0), (0, 1, 2), J, (0, 1))
    rhs = placed_product(J.comult_leg(1), (0, 1, 2), J, (1, 2))
    if lhs != rhs:
        details.append("the cocycle identity fails")
    return (not details, details)


def make_twist(H: HopfAlgebraData, J: TensorElement,
               J_inv: TensorElement | None = None) -> TwistData:
    """Verified TwistData, J^-1 by `element_inverse` if J_inv is not given;
    a violation raises ValueError."""
    if J_inv is None:
        J_inv = element_inverse(J)
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
    q, q_inv = (x.data for x in q_elements(T))
    comult = [(T.J_inv * H.basis_element(k).comul() * T.J).data for k in range(H.dim)]
    # antipode column k is Q^-1 S(e_k) Q
    antipode = [H.mul_dicts(q_inv, H.mul_dicts(col, q)) for col in H.antipode]
    return HopfAlgebraData._trusted(
        f"{H.name}^J", H.dim, H.conductor, H.basis_labels, H.mult_table, H.unit, comult,
        H.counit, antipode)


def verify_eq4(T: TwistData) -> bool:
    """Delta(Q^-1 S(Q)) = J (Q^-1S(Q) (x) Q^-1S(Q)) (S^2 (x) S^2)(J^-1)."""
    H = T.parent
    q, q_inv = q_elements(T)
    w = q_inv * q.antipode()
    lhs = w.comul()
    s2 = H.s2_columns
    rhs = T.J * TensorElement.from_elements(w, w) * \
        T.J_inv.apply_leg(0, s2).apply_leg(1, s2)
    return lhs == rhs


def twisted_drinfeld_element(H: HopfAlgebraData, T: TwistData,
                             qt: QuasitriangularData | None = None) -> AlgebraElement:
    """u^J = Q^-1 S(Q) u inside D(H), with Q and Q^-1 from `q_elements` of J
    and J^-1 mapped into D(H) (x) D(H) by iota_primal on each leg."""
    if T.parent is not H:
        raise ValueError("the twist does not belong to this algebra")
    if qt is None:
        qt = drinfeld_double(H)
    D = qt.algebra
    iota = [qt.iota_primal(H.basis_element(k)).data for k in range(H.dim)]
    images = []
    for t in (T.J, T.J_inv):
        out: SparsePairs = {}
        for (i, j), c in t.data.items():
            for p, x in iota[i].items():
                for q, y in iota[j].items():
                    dadd(out, (p, q), c * x * y)
        images.append(TensorElement._trusted(D, 2, out))
    q, q_inv = q_elements(TwistData(D, *images))
    return q_inv * q.antipode() * drinfeld_element(qt)


def grouplike_from_twist(H: HopfAlgebraData, T: TwistData, n: int) -> AlgebraElement:
    """g = S^(2n-1)(Q^-1) S^(2n-2)(Q) ... S(Q^-1) Q, verified grouplike in H^J.

    Requires S^(2n) = Id on H (n a multiple of the order of S^2).  The
    element is returned in H, which has the same algebra as H^J; it is
    certified by counit(g) = 1 and J^-1 Delta(g) J = g (x) g.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % s2_order(H):
        raise ValueError("S^(2n) is not the identity; "
                         "n must be a multiple of the order of S^2")
    q, q_inv = q_elements(T)
    s = H.antipode
    # factors[k] = S^k(Q) for even k, S^k(Q^-1) for odd k
    factors = [q.data, apply_columns(s, q_inv.data)]
    while len(factors) < 2 * n:
        factors.append(apply_columns(s, apply_columns(s, factors[-2])))
    g = AlgebraElement(H, reduce(H.mul_dicts, reversed(factors)))
    if g.counit() != 1 or T.J_inv * g.comul() * T.J != TensorElement.from_elements(g, g):
        raise ValueError("the alternating product is not grouplike in H^J; "
                         "this signals a convention error")
    return g


# -- twists on an abelian grouplike subgroup ------------------------------------


def grouplike_subgroup_twist(H: HopfAlgebraData, generators: list[AlgebraElement],
                             beta: Callable[[tuple, tuple], object]) -> TwistData:
    """The twist J = sum_{a,b} beta(a, b) e_a (x) e_b on the grouplikes g_s.

    n_s = ord(g_s) by `element_order`; a, b and c run over the exponent
    tuples of prod_s Z/n_s, and e_a = (1/|G|) sum_c prod_s zeta_{n_s}^(-a_s c_s)
    g^c with g^c = prod_s g_s^(c_s).  When the g_s commute, the e_a are
    orthogonal idempotents summing to 1, so J^-1 takes the pointwise
    inverse of beta.  `make_twist` is the only check: a beta that is not a
    bicharacter, or generators that do not commute, fail there.  On C[G]
    with the generators of G this is a bicharacter twist.  Requires
    zeta_lcm(n_s) in the scalar field Q(zeta_m) of H, which holds a
    primitive n-th root of unity exactly when n divides m (m even) or 2m
    (m odd): zeta_m^(m/n), or -zeta_m^(2m/n) when n divides only 2m.
    """
    m = H.conductor
    orders = [element_order(g) for g in generators]
    period = lcm(*orders)
    if (m if m % 2 == 0 else 2 * m) % period:
        raise ValueError(f"the scalar field of {H.name} lacks a primitive "
                         f"{period}-th root of unity")
    zeta = CyclotomicNumber.zeta
    zetas = [zeta(m, m // n) if m % n == 0 else -zeta(m, 2 * m // n) for n in orders]
    exponents = list(itertools.product(*map(range, orders)))
    group = [H.unit_element()]  # g^c, c in the order of `exponents`
    for g, n in zip(generators, orders):
        group = [x * g ** k for x in group for k in range(n)]
    inv_size = H.scalar(Fraction(1, len(group)))

    def character(a, c) -> CyclotomicNumber:  # (1/|G|) prod_s zeta_{n_s}^(-a_s c_s)
        return prod((z ** (-a_s * c_s % n) for n, z, a_s, c_s in zip(orders, zetas, a, c)),
                    start=inv_size)

    def combine(elements, coeffs) -> AlgebraElement:  # sum_k coeffs[k] elements[k]
        return sum(map(AlgebraElement.scale, elements, coeffs), AlgebraElement(H, {}))

    def tensor(table) -> TensorElement:  # sum_a e_a (x) sum_b table[a][b] e_b
        return sum(map(TensorElement.from_elements, idem, [combine(idem, row) for row in table]),
                   TensorElement._trusted(H, 2, {}))

    idem = [combine(group, [character(a, c) for c in exponents]) for a in exponents]
    table = [[H.scalar(beta(a, b)) for b in exponents] for a in exponents]
    return make_twist(H, tensor(table), tensor([[w.inverse() for w in row] for row in table]))


# -- the Sweedler ansatz family ---------------------------------------------------

# basis indices of the Sweedler algebra: 0 = 1, 1 = x, 2 = g, 3 = gx
_SWEEDLER_SLOTS = {"a": (1, 1), "b": (1, 3), "c": (3, 1), "d": (3, 3)}


def _ansatz_defect(H: HopfAlgebraData, slots, t) -> dict:
    """E(t) for J = 1 (x) 1 + sum t_i e_slot_i, a sparse vector: the cocycle
    defect (Delta (x) Id)(J)(J (x) 1) - (Id (x) Delta)(J)(1 (x) J) at its
    index triples, and the two counit-leg defects at (leg, index)."""
    J = TensorElement.unit(H, 2) + TensorElement(H, 2, dict(zip(slots, t)))
    rhs = placed_product(J.comult_leg(1), (0, 1, 2), J, (1, 2))
    cocycle = placed_product(J.comult_leg(0), (0, 1, 2), J, (0, 1)) + rhs.scale(-1)
    one = H.unit_element()
    return {**cocycle.data, **{(leg, k): c for leg in (0, 1)
                               for k, c in (J.counit_leg(leg) - one).data.items()}}


def _weighted_sum(*terms: tuple[int, dict]) -> dict:
    """sum_t w_t vec_t for integer weights w_t and sparse vectors vec_t."""
    out: dict = {}
    for w, vec in terms:
        for k, v in vec.items():
            dadd(out, k, v * w)
    return out


def _ansatz_solution(H: HopfAlgebraData, slots) -> dict[int, CyclotomicNumber]:
    """Solve E(t) = 0 for the ansatz J = 1 (x) 1 + sum t_i e_slot_i exactly.

    E has degree at most 2 in t (the cocycle defect multiplies two factors
    affine in t), and its second differences E(e_i + e_j) - E(e_i) - E(e_j)
    + E(0), i <= j, are the coefficients of its quadratic part: unless all
    vanish, an AssertionError is raised.  Then E(t) = E(0) + sum t_i L_i
    with L_i = E(e_i) - E(0), solved by one SpanSolver pass.  The free
    unknowns are the dependent columns; the result maps each other
    unknown's index to its value.
    """
    n = len(slots)

    def at(*ones):
        return _ansatz_defect(H, slots, [ones.count(k) for k in range(n)])

    e0 = at()
    e1 = [at(i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if _weighted_sum((1, at(i, j)), (-1, e1[i]), (-1, e1[j]), (1, e0)):
                raise AssertionError(
                    f"the ansatz equations are not linear: the quadratic part "
                    f"at slots {slots[i]}, {slots[j]} is nonzero")
    solver = SpanSolver(H.conductor)
    determined = []
    for i in range(n):
        relation = solver.insert(_weighted_sum((1, e1[i]), (-1, e0)))
        if relation is None:
            determined.append(i)
        elif any(not c.is_zero() for c in relation):
            raise AssertionError(f"unknown {i} is free but moves the others")
    values = solver.express(_weighted_sum((-1, e0)))
    if values is None:
        raise AssertionError("the ansatz equations have no solution")
    return dict(zip(determined, values))


def sweedler_ansatz_solution() -> dict[str, Fraction]:
    """Solve the twist equations for J = 1(x)1 + a x(x)x + b x(x)gx + c gx(x)x
    + d gx(x)gx on the Sweedler algebra, exactly, with no assumed formula.

    Returns a dict mapping each determined unknown's name to its value;
    the free unknowns are absent.  The equations are certified linear
    (every product of two ansatz terms meets x^2 = 0) and solved over
    the rational structure constants by `_ansatz_solution`.
    """
    sol = _ansatz_solution(sweedler(), list(_SWEEDLER_SLOTS.values()))
    return {name: sol[i].as_fraction()
            for i, name in enumerate(_SWEEDLER_SLOTS) if i in sol}


def sweedler_ansatz_twists(samples=(1, -2, Fraction(3, 5))) -> list[TwistData]:
    """Verified Sweedler twists from the solved ansatz, at rational samples.

    The solution is J = 1 (x) 1 + t x (x) gx, and x (x) gx commutes with
    Delta(H), so every sample leaves the Hopf structure unchanged.
    """
    sol = sweedler_ansatz_solution()
    H = sweedler()
    twists = []
    for val in samples:
        data = {slot: sol.get(name, Fraction(val)) for name, slot in _SWEEDLER_SLOTS.items()}
        twists.append(make_twist(H, TensorElement(H, 2, {(0, 0): 1, **data})))
    return twists
