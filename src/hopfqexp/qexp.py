"""The quasi-exponent engine.

qexp(H) is the smallest n such that u^n is unipotent, where u is the
Drinfeld element of D(H).  Two independent routes compute the minimal
polynomial of u: the cheap default works with the N x N operators

    T_n = m_n (Id (x) S^-2 (x) ... (x) S^(-2n+2)) Delta_n

on H itself (a vanishing combination sum a_i T_i = 0 is equivalent to
f(u) = 0 for f = sum a_i x^i), and the cross-check builds D(H) and
takes the first dependence among the powers of u in D(H).

The T-route builds T_n by the recursion T_{n+1}(h) = h_1 S^-2(T_n(h_2))
on packed integers (`_TSequence`), and takes the first dependence g
among the N-long projections P(T_n) = sum_k (k+1) T_n(e_k).  The
candidate is certified exactly: if sum g_i T_i = 0 on every column,
then g(u) = 0, so the minimal polynomial of u divides g, and it cannot
have a smaller degree than g, because its own relation survives the
projection; both are monic, so they are equal.  If the check fails,
the first dependence among the unprojected T_n decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm

from .double import QuasitriangularData, drinfeld_double, drinfeld_element
from .hopf import (
    AlgebraElement,
    HopfAlgebraData,
    OrderSearchExhausted,
    SparseVec,
    TensorElement,
    element_minimal_polynomial,
    s2_order,
)
from .linalg import ExactMatrix, ExactPolynomial, dense, first_dependence
from .poly import root_of_unity_order, squarefree_part
from .scalars import _canonical, _height, _integers, _lowest_terms, _ring_for, _spread, pack

#: largest double dimension the regular route will build: D(taft:8), of
#: dimension 64^2.  It still forms only the products the powers of u meet,
#: and no coproduct row: `qexp --preset taft:8 --cross-check` takes
#: 2.1-2.4 s and 162 MB on a 2-core x86-64 host (5.3-5.5 s and 263 MB with
#: its cross terms, antipode and powers of u in exact scalars and its
#: coproduct formed up front, 24 s and 1.8 GB when every product was
#: formed up front too).  Past it the route stops paying: on D(uqsl2:5), of
#: dimension 15,625, the powers of u read 721,802 products (310 s and
#: 1.3 GB in exact scalars).
REGULAR_ROUTE_ENVELOPE = 4096


@dataclass
class QexpReport:
    algebra: str
    min_poly_u: ExactPolynomial
    squarefree: ExactPolynomial
    qexp: int
    exponent: int | str  # positive integer or "infinite"
    s2_order: int
    unipotency_index: int
    route: str
    cross_checked: bool

    def to_dict(self) -> dict:
        from .scalars import scalar_to_json

        return {
            "name": self.algebra,
            "min_poly": [scalar_to_json(c) for c in self.min_poly_u.coeffs],
            "squarefree": [scalar_to_json(c) for c in self.squarefree.coeffs],
            "qexp": self.qexp,
            "exponent": self.exponent,
            "s2_order": self.s2_order,
            "unipotency_index": self.unipotency_index,
            "route": self.route,
            "cross_checked": self.cross_checked,
        }


def t_map(H: HopfAlgebraData, n: int) -> ExactMatrix:
    """The matrix of T_n = m_n (Id (x) S^-2 (x) ... (x) S^(-2n+2)) Delta_n.

    T_0: h -> eps(h) 1 and T_1 = Id.  A dense view of the sparse columns
    that `_t_columns` builds with T_{n+1}(h) = h_1 S^-2(T_n(h_2)); the
    T-route itself never forms this matrix, and certifies its projected
    dependence on those columns (see `u_min_poly_via_t`).
    """
    cols = _t_columns(H, n)
    return ExactMatrix.from_columns(
        [dense(col, H.dim, H.conductor) for col in cols], H.conductor)


def _t_columns(H: HopfAlgebraData, n: int) -> list[SparseVec]:
    """T_n as sparse columns: entry k is T_n(e_k).

    T_{n+1}(h) = h_1 S^-2(T_n(h_2)).  Proof: by coassociativity
    T_{n+1}(h) = h_1 S^-2(h_2) S^-4(h_3) ... S^-2n(h_{n+1}), and S^-2 is
    an algebra automorphism, so the factors after h_1 are S^-2 of
    h_2 S^-2(h_3) ... S^(-2n+2)(h_{n+1}) = T_n(h_2).  Only the columns
    of S^-2 are needed, never a power S^-2m; the scan of `s2_order`
    reads them off as the power of S^2 just before the identity.  The
    recursion runs on packed integers (`_TSequence`); the columns are
    decoded from it on request.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _t_sequence(H).columns(n)


def _combination(m: int, terms: list[tuple[tuple[int, ...], dict, int]]) -> dict:
    """sum_t w_t vec_t mod Phi_m, zeros dropped (`_Ring.combine`), for integer
    coordinates w_t and vec_t = {i: coordinates}, given as (w_t, vec_t, height of vec_t).

    Each digit of the sum is at most m sum_t |w_t| height_t (the exactness
    guard of `_TSequence`), and the ring is chosen from that bound (`_ring_for`).
    """
    ring = _ring_for(m, m * sum(_height([w]) * h for w, _, h in terms))
    width = ring.width
    return ring.combine(
        (pack(w, width), [(i, pack(c, width)) for i, c in vec.items()]) for w, vec, _ in terms)


class _TSequence:
    """T_0, T_1, ... of one algebra, built on packed integers.

    ``terms[n] = (D_n, cols, height)``: T_n(e_k) = sum_i cols[k][i] / D_n e_i,
    with integer power-basis coordinates cols[k][i] (zero entries dropped,
    the content of all of them and D_n divided out) and ``height`` the
    largest of their absolute values.  A step computes, with every value of
    H's indexed tables (`HopfAlgebraData.sinv2_index`, `comult_index`,
    `mult_index`) packed at width B,

        I_b = S^-2(T_n(e_b)),   T_{n+1}(e_k) = sum_(a,b) sum_q (c_ab I_b[q]) e_a e_q

    over Delta(e_k) = sum c_ab e_a (x) e_b, each product one int multiply
    and a fold in the ring at width B (`scalars._Ring`), then decodes every
    entry (`_Ring.unpack`), drops the zeros and divides out the content.

    Exactness guard.  The packed values stand for elements of
    Z[x]/(x^m - 1), which are not reduced mod Phi_m before the decoding.
    If two of them have digits bounded by A and C, each digit of their
    product is a sum of m products of digits, so it is bounded by m A C,
    and a sum of products by the sum of such bounds.  The factor is m,
    not phi(m), because c_ab I_b[q] fills all m digits before it meets
    e_a e_q.  With h the height of T_n, the digits of I_b are at most
    m h R_S, and those of T_{n+1}, scaled by D_n times the three table
    denominators, at most m^3 h R_S R_P = m^3 h ``mass``.  Here R_S is
    the largest sum over i of the heights of S^-2(e_i)[j], over j, and
    R_P the largest sum over (a, b) in Delta(e_k) of height(c_ab) times
    max_j sum_q height((e_a e_q)[j]), over k.  `_Ring.unpack` is exact
    while the bound is below 2^(B-1), so a step keeps ``ring``, the ring of
    the last step, until the bound reaches it, and then widens
    (`_ring_for`).  Python ints never overflow, so this is the only engine:
    no floating point and no modular reduction.
    """

    def __init__(self, H: HopfAlgebraData):
        self.m, self.ring = H.conductor, _ring_for(H.conductor, 0)
        one = H.unit_element().data
        den, t0 = _integers({(k, i): v * e for k, e in enumerate(H.counit) if e
                             for i, v in one.items()})
        cols: list[dict] = [{} for _ in range(H.dim)]
        for (k, i), c in t0.items():
            cols[k][i] = c
        self.terms = [(den, cols, _height(t0.values()))]
        self.decoded: dict[int, list[SparseVec]] = {}
        # H's indexed tables, and the guard's factors from their heights
        self.tables = H.sinv2_index, H.mult_index, H.comult_index
        (scols, svalues), (rows, mvalues), (legs, _, cvalues) = self.tables
        per_a = {a: _spread(row.values(), mvalues.heights) for a, row in rows.items()}
        per_k = [sum(cvalues.heights[i] * per_a.get(a, 0) for (a, _), i in entries)
                 for entries in legs.values()]
        self.den = svalues.den * cvalues.den * mvalues.den
        self.mass = max(1, _spread(scols.values(), svalues.heights)) * max(1, *per_k)

    def term(self, n: int) -> tuple[int, list[dict], int]:
        while len(self.terms) <= n:
            self._step()
        return self.terms[n]

    def columns(self, n: int) -> list[SparseVec]:
        """T_n as exact sparse columns, decoded once."""
        if n not in self.decoded:
            den, cols, _ = self.term(n)
            self.decoded[n] = [{i: _canonical(self.m, tuple(c), den) for i, c in col.items()}
                               for col in cols]
        return self.decoded[n]

    def _step(self) -> None:
        den, cols, height = self.terms[-1]
        m = self.m
        ring = self.ring = _ring_for(m, m ** 3 * height * self.mass, self.ring)
        width = ring.width
        (sinv2, svalues), (mult, mvalues), (comult, _, cvalues) = self.tables
        svals, cvals, mvals = svalues.at(width), cvalues.at(width), mvalues.at(width)
        shift, modulus, unpack = ring.shift, ring.modulus, ring.unpack
        empty: dict = {}
        images = []
        for col in cols:
            image: dict[int, int] = {}
            for i, c in col.items():
                x = pack(c, width)
                for j, s in sinv2[i]:
                    image[j] = image.get(j, 0) + x * svals[s]
            images.append({j: (z & modulus) + (z >> shift) for j, z in image.items()})
        new = []
        for legs in comult.values():
            acc: dict[int, int] = {}
            for (a, b), ci in legs:
                c = cvals[ci]
                row = mult.get(a, empty)
                for q, y in images[b].items():
                    products = row.get(q)
                    if products:
                        z = c * y
                        z = (z & modulus) + (z >> shift)
                        for j, i in products:
                            acc[j] = acc.get(j, 0) + z * mvals[i]
            new.append({j: c for j, z in acc.items() if any(c := unpack(z))})
        den, new = _lowest_terms(den * self.den, new)
        self.terms.append((den, new, _height(c for col in new for c in col.values())))


def _t_sequence(H: HopfAlgebraData) -> _TSequence:
    seq = H._cache.get("t_sequence")
    if seq is None:
        seq = H._cache["t_sequence"] = _TSequence(H)
    return seq


def _projection(H: HopfAlgebraData) -> SparseVec:
    """The fixed vector w = sum_k (k+1) e_k; P(T) = T(w) projects T to N entries."""
    return {k: H.scalar(k + 1) for k in range(H.dim)}


def _projected(H: HopfAlgebraData, n: int, w: SparseVec) -> SparseVec:
    """P(T_n) = sum_k w_k T_n(e_k) as a sparse vector, summed on the integer form."""
    seq = _t_sequence(H)
    den, cols, height = seq.term(n)
    wden, weights = _integers(w)
    return {i: _canonical(seq.m, tuple(c), wden * den) for i, c in _combination(
        seq.m, [(x, cols[k], height) for k, x in weights.items()]).items()}


def _annihilates(H: HopfAlgebraData, g: ExactPolynomial) -> bool:
    """True iff sum_i g_i T_i = 0, checked on every column.

    With g_i = G_i / D_g and T_i = t_i / D_i over L = lcm D_i, the sum is
    sum_i G_i (L / D_i) t_i / (D_g L); each entry is decoded mod Phi_m,
    and the zeros there dropped, before the test.
    """
    seq = _t_sequence(H)
    terms = [seq.term(i) for i in range(g.degree + 1)]
    _, coeffs = _integers(dict(enumerate(g.coeffs)))
    top = lcm(*(den for den, _, _ in terms))
    weights = [tuple(x * (top // den) for x in coeffs[i]) for i, (den, _, _) in enumerate(terms)]
    return not any(_combination(seq.m, [(w, cols[k], h) for w, (_, cols, h) in zip(weights, terms)
                                        if any(w)]) for k in range(H.dim))


def u_min_poly_via_t(H: HopfAlgebraData) -> ExactPolynomial:
    """Minimal polynomial of u from the first dependence among T_0, T_1, ...

    f(u) = 0 holds exactly when sum a_i T_i = 0 with f = sum a_i x^i.
    The first dependence g among the N-long projections P(T_n) =
    sum_k (k+1) T_n(e_k) is accepted only if sum g_i T_i = 0 on every
    column.  Then g(u) = 0, so mu_u divides g; and mu_u(u) = 0 projects
    to a dependence among P(T_0), ..., P(T_d) with d = deg mu_u, so
    deg g <= deg mu_u.  Both are monic, hence g = mu_u.  If the check
    fails, the first dependence among the unprojected T_n decides.
    """
    cond = H.conductor
    length = H.dim ** 2 + 2
    w = _projection(H)
    g = first_dependence((_projected(H, n, w) for n in range(length)), cond)
    if not _annihilates(H, g):
        g = first_dependence(
            ({(k, i): v for k, col in enumerate(_t_columns(H, n)) for i, v in col.items()}
             for n in range(length)), cond)
    return g


def u_min_poly_via_regular(H: HopfAlgebraData,
                           qt: QuasitriangularData | None = None) -> ExactPolynomial:
    """Minimal polynomial of u, from its powers in the double D(H).

    It equals the minimal polynomial of the left-regular matrix of u,
    since the left-regular representation of a unital algebra is
    faithful.  The route goes through D(H) and u, so it stays an
    independent check of the T-route.
    """
    if H.dim * H.dim > REGULAR_ROUTE_ENVELOPE:
        raise ValueError(
            f"the double of {H.name} has dimension {H.dim * H.dim}, beyond the "
            f"regular-representation envelope {REGULAR_ROUTE_ENVELOPE}; "
            "use the T-route instead")
    if qt is None:
        qt = drinfeld_double(H)
    return element_minimal_polynomial(drinfeld_element(qt))


def unipotency_index(min_poly_u: ExactPolynomial, qexp: int) -> int:
    """Smallest N with (1 - u^qexp)^N = 0, read off the minimal polynomial."""
    f = min_poly_u
    one = ExactPolynomial([1], f.conductor)
    g = (one - ExactPolynomial.x_power(qexp, f.conductor)) % f
    power = one % f
    for n in range(1, f.degree + 1):
        power = (power * g) % f
        if power.is_zero():
            return n
    raise AssertionError("(1 - x^qexp) is not nilpotent modulo the minimal "
                         "polynomial; qexp is wrong")  # pragma: no cover


def quasi_exponent(H: HopfAlgebraData, cross_check: bool = False,
                   bound: int | None = None) -> QexpReport:
    """The full quasi-exponent report for H, from the T-route.

    With cross_check, the regular route must give the same minimal polynomial.
    """
    # the regular route runs first, so past its envelope it raises before any work
    regular = u_min_poly_via_regular(H) if cross_check else None
    f = u_min_poly_via_t(H)
    if cross_check and regular != f:
        raise AssertionError(f"route disagreement for {H.name}: {f!r} vs {regular!r}")
    sf = squarefree_part(f)
    q = root_of_unity_order(sf, bound)
    if q is None:
        why = "(Etingof-Gelaki fails)" if bound is None else f"within bound {bound}"
        raise OrderSearchExhausted(
            f"quasi-exponent of {H.name}: root-of-unity order not found {why}")
    exponent: int | str = q if f.monic() == sf else "infinite"
    return QexpReport(
        algebra=H.name,
        min_poly_u=f,
        squarefree=sf,
        qexp=q,
        exponent=exponent,
        s2_order=s2_order(H),
        unipotency_index=unipotency_index(f, q),
        route="t",
        cross_checked=cross_check,
    )


def is_unipotent_element(a: AlgebraElement) -> bool:
    """True iff a - 1 is nilpotent, i.e. the minimal polynomial is (x-1)^k:
    in characteristic 0, iff its squarefree part is x - 1."""
    f = element_minimal_polynomial(a)
    return squarefree_part(f) == ExactPolynomial([-1, 1], f.conductor)


# -- the R_n elements and Corollary-style divisibility checks -------------------


def r_n(qt: QuasitriangularData, n: int) -> TensorElement:
    """R_n = R (Id (x) S^2)(R) ... (Id (x) S^(2n-2))(R); R_0 = 1 (x) 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    D = qt.algebra
    cache = qt._cache.setdefault("r_list", [TensorElement.unit(D, 2)])
    while len(cache) <= n:
        # R_(m+1) = R_m P_m with P_m = (Id (x) S^(2m))(R), m = len(cache) - 1
        p = qt._cache.get("r_leg", qt.R)
        cache.append(cache[-1] * p)
        qt._cache["r_leg"] = p.apply_leg(1, D.s2_columns)
    return cache[n]


def check_corollary_24(qt: QuasitriangularData, n: int, Nmax: int) -> bool:
    """True iff sum_k (-1)^k C(N, k) R_{nk} = 0 for some N <= Nmax."""
    if n < 1 or Nmax < 1:
        raise ValueError("n and Nmax must be positive")
    D = qt.algebra
    for N in range(1, Nmax + 1):
        acc = TensorElement._trusted(D, 2, {})
        for k in range(N + 1):
            term = r_n(qt, n * k).scale((-1) ** k * comb(N, k))
            acc = acc + term
        if acc.is_zero():
            return True
    return False
