"""The quasi-exponent engine.

qexp(H) is the smallest n such that u^n is unipotent, where u is the
Drinfeld element of D(H).  Two independent routes compute the minimal
polynomial of u: the cheap default works with the N x N operators

    T_n = m_n (Id (x) S^-2 (x) ... (x) S^(-2n+2)) Delta_n

on H itself (a vanishing combination sum a_i T_i = 0 is equivalent to
f(u) = 0 for f = sum a_i x^i), and the cross-check builds D(H) and
takes the first dependence among the powers of u in D(H).

The T-route keeps T_n as sparse columns, built by the recursion
T_{n+1}(h) = h_1 S^-2(T_n(h_2)), and takes the first dependence g
among the N-long projections P(T_n) = sum_k (k+1) T_n(e_k).  The
candidate is certified exactly: if sum g_i T_i = 0 on every column,
then g(u) = 0, so the minimal polynomial of u divides g, and it cannot
have a smaller degree than g, because its own relation survives the
projection; both are monic, so they are equal.  If the check fails,
the first dependence among the unprojected T_n decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .double import QuasitriangularData, drinfeld_double, drinfeld_element
from .hopf import (
    AlgebraElement,
    HopfAlgebraData,
    OrderSearchExhausted,
    SparseVec,
    TensorElement,
    TensorSquareElement,
    apply_columns,
    dadd,
    dense,
    element_minimal_polynomial,
    s2_order,
    sparse,
    tensor_unit,
)
from .linalg import ExactMatrix, ExactPolynomial, first_dependence
from .poly import root_of_unity_order, squarefree_part

#: largest double dimension the regular route will build
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
    reads them off as the power of S^2 just before the identity.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    cache = H._cache.get("t_columns")
    if cache is None:
        one = sparse(H.unit)
        t0 = [{i: v * e for i, v in one.items()} if not e.is_zero() else {}
              for e in H.counit]
        cache = H._cache["t_columns"] = [t0]
    sinv2 = H.sinv2_columns
    while len(cache) <= n:
        images = [apply_columns(sinv2, col) for col in cache[-1]]  # S^-2(T_n(e_b))
        cols = []
        for k in range(H.dim):
            col: SparseVec = {}
            for (a, b), c in H.comult[k].items():
                for i, v in H.mul_dicts({a: c}, images[b]).items():
                    dadd(col, i, v)
            cols.append(col)
        cache.append(cols)
    return cache[n]


def _projection(H: HopfAlgebraData) -> SparseVec:
    """The fixed vector w = sum_k (k+1) e_k; P(T) = T(w) projects T to N entries."""
    return {k: H.scalar(k + 1) for k in range(H.dim)}


def _annihilates(H: HopfAlgebraData, g: ExactPolynomial) -> bool:
    """True iff sum_i g_i T_i = 0, checked on every column."""
    ts = [_t_columns(H, i) for i in range(g.degree + 1)]
    coeffs = sparse(g.coeffs)
    return not any(apply_columns([t[k] for t in ts], coeffs) for k in range(H.dim))


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
    N, cond = H.dim, H.conductor
    length = N * N + 2
    w = _projection(H)
    g = first_dependence(
        (dense(apply_columns(_t_columns(H, n), w), N, cond) for n in range(length)), cond)
    if _annihilates(H, g):
        return g
    return first_dependence(
        ([v for col in _t_columns(H, n) for v in dense(col, N, cond)]
         for n in range(length)), cond)


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


def quasi_exponent(H: HopfAlgebraData, route: str = "t",
                   cross_check: bool = False,
                   bound: int | None = None) -> QexpReport:
    """The full quasi-exponent report for H."""
    if route not in ("t", "regular"):
        raise ValueError("route must be 't' or 'regular'")
    # the regular route runs first, so past its envelope it raises before any work
    regular = u_min_poly_via_regular(H) if route == "regular" or cross_check else None
    f = regular if route == "regular" else u_min_poly_via_t(H)
    cross_checked = False
    if cross_check:
        other = u_min_poly_via_t(H) if route == "regular" else regular
        if other != f:
            raise AssertionError(
                f"route disagreement for {H.name}: {f!r} vs {other!r}")
        cross_checked = True
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
        route=route,
        cross_checked=cross_checked,
    )


def is_unipotent_element(a: AlgebraElement) -> bool:
    """True iff a - 1 is nilpotent, i.e. the minimal polynomial is (x-1)^k."""
    f = element_minimal_polynomial(a)
    one = ExactPolynomial([1], f.conductor)
    x_minus_1 = ExactPolynomial([-1, 1], f.conductor)
    power = one
    for _ in range(f.degree):
        power = power * x_minus_1
    return f == power


# -- the R_n elements and Corollary-style divisibility checks -------------------


def r_n(qt: QuasitriangularData, n: int) -> TensorSquareElement:
    """R_n = R (Id (x) S^2)(R) ... (Id (x) S^(2n-2))(R); R_0 = 1 (x) 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    D = qt.algebra
    cache = qt._cache.setdefault("r_list", [tensor_unit(D)])
    while len(cache) <= n:
        # R_(m+1) = R_m P_m with P_m = (Id (x) S^(2m))(R), m = len(cache) - 1
        p = qt._cache.get("r_leg", qt.R)
        cache.append(TensorSquareElement(D, (cache[-1] * p).data))
        qt._cache["r_leg"] = p.apply_leg(1, D.s2_columns)
    return cache[n]


def check_corollary_24(qt: QuasitriangularData, n: int, Nmax: int) -> bool:
    """True iff sum_k (-1)^k C(N, k) R_{nk} = 0 for some N <= Nmax."""
    if n < 1 or Nmax < 1:
        raise ValueError("n and Nmax must be positive")
    D = qt.algebra
    for N in range(1, Nmax + 1):
        acc = TensorElement(D, 2, {})
        for k in range(N + 1):
            term = r_n(qt, n * k).scale((-1) ** k * comb(N, k))
            acc = acc + term
        if acc.is_zero():
            return True
    return False
